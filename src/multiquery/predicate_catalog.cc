#include "multiquery/predicate_catalog.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace sqlts {
namespace {

/// Exact, delimiter-safe rendering of a literal for fingerprints.
/// Doubles use their bit pattern (ToString rounds); strings are
/// length-prefixed so payload bytes cannot mimic structure.
void AppendLiteral(const Value& v, std::string* out) {
  out->push_back('L');
  out->append(std::to_string(static_cast<int>(v.kind())));
  out->push_back(':');
  switch (v.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      out->push_back(v.bool_value() ? '1' : '0');
      break;
    case TypeKind::kInt64:
      out->append(std::to_string(v.int64_value()));
      break;
    case TypeKind::kDouble: {
      double d = v.double_value();
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(d), "double width");
      std::memcpy(&bits, &d, sizeof(bits));
      char buf[17];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(bits));
      out->append(buf);
      break;
    }
    case TypeKind::kString: {
      const std::string& s = v.string_value();
      out->append(std::to_string(s.size()));
      out->push_back('=');
      out->append(s);
      break;
    }
    case TypeKind::kDate:
      out->append(v.ToString());
      break;
  }
}

void AppendFingerprint(const ExprPtr& e, std::string* out) {
  if (e == nullptr) {
    out->push_back('T');  // absent predicate = TRUE
    return;
  }
  switch (e->kind) {
    case ExprKind::kLiteral:
      AppendLiteral(e->literal, out);
      return;
    case ExprKind::kColumnRef: {
      const ColumnRef& r = e->ref;
      out->push_back(r.relative ? 'c' : 'g');
      out->append(std::to_string(r.column_index));
      out->push_back('@');
      out->append(std::to_string(r.total_offset));
      if (!r.relative) {
        // Anchored references never share across queries, but keep the
        // fingerprint injective anyway.
        out->push_back('e');
        out->append(std::to_string(r.element));
        out->push_back('a');
        out->append(std::to_string(static_cast<int>(r.accessor)));
        out->push_back('n');
        out->append(std::to_string(r.nav_offset));
      }
      return;
    }
    case ExprKind::kArith:
      out->push_back('A');
      out->append(std::to_string(static_cast<int>(e->arith_op)));
      break;
    case ExprKind::kCompare:
      out->push_back('P');
      out->append(std::to_string(static_cast<int>(e->cmp_op)));
      break;
    case ExprKind::kAnd:
      out->push_back('&');
      break;
    case ExprKind::kOr:
      out->push_back('|');
      break;
    case ExprKind::kNot:
      out->push_back('!');
      break;
    case ExprKind::kAggregate:
      out->push_back('F');
      out->append(std::to_string(static_cast<int>(e->agg_op)));
      out->push_back('v');
      out->append(std::to_string(e->ref.element));
      out->push_back(',');
      out->append(std::to_string(e->ref.column_index));
      return;
  }
  out->push_back('(');
  AppendFingerprint(e->lhs, out);
  if (e->kind != ExprKind::kNot) {
    out->push_back(',');
    AppendFingerprint(e->rhs, out);
  }
  out->push_back(')');
}

}  // namespace

void MultiQueryStats::AddCatalog(const CatalogStats& s) {
  catalog.conjuncts_registered += s.conjuncts_registered;
  catalog.unshareable += s.unshareable;
  catalog.distinct_predicates += s.distinct_predicates;
  catalog.structural_merges += s.structural_merges;
  catalog.semantic_merges += s.semantic_merges;
  catalog.subsumption_edges += s.subsumption_edges;
  catalog.kernels_compiled += s.kernels_compiled;
}

void MultiQueryStats::SnapshotCounters(const MultiQueryCounters& c) {
  shared_lookups += c.shared_lookups.load(std::memory_order_relaxed);
  shared_evals += c.shared_evals.load(std::memory_order_relaxed);
  cache_hits += c.cache_hits.load(std::memory_order_relaxed);
  inferred_hits += c.inferred_hits.load(std::memory_order_relaxed);
  private_evals += c.private_evals.load(std::memory_order_relaxed);
}

void MultiQueryTally::PublishTo(MultiQueryCounters* counters) {
  auto publish = [](int64_t* n, std::atomic<int64_t>* into) {
    if (*n != 0) into->fetch_add(*n, std::memory_order_relaxed);
    *n = 0;
  };
  publish(&shared_lookups, &counters->shared_lookups);
  publish(&shared_evals, &counters->shared_evals);
  publish(&cache_hits, &counters->cache_hits);
  publish(&inferred_hits, &counters->inferred_hits);
  publish(&private_evals, &counters->private_evals);
}

std::string MultiQueryStats::ToString() const {
  std::string out;
  out += "multi-query execution: " + std::to_string(num_queries) +
         " queries, " + std::to_string(num_scan_groups) +
         " scan group(s), " + std::to_string(tuples_scanned) +
         " tuples scanned once\n";
  out += "  predicate catalog: " +
         std::to_string(catalog.conjuncts_registered) +
         " conjuncts -> " + std::to_string(catalog.distinct_predicates) +
         " distinct (" + std::to_string(catalog.structural_merges) +
         " structural merges, " + std::to_string(catalog.semantic_merges) +
         " semantic merges, " + std::to_string(catalog.unshareable) +
         " private), " + std::to_string(catalog.subsumption_edges) +
         " subsumption edge(s), " +
         std::to_string(catalog.kernels_compiled) + " vectorized\n";
  out += "  shared tests: " + std::to_string(shared_lookups) +
         " lookups, " + std::to_string(shared_evals) + " evaluated, " +
         std::to_string(cache_hits) + " cache hits (" +
         std::to_string(inferred_hits) + " via subsumption), " +
         std::to_string(private_evals) + " private evals\n";
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f", dedup_hit_rate());
  out += "  dedup hit rate: ";
  out += rate;
  out += "\n";
  return out;
}

std::string MultiQueryStats::ToJson() const {
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.6f", dedup_hit_rate());
  std::string out = "{";
  out += "\"num_queries\": " + std::to_string(num_queries);
  out += ", \"scan_groups\": " + std::to_string(num_scan_groups);
  out += ", \"tuples_scanned\": " + std::to_string(tuples_scanned);
  out += ", \"conjuncts_registered\": " +
         std::to_string(catalog.conjuncts_registered);
  out += ", \"distinct_predicates\": " +
         std::to_string(catalog.distinct_predicates);
  out += ", \"structural_merges\": " +
         std::to_string(catalog.structural_merges);
  out += ", \"semantic_merges\": " + std::to_string(catalog.semantic_merges);
  out += ", \"subsumption_edges\": " +
         std::to_string(catalog.subsumption_edges);
  out += ", \"kernels_compiled\": " +
         std::to_string(catalog.kernels_compiled);
  out += ", \"unshareable\": " + std::to_string(catalog.unshareable);
  out += ", \"shared_lookups\": " + std::to_string(shared_lookups);
  out += ", \"shared_evals\": " + std::to_string(shared_evals);
  out += ", \"cache_hits\": " + std::to_string(cache_hits);
  out += ", \"inferred_hits\": " + std::to_string(inferred_hits);
  out += ", \"private_evals\": " + std::to_string(private_evals);
  out += ", \"dedup_hit_rate\": ";
  out += rate;
  out += "}";
  return out;
}

std::string PredicateFingerprint(const ExprPtr& e) {
  std::string out;
  AppendFingerprint(e, &out);
  return out;
}

bool IsTupleLocal(const ExprPtr& e) {
  if (e == nullptr) return true;
  switch (e->kind) {
    case ExprKind::kAggregate:
      return false;  // reads the registering query's group spans
    case ExprKind::kColumnRef:
      // Anchored (cross-element / FIRST / LAST) references read the
      // attempt's spans, which differ per query.
      return e->ref.relative && e->ref.accessor == GroupAccessor::kCurrent;
    case ExprKind::kLiteral:
      return true;
    default:
      return IsTupleLocal(e->lhs) && IsTupleLocal(e->rhs);
  }
}

SharedPredicateCatalog::SharedPredicateCatalog(const Schema& schema,
                                               OracleOptions oracle)
    : schema_(schema),
      oracle_plain_([&] {
        OracleOptions off = oracle;
        off.gsw.positive_domain = false;
        return ImplicationOracle(off);
      }()),
      oracle_pos_(oracle) {}

const ImplicationOracle& SharedPredicateCatalog::OracleFor(
    const SharedPredicate& a, const SharedPredicate& b) const {
  // The GSW log-domain (ratio) mode assumes strictly positive reals —
  // sound for this pair only when every column either side reads is
  // declared POSITIVE (mirrors the per-pattern gate in
  // pattern/compile.cc).
  return (a.all_positive && b.all_positive) ? oracle_pos_ : oracle_plain_;
}

int SharedPredicateCatalog::Register(const ExprPtr& conjunct) {
  ++stats_.conjuncts_registered;
  if (conjunct == nullptr || !IsTupleLocal(conjunct)) {
    ++stats_.unshareable;
    return -1;
  }
  std::string fp = PredicateFingerprint(conjunct);
  auto it = by_fingerprint_.find(fp);
  if (it != by_fingerprint_.end()) {
    // Level 1: identical resolved tree — same value on every tuple
    // neighborhood, NULLs and sequence boundaries included.
    ++stats_.structural_merges;
    ++preds_[it->second].registrations;
    return it->second;
  }

  SharedPredicate entry;
  entry.expr = conjunct;
  entry.fingerprint = fp;
  entry.analysis = AnalyzePredicate(conjunct, schema_, &vars_);
  VisitColumnRefs(conjunct, [&](const ColumnRef& r) {
    entry.refs.emplace_back(r.column_index, r.total_offset);
    if (r.column_index < 0 || !schema_.column(r.column_index).positive) {
      entry.all_positive = false;
    }
  });
  std::sort(entry.refs.begin(), entry.refs.end());
  entry.refs.erase(std::unique(entry.refs.begin(), entry.refs.end()),
                   entry.refs.end());
  // Semantic reasoning is two-valued over the reals; it coincides with
  // the engine's 3-valued TRUE-collapse only when the analysis captured
  // everything, no conjunct is disjunctive, and no read can yield NULL.
  entry.semantic_ok = entry.analysis.complete &&
                      entry.analysis.or_groups.empty() &&
                      entry.analysis.nullable_vars.empty() &&
                      !entry.analysis.nullable_residue;

  if (entry.semantic_ok) {
    for (SharedPredicate& p : preds_) {
      // Equal reference sets make boundary behavior identical: at any
      // position where one side reads out-of-sequence, so does the
      // other, and both collapse to not-TRUE.  Elsewhere all reads are
      // real values and mutual implication gives equality.
      if (!p.semantic_ok || p.refs != entry.refs) continue;
      const ImplicationOracle& oracle = OracleFor(p, entry);
      if (oracle.Implies(p.analysis, entry.analysis) &&
          oracle.Implies(entry.analysis, p.analysis)) {
        ++stats_.semantic_merges;
        ++p.registrations;
        // Future syntactic twins of this spelling hit level 1 directly.
        by_fingerprint_.emplace(std::move(fp), p.id);
        return p.id;
      }
    }
  }

  entry.id = size();
  entry.registrations = 1;
  entry.kernel = PredicateKernel::Compile(conjunct, schema_);
  if (entry.kernel != nullptr) ++stats_.kernels_compiled;
  LinkSubsumption(&entry);
  by_fingerprint_.emplace(entry.fingerprint, entry.id);
  preds_.push_back(std::move(entry));
  stats_.distinct_predicates = size();
  return preds_.back().id;
}

void SharedPredicateCatalog::LinkSubsumption(SharedPredicate* fresh) {
  if (!fresh->semantic_ok) return;
  for (SharedPredicate& p : preds_) {
    if (!p.semantic_ok) continue;
    const ImplicationOracle& oracle = OracleFor(p, *fresh);
    // p TRUE certifies every value p reads exists and is non-NULL; a
    // consequence q whose reads are a subset is then decided by real
    // arithmetic, so a TRUE verdict transfers.  Only this positive
    // direction is sound (p FALSE may stem from an out-of-sequence
    // read that tells q nothing).
    if (std::includes(p.refs.begin(), p.refs.end(), fresh->refs.begin(),
                      fresh->refs.end()) &&
        oracle.Implies(p.analysis, fresh->analysis)) {
      p.implies.push_back(fresh->id);
      ++stats_.subsumption_edges;
    }
    if (std::includes(fresh->refs.begin(), fresh->refs.end(), p.refs.begin(),
                      p.refs.end()) &&
        oracle.Implies(fresh->analysis, p.analysis)) {
      fresh->implies.push_back(p.id);
      ++stats_.subsumption_edges;
    }
  }
}

}  // namespace sqlts
