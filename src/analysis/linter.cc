#include "analysis/linter.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraints/gsw.h"
#include "expr/normalize.h"

namespace sqlts {
namespace {

// The linter reuses the θ/φ machinery (expr/normalize + the
// ImplicationOracle) but asks different questions: instead of relating
// predicates of *different* elements evaluated at the *same* tuple, it
// proves properties of one query — per-element satisfiability,
// cross-element consistency (by shifting constraint variables to a
// common tuple frame), filter/pattern contradictions, and per-conjunct
// redundancy.  Everything here is conservative: an emitted E-code is a
// theorem that the query returns zero rows; every W-code that claims
// drop-safety (W001/W002) is validated continuously by the fuzz
// harness's drop test.
//
// Two soundness pillars carried over from the engine (PR 2):
//  * 3VL: a comparison touching NULL is unknown = unsatisfied.  For
//    unsatisfiability proofs that direction is free (a predicate that
//    evaluates TRUE has real values behind every captured atom); for
//    validity/implication claims the oracle's nullable gating applies,
//    and this file adds the analogous *range* gating — a reference at a
//    non-zero offset can fail to resolve at cluster boundaries, so
//    "always true" and "droppable" claims additionally require the
//    involved offsets to be anchored by the remaining conjuncts.
//  * positive-domain: ratio/log reasoning is licensed only when every
//    column the pattern and the hoisted cluster filters touch is
//    declared POSITIVE (same gate as pattern compilation).

/// Splits the InternPatternVar naming convention "column@offset".
std::optional<std::pair<std::string, int>> SplitVarName(
    const std::string& name) {
  size_t at = name.rfind('@');
  if (at == std::string::npos || at + 1 >= name.size()) return std::nullopt;
  int offset = 0;
  bool neg = false;
  size_t i = at + 1;
  if (name[i] == '-') {
    neg = true;
    ++i;
  }
  if (i >= name.size()) return std::nullopt;
  for (; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    offset = offset * 10 + (name[i] - '0');
  }
  return std::make_pair(name.substr(0, at), neg ? -offset : offset);
}

/// Re-interns every variable of `s` at its offset shifted by `delta`
/// tuple positions (used to conjoin adjacent elements' systems in one
/// tuple frame).  nullopt when a variable is not in pattern-var form.
std::optional<ConstraintSystem> ShiftSystem(const ConstraintSystem& s,
                                            int delta,
                                            VariableCatalog* catalog) {
  auto shift = [&](VarId v) -> std::optional<VarId> {
    auto parsed = SplitVarName(catalog->Name(v));
    if (!parsed) return std::nullopt;
    return InternPatternVar(catalog, parsed->first, parsed->second + delta);
  };
  ConstraintSystem out;
  if (s.trivially_false()) out.SetTriviallyFalse();
  for (const LinearAtom& a : s.linear()) {
    auto x = shift(a.x);
    if (!x) return std::nullopt;
    VarId y = a.y;
    if (y != kNoVar) {
      auto ys = shift(y);
      if (!ys) return std::nullopt;
      y = *ys;
    }
    out.AddLinear({*x, y, a.op, a.c});
  }
  for (const RatioAtom& a : s.ratio()) {
    auto x = shift(a.x);
    auto y = shift(a.y);
    if (!x || !y) return std::nullopt;
    out.AddRatio({*x, *y, a.op, a.c});
  }
  for (const StringAtom& a : s.strings()) {
    auto x = shift(a.x);
    if (!x) return std::nullopt;
    out.AddString({*x, a.equal, a.text});
  }
  return out;
}

/// The ambient SEQUENCE BY axioms: within a cluster, tuples are sorted
/// by the first SEQUENCE BY column, so for interned variables seq@a,
/// seq@b with a > b the data satisfies seq@a >= seq@b (non-strict:
/// ties are legal).  A chain over the sorted offsets suffices — the
/// difference-graph closure derives the rest.  Only sound when the
/// column is non-nullable (a NULL has no place in the order).
ConstraintSystem OrderingSystem(const VariableCatalog& catalog,
                                const std::string& seq_column) {
  std::vector<std::pair<int, VarId>> seq_vars;
  for (VarId v = 0; v < catalog.size(); ++v) {
    auto parsed = SplitVarName(catalog.Name(v));
    if (parsed && parsed->first == seq_column) {
      seq_vars.emplace_back(parsed->second, v);
    }
  }
  std::sort(seq_vars.begin(), seq_vars.end());
  ConstraintSystem out;
  for (size_t i = 1; i < seq_vars.size(); ++i) {
    out.AddXopYplusC(seq_vars[i].second, CmpOp::kGe, seq_vars[i - 1].second,
                     0);
  }
  return out;
}

/// True when `s` constrains the SEQUENCE BY column at any offset.
bool TouchesSeqColumn(const ConstraintSystem& s,
                      const VariableCatalog& catalog,
                      const std::string& seq_column) {
  auto is_seq = [&](VarId v) {
    if (v == kNoVar) return false;
    auto parsed = SplitVarName(catalog.Name(v));
    return parsed && parsed->first == seq_column;
  };
  for (const LinearAtom& a : s.linear()) {
    if (is_seq(a.x) || is_seq(a.y)) return true;
  }
  for (const RatioAtom& a : s.ratio()) {
    if (is_seq(a.x) || is_seq(a.y)) return true;
  }
  return false;
}

/// A conjunct is *rigid* when its 3VL value can only be TRUE if every
/// leaf comparison evaluated on real (resolved, non-NULL) operands: no
/// OR anywhere, and NOT only directly above a comparison.  Rigid
/// conjuncts anchor two claims: their references are guaranteed
/// resolved wherever they hold (W001's range gating), and an
/// unresolvable reference inside one makes it fail (E004's
/// star-group requirement).
bool RigidConjunct(const ExprPtr& e) {
  if (e == nullptr) return true;
  if (e->kind == ExprKind::kOr) return false;
  if (e->kind == ExprKind::kNot) {
    return e->lhs != nullptr && e->lhs->kind == ExprKind::kCompare;
  }
  return RigidConjunct(e->lhs) && RigidConjunct(e->rhs);
}

/// Everything the per-conjunct checks need to know about one conjunct.
struct ConjunctInfo {
  ExprPtr expr;
  PredicateAnalysis analysis;
  bool rigid = false;
  bool has_anchored = false;
  /// total_offsets of relative references.
  std::set<int> rel_offsets;
  /// 0-based elements referenced through anchored (group-span) refs.
  std::set<int> anchored_elements;
};

ConjunctInfo BuildConjunctInfo(const ExprPtr& c, const Schema& schema,
                               VariableCatalog* catalog) {
  ConjunctInfo info;
  info.expr = c;
  info.analysis = AnalyzePredicate(c, schema, catalog);
  info.rigid = RigidConjunct(c);
  VisitColumnRefs(c, [&](const ColumnRef& r) {
    if (r.relative) {
      info.rel_offsets.insert(r.total_offset);
    } else {
      info.has_anchored = true;
      if (r.element >= 0) info.anchored_elements.insert(r.element);
    }
  });
  return info;
}

SourceSpan ElementSpan(const PatternElement& el) {
  SourceSpan span;
  for (const ExprPtr& c : el.conjuncts) {
    span = SourceSpan::Union(span, c->span);
  }
  return span;
}

std::string ElementLabel(const CompiledQuery& q, int e0) {
  return "pattern element " + std::to_string(e0 + 1) + " (" +
         (q.elements[e0].star ? "*" : "") + q.elements[e0].var + ")";
}

std::string PredicateText(const PatternElement& el) {
  return el.predicate == nullptr ? "TRUE" : el.predicate->ToString();
}

/// Walks `e` reporting FIRST()/LAST() accessors applied to non-star
/// elements (W003): the group is a single tuple, so the accessor is
/// noise.
void FindScalarGroupAccessors(
    const ExprPtr& e, const CompiledQuery& q,
    const std::function<void(const ExprPtr&)>& report) {
  if (e == nullptr) return;
  if ((e->kind == ExprKind::kColumnRef || e->kind == ExprKind::kAggregate) &&
      e->ref.accessor != GroupAccessor::kCurrent && e->ref.element >= 0 &&
      e->ref.element < q.pattern_length() &&
      !q.elements[e->ref.element].star) {
    report(e);
  }
  FindScalarGroupAccessors(e->lhs, q, report);
  FindScalarGroupAccessors(e->rhs, q, report);
}

}  // namespace

bool LintResult::has_errors() const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) { return d.is_error(); });
}

bool LintResult::has_warnings() const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) { return !d.is_error(); });
}

std::vector<Diagnostic> LintResult::with_code(std::string_view code) const {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

std::string SummarizeErrors(const LintResult& result) {
  std::string out;
  for (const Diagnostic& d : result.diagnostics) {
    if (!d.is_error()) continue;
    if (!out.empty()) out += "; ";
    out += "[" + d.code + "] " + d.message;
  }
  return out;
}

Status RefuseProvablyEmpty(const CompiledQuery& query,
                           const CompileOptions& options) {
  if (!options.refuse_provably_empty) return Status::OK();
  LintOptions lint_options;
  lint_options.oracle = options.oracle;
  LintResult lint = LintQuery(query, lint_options);
  if (!lint.has_errors()) return Status::OK();
  return Status::InvalidArgument("query is provably empty: " +
                                 SummarizeErrors(lint));
}

LintResult LintQuery(const CompiledQuery& q, const LintOptions& options) {
  LintResult out;
  const int m = q.pattern_length();
  if (m == 0) return out;
  const Schema& schema = q.input_schema;

  // Positive-domain gate, mirroring CompilePattern but extended to the
  // hoisted cluster filters (the linter conjoins filter systems with
  // element systems, so their columns must satisfy the same domain
  // assumption).
  bool all_positive = true;
  auto gate = [&](const ExprPtr& e) {
    VisitColumnRefs(e, [&](const ColumnRef& r) {
      if (r.column_index < 0 || !schema.column(r.column_index).positive) {
        all_positive = false;
      }
    });
  };
  for (const PatternElement& el : q.elements) {
    if (el.predicate != nullptr) gate(el.predicate);
  }
  for (const ExprPtr& f : q.cluster_filters) gate(f);

  LintOptions gated = options;
  gated.oracle.gsw.positive_domain =
      gated.oracle.gsw.positive_domain && all_positive;
  ImplicationOracle oracle(gated.oracle);
  const GswSolver& solver = oracle.solver();

  // One shared catalog: "col@off" variables mean the same thing in
  // every analysis, which is what lets systems be conjoined across
  // elements and filters.
  VariableCatalog catalog;
  std::vector<PredicateAnalysis> elem(m);
  std::vector<std::vector<ConjunctInfo>> conj(m);
  std::vector<SourceSpan> elem_span(m);
  for (int e = 0; e < m; ++e) {
    elem[e] = AnalyzePredicate(q.elements[e].predicate, schema, &catalog);
    elem_span[e] = ElementSpan(q.elements[e]);
    for (const ExprPtr& c : q.elements[e].conjuncts) {
      conj[e].push_back(BuildConjunctInfo(c, schema, &catalog));
    }
  }
  std::vector<PredicateAnalysis> filt;
  filt.reserve(q.cluster_filters.size());
  for (const ExprPtr& f : q.cluster_filters) {
    filt.push_back(AnalyzePredicate(f, schema, &catalog));
  }

  // SEQUENCE BY ordering axioms are licensed by a non-nullable, ordered
  // first sequencing column.
  std::string seq_column;
  bool seq_ordered = false;
  if (!q.sequence_by.empty()) {
    auto idx = schema.FindColumn(q.sequence_by[0]);
    if (idx.ok()) {
      const ColumnDef& col = schema.column(*idx);
      seq_ordered = !col.nullable && (col.type == TypeKind::kInt64 ||
                                      col.type == TypeKind::kDouble ||
                                      col.type == TypeKind::kDate);
      if (seq_ordered) seq_column = col.name;
    }
  }
  auto ordering = [&]() {
    return seq_ordered ? OrderingSystem(catalog, seq_column)
                       : ConstraintSystem();
  };

  // --- E005: a cluster filter is itself unsatisfiable -----------------
  std::vector<bool> filter_dead(filt.size(), false);
  for (size_t f = 0; f < filt.size(); ++f) {
    if (!oracle.Unsat(filt[f])) continue;
    filter_dead[f] = true;
    out.diagnostics.push_back(Diagnostic{
        "E005", DiagSeverity::kError,
        "cluster filter '" + q.cluster_filters[f]->ToString() +
            "' is provably unsatisfiable: no cluster passes, so the query "
            "returns zero rows",
        q.cluster_filters[f]->span, 0, -1});
  }
  // Hoisting splits a contradictory filter conjunction into individually
  // satisfiable pieces (grp > 5 AND grp < 3), so also test them jointly.
  if (filt.size() >= 2 &&
      std::none_of(filter_dead.begin(), filter_dead.end(),
                   [](bool b) { return b; })) {
    PredicateAnalysis joint;
    SourceSpan span;
    std::string text;
    for (size_t f = 0; f < filt.size(); ++f) {
      joint.system = ConstraintSystem::Conjoin(joint.system, filt[f].system);
      for (const auto& g : filt[f].or_groups) joint.or_groups.push_back(g);
      span = SourceSpan::Union(span, q.cluster_filters[f]->span);
      if (!text.empty()) text += " AND ";
      text += q.cluster_filters[f]->ToString();
    }
    if (oracle.Unsat(joint)) {
      filter_dead.assign(filt.size(), true);
      out.diagnostics.push_back(Diagnostic{
          "E005", DiagSeverity::kError,
          "cluster filters '" + text +
              "' are jointly unsatisfiable: no cluster passes, so the "
              "query returns zero rows",
          span, 0, -1});
    }
  }

  // --- E001/E003/E004/W006: per-element unsatisfiability --------------
  // For each element, try the predicate alone, then augmented with the
  // ordering axioms, then conjoined with each (satisfiable) cluster
  // filter.  Any unsat verdict is sound: a tuple satisfying the
  // predicate would provide real values satisfying all captured atoms,
  // the ordering holds by the sort, and cluster-filter atoms hold on
  // every tuple of an accepted cluster (cluster columns are constant).
  std::vector<bool> elem_dead(m, false);
  for (int e = 0; e < m; ++e) {
    bool unsat = oracle.Unsat(elem[e]);
    bool via_ordering = false;
    int via_filter = -1;
    if (!unsat && seq_ordered) {
      PredicateAnalysis aug = elem[e];
      aug.system = ConstraintSystem::Conjoin(aug.system, ordering());
      if (oracle.Unsat(aug)) {
        unsat = true;
        via_ordering = true;
      }
    }
    if (!unsat) {
      for (size_t f = 0; f < filt.size(); ++f) {
        if (filter_dead[f]) continue;
        PredicateAnalysis aug = elem[e];
        aug.system = ConstraintSystem::Conjoin(aug.system, filt[f].system);
        for (const auto& g : filt[f].or_groups) aug.or_groups.push_back(g);
        if (seq_ordered) {
          aug.system = ConstraintSystem::Conjoin(aug.system, ordering());
        }
        if (oracle.Unsat(aug)) {
          unsat = true;
          via_filter = static_cast<int>(f);
          break;
        }
      }
    }
    if (!unsat) continue;
    elem_dead[e] = true;

    const bool star = q.elements[e].star;
    if (!star) {
      if (via_filter >= 0) {
        out.diagnostics.push_back(Diagnostic{
            "E003", DiagSeverity::kError,
            ElementLabel(q, e) + ": predicate '" +
                PredicateText(q.elements[e]) +
                "' contradicts the hoisted cluster filter '" +
                q.cluster_filters[via_filter]->ToString() +
                "': no tuple in an accepted cluster can satisfy it, so "
                "the query returns zero rows",
            SourceSpan::Union(elem_span[e],
                              q.cluster_filters[via_filter]->span),
            e + 1, -1});
      } else {
        out.diagnostics.push_back(Diagnostic{
            "E001", DiagSeverity::kError,
            ElementLabel(q, e) + ": predicate '" +
                PredicateText(q.elements[e]) +
                "' is provably unsatisfiable" +
                (via_ordering ? " under the SEQUENCE BY ordering" : "") +
                ", so the query returns zero rows",
            elem_span[e], e + 1, -1});
      }
      continue;
    }

    // Star element: the group can never take a tuple.  That only makes
    // the query provably empty when a later non-star element *requires*
    // the group non-empty: a rigid conjunct with an anchored reference
    // into it necessarily fails on the empty group's unresolvable span
    // (3VL: unknown = unsatisfied).  Otherwise it is dead weight (W006).
    int req_elem = -1, req_conj = -1;
    for (int k = 0; k < m && req_elem < 0; ++k) {
      if (k == e || q.elements[k].star || elem_dead[k]) continue;
      for (size_t i = 0; i < conj[k].size(); ++i) {
        if (conj[k][i].rigid && conj[k][i].anchored_elements.count(e)) {
          req_elem = k;
          req_conj = static_cast<int>(i);
          break;
        }
      }
    }
    if (req_elem >= 0) {
      out.diagnostics.push_back(Diagnostic{
          "E004", DiagSeverity::kError,
          ElementLabel(q, e) + ": continuation predicate '" +
              PredicateText(q.elements[e]) +
              "' is provably unsatisfiable, so the group is always "
              "empty; but '" +
              conj[req_elem][req_conj].expr->ToString() + "' (" +
              ElementLabel(q, req_elem) +
              ") references the group and can never hold on an empty "
              "one, so the query returns zero rows",
          SourceSpan::Union(elem_span[e],
                            conj[req_elem][req_conj].expr->span),
          e + 1, -1});
    } else {
      out.diagnostics.push_back(Diagnostic{
          "W006", DiagSeverity::kWarning,
          ElementLabel(q, e) + ": continuation predicate '" +
              PredicateText(q.elements[e]) +
              "' is provably unsatisfiable — the star group is always "
              "empty and the element is dead weight",
          elem_span[e], e + 1, -1});
    }
  }

  // --- E002: adjacent non-star elements contradict --------------------
  // Shift each element's system into a common tuple frame (element j's
  // tuple sits delta positions after element a's within a run of
  // single-tuple elements) and test joint satisfiability under the
  // ordering axioms.  Pairwise first for precise attribution, then the
  // whole run to catch longer contradiction cycles.
  {
    int a = 0;
    while (a < m) {
      if (q.elements[a].star || elem_dead[a]) {
        ++a;
        continue;
      }
      int b = a;
      while (b + 1 < m && !q.elements[b + 1].star && !elem_dead[b + 1]) ++b;
      bool pair_fired = false;
      for (int j = a; j < b; ++j) {
        auto shifted = ShiftSystem(elem[j + 1].system, 1, &catalog);
        if (!shifted) continue;
        ConstraintSystem joint =
            ConstraintSystem::Conjoin(elem[j].system, *shifted);
        if (seq_ordered) {
          joint = ConstraintSystem::Conjoin(joint, ordering());
        }
        if (solver.ProvablyUnsat(joint)) {
          pair_fired = true;
          out.diagnostics.push_back(Diagnostic{
              "E002", DiagSeverity::kError,
              ElementLabel(q, j) + " and " + ElementLabel(q, j + 1) +
                  ": combined constraints on consecutive tuples are "
                  "contradictory under the difference-graph closure, so "
                  "the query returns zero rows",
              SourceSpan::Union(elem_span[j], elem_span[j + 1]), j + 1,
              -1});
        }
      }
      if (!pair_fired && b - a >= 2) {
        ConstraintSystem joint = elem[a].system;
        bool all_shifted = true;
        for (int j = a + 1; j <= b; ++j) {
          auto shifted = ShiftSystem(elem[j].system, j - a, &catalog);
          if (!shifted) {
            all_shifted = false;
            break;
          }
          joint = ConstraintSystem::Conjoin(joint, *shifted);
        }
        if (seq_ordered) {
          joint = ConstraintSystem::Conjoin(joint, ordering());
        }
        if (all_shifted && solver.ProvablyUnsat(joint)) {
          SourceSpan span;
          for (int j = a; j <= b; ++j) {
            span = SourceSpan::Union(span, elem_span[j]);
          }
          out.diagnostics.push_back(Diagnostic{
              "E002", DiagSeverity::kError,
              ElementLabel(q, a) + " through " + ElementLabel(q, b) +
                  ": the run's combined constraints are contradictory "
                  "under the difference-graph closure, so the query "
                  "returns zero rows",
              span, a + 1, -1});
        }
      }
      a = b + 1;
    }
  }

  // --- W005: LIMIT 0 --------------------------------------------------
  if (q.limit_zero) {
    out.diagnostics.push_back(Diagnostic{
        "W005", DiagSeverity::kWarning,
        "LIMIT 0 discards every match: the pattern is never evaluated "
        "and the query always returns zero rows",
        q.limit_span, 0, -1});
  }

  // --- W003: FIRST()/LAST() on a non-star element ---------------------
  for (const SelectItem& item : q.select) {
    FindScalarGroupAccessors(item.expr, q, [&](const ExprPtr& node) {
      const char* acc =
          node->ref.accessor == GroupAccessor::kFirst ? "FIRST" : "LAST";
      out.diagnostics.push_back(Diagnostic{
          "W003", DiagSeverity::kWarning,
          std::string(acc) + "(" + node->ref.var + ") in the SELECT list: " +
              ElementLabel(q, node->ref.element) +
              " matches exactly one tuple, so the accessor is a no-op",
          node->span, node->ref.element + 1, -1});
    });
  }

  // --- W001/W002/W004: per-conjunct findings --------------------------
  for (int e = 0; e < m; ++e) {
    if (elem_dead[e]) continue;  // dead elements already reported
    const std::vector<ConjunctInfo>& infos = conj[e];
    for (size_t i = 0; i < infos.size(); ++i) {
      const ConjunctInfo& ci = infos[i];

      // W002: always true.  Valid() covers NULLs (3VL gating); the
      // offset restriction covers cluster-boundary resolution — only
      // the tuple under test (offset 0) is guaranteed to exist.
      bool offsets_trivial = !ci.has_anchored;
      for (int off : ci.rel_offsets) offsets_trivial &= off == 0;
      if (offsets_trivial && oracle.Valid(ci.analysis)) {
        out.diagnostics.push_back(Diagnostic{
            "W002", DiagSeverity::kWarning,
            ElementLabel(q, e) + ": conjunct '" + ci.expr->ToString() +
                "' is always true and can be dropped",
            ci.expr->span, e + 1, static_cast<int>(i)});
        continue;
      }

      // W004: entailed by the SEQUENCE BY sort order alone.  Advisory,
      // not drop-safe: at cluster boundaries an off-tuple reference
      // fails to resolve, so the comparison still acts as a range
      // guard.
      if (seq_ordered && ci.analysis.complete &&
          ci.analysis.or_groups.empty() && !ci.analysis.system.empty() &&
          !ci.analysis.system.trivially_false() &&
          TouchesSeqColumn(ci.analysis.system, catalog, seq_column) &&
          solver.ProvablyImplies(ordering(), ci.analysis.system)) {
        out.diagnostics.push_back(Diagnostic{
            "W004", DiagSeverity::kWarning,
            ElementLabel(q, e) + ": comparison '" + ci.expr->ToString() +
                "' on SEQUENCE BY column '" + seq_column +
                "' is implied by the sort order wherever its references "
                "resolve (it only acts as a cluster-boundary guard)",
            ci.expr->span, e + 1, static_cast<int>(i)});
        continue;
      }

      // W001: implied by the sibling conjuncts.  Drop-safe: whenever
      // the siblings hold, (a) their rigid members pin every offset the
      // conjunct dereferences (range), (b) the oracle's nullable gating
      // pins its NULLs, and (c) the captured implication pins its
      // truth.
      if (infos.size() < 2 || ci.has_anchored) continue;
      std::set<int> guaranteed{0};
      ExprPtr rest;
      for (size_t k = 0; k < infos.size(); ++k) {
        if (k == i) continue;
        rest = rest ? MakeAnd(rest, infos[k].expr) : infos[k].expr;
        if (infos[k].rigid) {
          guaranteed.insert(infos[k].rel_offsets.begin(),
                            infos[k].rel_offsets.end());
        }
      }
      bool offsets_covered = true;
      for (int off : ci.rel_offsets) offsets_covered &= guaranteed.count(off);
      if (!offsets_covered) continue;
      PredicateAnalysis rest_an = AnalyzePredicate(rest, schema, &catalog);
      if (oracle.Implies(rest_an, ci.analysis)) {
        out.diagnostics.push_back(Diagnostic{
            "W001", DiagSeverity::kWarning,
            ElementLabel(q, e) + ": conjunct '" + ci.expr->ToString() +
                "' is implied by its sibling conjuncts and can be dropped",
            ci.expr->span, e + 1, static_cast<int>(i)});
      }
    }
  }

  return out;
}

StatusOr<LintResult> LintQueryText(std::string_view text,
                                   const Schema& schema,
                                   const LintOptions& options) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query,
                         CompileQueryText(text, schema));
  return LintQuery(query, options);
}

}  // namespace sqlts
