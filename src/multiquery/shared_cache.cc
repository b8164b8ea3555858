#include "multiquery/shared_cache.h"

namespace sqlts {

QueryConjuncts RegisterQueryConjuncts(const CompiledQuery& query,
                                      SharedPredicateCatalog* catalog) {
  QueryConjuncts out;
  out.elements.resize(query.elements.size() + 1);
  for (size_t i = 0; i < query.elements.size(); ++i) {
    for (const ExprPtr& c : query.elements[i].conjuncts) {
      QueryConjuncts::Conjunct entry;
      entry.expr = c;
      entry.shared_id = catalog->Register(c);
      out.elements[i + 1].push_back(std::move(entry));
    }
  }
  return out;
}

StatusOr<std::string> ScanGroupSignature(const Schema& schema,
                                         const CompiledQuery& query) {
  std::string sig = "c";
  for (const std::string& name : query.cluster_by) {
    SQLTS_ASSIGN_OR_RETURN(int col, schema.FindColumn(name));
    sig += ":" + std::to_string(col);
  }
  sig += "|s";
  for (const std::string& name : query.sequence_by) {
    SQLTS_ASSIGN_OR_RETURN(int col, schema.FindColumn(name));
    sig += ":" + std::to_string(col);
  }
  return sig;
}

SharedClusterCache::SharedClusterCache(const SharedPredicateCatalog* catalog,
                                       int64_t window)
    : catalog_(catalog), store_(window) {}

bool SharedClusterCache::Test(int pred_id, const EvalContext& ctx,
                              int64_t abs_pos,
                              MultiQueryTally* tally) {
  ++tally->shared_lookups;
  const int64_t live_from = abs_pos - ctx.pos;  // the caller's view base
  const int lane = static_cast<int>(abs_pos % kKernelBlock);
  VerdictStore::Block& b = store_.At(pred_id, abs_pos, live_from);
  if (b.Known(lane)) {
    ++tally->cache_hits;
    if (b.Inferred(lane)) ++tally->inferred_hits;
    return b.True(lane);
  }
  ++tally->shared_evals;
  const SharedPredicate& pred = catalog_->predicate(pred_id);
  // Only the queried lane counts as an eval; lanes a kernel fill adds
  // surface later as cache hits.
  uint64_t new_true[kKernelWords] = {};
  if (pred.kernel != nullptr) {
    store_.Fill(&b, *pred.kernel, *ctx.seq, ctx.pos, abs_pos, new_true);
  } else {
    const uint64_t bit = uint64_t{1} << (lane & 63);
    b.known[lane >> 6] |= bit;
    if (EvalPredicate(*pred.expr, ctx)) {
      b.true_bits[lane >> 6] |= bit;
      new_true[lane >> 6] = bit;
    }
  }
  const bool val = b.True(lane);  // read before seeding may move `b`
  // A TRUE verdict certifies every read value exists; predicates the
  // catalog proves implied (with reference subsets) are TRUE there too.
  for (int q : pred.implies) store_.Seed(q, abs_pos, live_from, new_true);
  return val;
}

bool MultiQueryEvaluator::Test(int j, const SequenceView& seq, int64_t pos,
                               const std::vector<GroupSpan>& spans,
                               int64_t abs_pos) {
  EvalContext ctx;
  ctx.seq = &seq;
  ctx.pos = pos;
  ctx.spans = &spans;
  for (const QueryConjuncts::Conjunct& c : conjuncts_->elements[j]) {
    bool sat;
    if (c.shared_id >= 0) {
      sat = cache_->Test(c.shared_id, ctx, abs_pos, &tally_);
    } else {
      ++tally_.private_evals;
      sat = EvalPredicate(*c.expr, ctx);
    }
    if (!sat) return false;
  }
  return true;
}

SharedEvalManager::SharedEvalManager(const Schema& schema,
                                     OracleOptions oracle, int64_t window)
    : catalog_(schema, oracle), window_(window) {}

SharedCacheSlot* SharedEvalManager::SlotFor(const std::string& encoded_key) {
  ts::MutexLock lock(mu_);
  std::unique_ptr<SharedCacheSlot>& slot = caches_[encoded_key];
  if (slot == nullptr) {
    slot = std::make_unique<SharedCacheSlot>(&catalog_, window_);
  }
  return slot.get();
}

void SharedEvalManager::ReleaseEpoch(int64_t epoch) {
  const std::string prefix = std::to_string(epoch) + '\x1f';
  ts::MutexLock lock(mu_);
  for (auto it = caches_.begin(); it != caches_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = caches_.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t SharedEvalManager::num_caches() const {
  ts::MutexLock lock(mu_);
  return static_cast<int64_t>(caches_.size());
}

}  // namespace sqlts
