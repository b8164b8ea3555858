#include "multiquery/multi_stream.h"

#include <utility>

#include "engine/checkpoint.h"

namespace sqlts {
namespace {

/// Streaming memo horizon per predicate per cluster.  Attempts probe a
/// bounded window around the stream head, so a modest ring captures
/// virtually all cross-query re-tests; an evicted block only costs a
/// re-evaluation.
constexpr int64_t kStreamCacheWindow = 4096;

}  // namespace

StatusOr<std::unique_ptr<MultiStreamExecutor>> MultiStreamExecutor::Create(
    Schema schema, const ExecOptions& options) {
  return std::unique_ptr<MultiStreamExecutor>(
      new MultiStreamExecutor(std::move(schema), options));
}

StatusOr<int> MultiStreamExecutor::AddQuery(std::string_view query_text,
                                            RowCallback on_row,
                                            const ExecGovernance* governance) {
  ts::MutexLock lock(mu_);
  return AddQueryLocked(query_text, std::move(on_row), pushed_, governance);
}

Status MultiStreamExecutor::QuiesceGroupLocked(const std::string& sig) {
  // Shard workers of the group's live queries read the shared catalog
  // through their cluster caches; drain them before mutating it.  With
  // num_threads == 1 every Quiesce is a no-op.
  for (Registered& r : queries_) {
    if (r.exec == nullptr || r.group_sig != sig) continue;
    SQLTS_RETURN_IF_ERROR(r.exec->Quiesce());
  }
  return Status::OK();
}

StatusOr<int> MultiStreamExecutor::AddQueryLocked(
    std::string_view query_text, RowCallback on_row, int64_t epoch,
    const ExecGovernance* governance) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompileQueryText(query_text, schema_));
  SQLTS_ASSIGN_OR_RETURN(std::string sig,
                         ScanGroupSignature(schema_, compiled));
  SQLTS_RETURN_IF_ERROR(QuiesceGroupLocked(sig));
  std::shared_ptr<SharedEvalManager>& manager = groups_[sig];
  if (manager == nullptr) {
    manager = std::make_shared<SharedEvalManager>(
        schema_, options_.compile.oracle, kStreamCacheWindow);
  }
  QueryConjuncts conjuncts = manager->Register(compiled);
  ExecOptions query_options = options_;
  if (governance != nullptr) query_options.governance = *governance;
  query_options.shared_eval = std::make_shared<QuerySharedEvalFactory>(
      manager, std::move(conjuncts), epoch);
  SQLTS_ASSIGN_OR_RETURN(
      std::unique_ptr<StreamingQueryExecutor> exec,
      StreamingQueryExecutor::Create(query_text, schema_, std::move(on_row),
                                     query_options));
  Registered r;
  r.text = std::string(query_text);
  r.group_sig = std::move(sig);
  r.epoch = epoch;
  r.exec = std::move(exec);
  queries_.push_back(std::move(r));
  return static_cast<int>(queries_.size()) - 1;
}

Status MultiStreamExecutor::RemoveQuery(int id) {
  ts::MutexLock lock(mu_);
  if (id < 0 || id >= static_cast<int>(queries_.size())) {
    return Status::InvalidArgument("no query with id " + std::to_string(id));
  }
  if (queries_[id].exec == nullptr) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " already removed");
  }
  // Cancel: drop the matcher without Finish(), so no end-of-stream
  // matches are emitted.  The catalog keeps its registrations (stale
  // entries are harmless; a re-added identical query re-merges), but
  // the epoch-namespaced cluster caches are freed once their last
  // member leaves — evaluators hold raw pointers into them, so the
  // release is gated on the epoch refcount below.
  const std::string sig = queries_[id].group_sig;
  const int64_t epoch = queries_[id].epoch;
  // Destroying the executor joins its own shard workers, so after this
  // line nothing of query `id` can touch the shared caches.
  queries_[id].exec.reset();
  bool epoch_live = false;
  for (const Registered& r : queries_) {
    if (r.exec != nullptr && r.group_sig == sig && r.epoch == epoch) {
      epoch_live = true;
      break;
    }
  }
  if (!epoch_live) {
    auto it = groups_.find(sig);
    if (it != groups_.end()) it->second->ReleaseEpoch(epoch);
  }
  return Status::OK();
}

Status MultiStreamExecutor::Push(Row row) {
  ts::MutexLock lock(mu_);
  std::vector<QueryError> errors;
  Status st = PushLocked(std::move(row), &errors);
  if (!st.ok()) return st;
  return errors.empty() ? Status::OK() : errors.front().status;
}

Status MultiStreamExecutor::Push(Row row, std::vector<QueryError>* errors) {
  ts::MutexLock lock(mu_);
  return PushLocked(std::move(row), errors);
}

Status MultiStreamExecutor::PushLocked(Row row,
                                       std::vector<QueryError>* errors) {
  ++pushed_;
  for (size_t id = 0; id < queries_.size(); ++id) {
    Registered& r = queries_[id];
    if (r.exec == nullptr) continue;
    Status st = r.exec->Push(row);
    if (!st.ok() && errors != nullptr) {
      errors->push_back({static_cast<int>(id), std::move(st)});
    }
  }
  return Status::OK();
}

Status MultiStreamExecutor::Finish() {
  ts::MutexLock lock(mu_);
  Status first = Status::OK();
  for (Registered& r : queries_) {
    if (r.exec == nullptr) continue;
    Status st = r.exec->Finish();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status MultiStreamExecutor::Checkpoint(std::string* out) {
  ts::MutexLock lock(mu_);
  CheckpointWriter w;
  w.WriteU64(static_cast<uint64_t>(queries_.size()));
  for (Registered& r : queries_) {
    w.WriteString(r.text);
    w.WriteI64(r.epoch);
    w.WriteBool(r.exec != nullptr);
    if (r.exec != nullptr) {
      std::string sub;
      SQLTS_RETURN_IF_ERROR(r.exec->Checkpoint(&sub));
      w.WriteString(sub);
    }
  }
  w.WriteI64(pushed_);
  MultiQueryStats s = StatsLocked();
  w.WriteI64(s.shared_lookups);
  w.WriteI64(s.shared_evals);
  w.WriteI64(s.cache_hits);
  w.WriteI64(s.inferred_hits);
  w.WriteI64(s.private_evals);
  *out = w.Finalize();
  return Status::OK();
}

Status MultiStreamExecutor::Restore(std::string_view bytes,
                                    const CallbackResolver& resolver) {
  ts::MutexLock lock(mu_);
  if (!queries_.empty() || pushed_ != 0) {
    return Status::InvalidArgument(
        "Restore requires a freshly created multi-stream executor");
  }
  SQLTS_ASSIGN_OR_RETURN(std::string_view payload, OpenCheckpoint(bytes));
  CheckpointReader r(payload);
  SQLTS_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  for (uint64_t i = 0; i < count; ++i) {
    SQLTS_ASSIGN_OR_RETURN(std::string text, r.ReadString());
    SQLTS_ASSIGN_OR_RETURN(int64_t epoch, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(bool live, r.ReadBool());
    if (live) {
      SQLTS_ASSIGN_OR_RETURN(std::string sub, r.ReadString());
      // The original epoch carries over: restored matchers resume their
      // saved positions, so cache alignment is decided by where each
      // query originally joined the stream, not by the restore point.
      SQLTS_ASSIGN_OR_RETURN(
          int id,
          AddQueryLocked(text, resolver(static_cast<int>(i), text), epoch,
                         nullptr));
      SQLTS_RETURN_IF_ERROR(queries_[id].exec->Restore(sub));
    } else {
      // Keep ids dense: a removed query stays a tombstone after restore.
      Registered dead;
      dead.text = std::move(text);
      dead.epoch = epoch;
      queries_.push_back(std::move(dead));
    }
  }
  SQLTS_ASSIGN_OR_RETURN(pushed_, r.ReadI64());
  // Shared-cache counters restart at zero in the fresh managers; carry
  // the saved totals so stats() stays cumulative.  Subtract what the
  // re-registration above already re-counted (nothing — registration
  // touches only catalog stats, which rebuild deterministically).
  SQLTS_ASSIGN_OR_RETURN(baseline_.shared_lookups, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.shared_evals, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.cache_hits, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.inferred_hits, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.private_evals, r.ReadI64());
  return Status::OK();
}

MultiQueryStats MultiStreamExecutor::StatsLocked() const {
  MultiQueryStats s = baseline_;
  s.num_scan_groups = static_cast<int>(groups_.size());
  s.tuples_scanned = pushed_;
  for (const Registered& r : queries_) {
    if (r.exec != nullptr) ++s.num_queries;
  }
  for (const auto& entry : groups_) {
    s.AddCatalog(entry.second->catalog().stats());
    s.SnapshotCounters(entry.second->counters_ref());
  }
  return s;
}

MultiQueryStats MultiStreamExecutor::stats() const {
  ts::MutexLock lock(mu_);
  return StatsLocked();
}

int MultiStreamExecutor::num_queries() const {
  ts::MutexLock lock(mu_);
  int live = 0;
  for (const Registered& r : queries_) {
    if (r.exec != nullptr) ++live;
  }
  return live;
}

int64_t MultiStreamExecutor::rows_consumed() const {
  ts::MutexLock lock(mu_);
  return pushed_;
}

StatusOr<int64_t> MultiStreamExecutor::query_epoch(int id) const {
  ts::MutexLock lock(mu_);
  if (id < 0 || id >= static_cast<int>(queries_.size())) {
    return Status::InvalidArgument("no query with id " + std::to_string(id));
  }
  return queries_[id].epoch;
}

StatusOr<int64_t> MultiStreamExecutor::rows_emitted(int id) const {
  ts::MutexLock lock(mu_);
  if (id < 0 || id >= static_cast<int>(queries_.size()) ||
      queries_[id].exec == nullptr) {
    return Status::InvalidArgument("no live query with id " +
                                   std::to_string(id));
  }
  return queries_[id].exec->rows_emitted();
}

int64_t MultiStreamExecutor::num_epoch_caches() const {
  ts::MutexLock lock(mu_);
  int64_t total = 0;
  for (const auto& entry : groups_) total += entry.second->num_caches();
  return total;
}

}  // namespace sqlts
