#ifndef SQLTS_ENGINE_STREAM_EXECUTOR_H_
#define SQLTS_ENGINE_STREAM_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/governance.h"
#include "common/thread_annotations.h"
#include "common/statusor.h"
#include "engine/checkpoint.h"
#include "engine/executor.h"
#include "engine/shard_pool.h"
#include "engine/stream.h"
#include "engine/vectorized_eval.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"

namespace sqlts {

/// End-to-end streaming SQL-TS execution: tuples arrive one at a time
/// (interleaved across clusters), each is routed to its CLUSTER BY
/// group's incremental OPS matcher, and every completed match is
/// projected through the SELECT list and delivered as an output row —
/// the paper's "user-defined aggregate over a stream" deployment with
/// the full language on top.
///
/// Execution is sharded when ExecOptions::num_threads > 1: clusters are
/// hash-partitioned across a fixed ShardPool, each shard owning its own
/// matcher map and bounded input queue, with matcher state fully
/// private per cluster.  In that mode output rows are buffered and
/// delivered during Finish() in exactly the order the single-threaded
/// path would have emitted them (by the push that completed each match,
/// then end-of-stream matches in encoded-key order), so results are
/// deterministic and identical for every thread count.  num_threads = 1
/// keeps the classic immediate-emission path, bit-identical to the
/// pre-shard implementation.
///
/// Fault tolerance (see docs/OPERATIONS.md):
///  - ExecOptions::governance supplies per-query buffered-tuple/byte
///    budgets, a deadline, cooperative cancellation, and the
///    malformed-input policy (fail fast vs skip-and-count).
///  - Checkpoint() serializes all live state into the versioned binary
///    container of engine/checkpoint.h; Restore() on a freshly created
///    executor reinstates it.  A restored executor fed the remaining
///    tuples produces bit-identical output and stats to an
///    uninterrupted run, at any thread count on either side.
///
/// Requirements: tuples must arrive in non-decreasing SEQUENCE BY order
/// *within each cluster* (a streaming engine cannot sort); violations
/// of the full SEQUENCE BY tuple are rejected.  Predicates must not
/// look ahead (see OpsStreamMatcher).
class StreamingQueryExecutor {
 public:
  /// Receives one projected output row per match.  Invoked on the
  /// calling thread: during Push()/Finish() when num_threads == 1,
  /// during Finish() and Checkpoint() only when num_threads > 1.
  using RowCallback = std::function<void(const Row&)>;

  /// Parses and compiles `query_text` against `schema`.  Only
  /// options.compile, options.num_threads, options.shard_queue_capacity
  /// and options.governance apply to streaming execution.
  static StatusOr<std::unique_ptr<StreamingQueryExecutor>> Create(
      std::string_view query_text, const Schema& schema,
      RowCallback on_row, const ExecOptions& options = {});

  ~StreamingQueryExecutor();

  /// Processes the next stream tuple.  With num_threads > 1 this only
  /// routes and enqueues (blocking when the owning shard's queue is
  /// full); matcher errors surface from Finish().
  ///
  /// Governance (when configured) is enforced here: kCancelled /
  /// kDeadlineExceeded / kResourceExhausted surface within one Push.
  /// Malformed rows (arity or type mismatch, SEQUENCE BY regressions)
  /// follow the BadInputPolicy: fail fast with a typed error, or drop
  /// the row and count it (see rows_skipped()).
  Status Push(Row row);

  /// Signals end-of-stream: the shard barrier drains every queue,
  /// trailing star groups close, final matches are emitted, and (in
  /// sharded mode) buffered rows are delivered in deterministic order.
  /// Returns the first error any shard encountered — including
  /// exceptions caught at the worker boundary — or the typed governance
  /// error when cancellation or the deadline triggered before or during
  /// the close-out, which never reports a partial result as OK.
  /// Idempotent.
  Status Finish();

  /// Quiesces sharded execution without closing it: blocks until every
  /// shard queue is empty and every worker is idle, making all
  /// worker-side state visible to the caller, then surfaces the first
  /// worker error (if any).  A no-op when num_threads == 1.  Used by
  /// MultiStreamExecutor to serialize shared-catalog mutation
  /// (AddQuery/RemoveQuery) against in-flight shard workers that read
  /// the catalog through their cluster caches.
  Status Quiesce();

  /// Serializes all live state — per-cluster buffered tuples and
  /// attempt state, routing, sequence-order watermarks, stream
  /// position, skip counters, emission tags — into the versioned
  /// checkpoint container.  Quiesces the shard pool first and flushes
  /// any buffered output rows to the callback (they are "before" the
  /// checkpoint, and a resumed run must not re-emit them), so the
  /// produced bytes are identical for every thread count.  Fails if a
  /// shard has already failed.
  Status Checkpoint(std::string* out);

  /// Reinstates state captured by Checkpoint() on a freshly created
  /// executor for the same query text and input schema (thread count
  /// may differ).  Fails with IoError/InvalidArgument on corrupted or
  /// mismatched checkpoints.
  Status Restore(std::string_view bytes);

  /// Aggregated matcher statistics across all clusters.  With
  /// num_threads > 1 this is only meaningful after Finish().
  SearchStats stats() const;

  /// Per-shard counters (tuples routed, clusters owned, matcher stats,
  /// queue high-water marks, buffering peaks, skipped rows).  Populated
  /// by Finish(); one entry per shard (a single entry when
  /// num_threads == 1).
  const std::vector<ShardStats>& shard_stats() const {
    return final_shard_stats_;
  }

  /// Total tuples offered to Push() so far, including skipped ones —
  /// the stream position a resumed producer should continue from.
  int64_t rows_consumed() const { return consumed_; }
  /// Output watermark: rows delivered to the callback so far, in the
  /// deterministic emission order.  Persisted in checkpoints (after the
  /// flush, so it is identical at every thread count) and reinstated by
  /// Restore() — the k-th delivered row of a resumed run is bit-identical
  /// to the k-th of an uninterrupted one, so a consumer that resumes
  /// from a checkpoint can deduplicate replayed output by sequence
  /// number.
  int64_t rows_emitted() const { return rows_emitted_; }
  /// Malformed rows dropped under BadInputPolicy::kSkipAndCount.
  int64_t rows_skipped() const { return rows_skipped_; }

  int num_clusters() const { return static_cast<int>(routes_.size()); }
  const Schema& output_schema() const { return query_.output_schema; }

 private:
  /// Router-side cluster bookkeeping; touched only by the Push caller.
  struct RouteInfo {
    uint64_t ordinal = 0;        // dense, in first-appearance order
    int shard = 0;
    bool accepted = true;        // cluster filter verdict (first tuple)
    std::vector<Value> last_seq_key;  // full SEQUENCE BY tuple
    bool has_last = false;
  };

  /// Matcher state owned by exactly one shard worker.
  struct ClusterState {
    /// Shared-evaluation delegate the matcher points at (multi-query
    /// mode only); owned here, declared before `matcher` so it outlives
    /// it on destruction.
    std::unique_ptr<ElementEvaluator> evaluator;
    std::unique_ptr<OpsStreamMatcher> matcher;
    uint64_t emit_seq = 0;  // per-cluster emission counter
  };

  /// A buffered output row with its deterministic merge position.
  struct TaggedRow {
    uint64_t tag;   // push (or finish) event that completed the match
    uint64_t seq;   // per-cluster emission counter at that event
    Row row;
  };

  /// Everything one shard worker owns (index = shard id; the vector is
  /// sized before workers start and never resized).
  struct ShardState {
    std::map<uint64_t, ClusterState> clusters;  // keyed by ordinal
    std::vector<TaggedRow> out;   // sharded mode: buffered emissions
    Status error = Status::OK();  // first matcher error, if any
    uint64_t current_tag = 0;     // tag of the task being processed
    int64_t processed = 0;        // tasks consumed
  };

  StreamingQueryExecutor(CompiledQuery query, PatternPlan plan,
                         RowCallback on_row, const ExecOptions& options);

  /// Looks up (or creates) the routing entry for `row`'s cluster.
  StatusOr<RouteInfo*> RouteFor(const Row& row);
  /// Rejects rows that regress on the full SEQUENCE BY tuple under
  /// CompareKeyCells, the order batch sorts by (NULL keys first).
  Status CheckSequenceOrder(const Row& row, RouteInfo* info);
  /// Applies the BadInputPolicy to a malformed-row verdict: fail fast
  /// with `why`, or count the drop and return OK.
  Status HandleBadInput(Status why);
  /// Builds a cluster matcher wired to this executor's governance,
  /// ledger, emission path, and (in multi-query mode) a shared
  /// evaluator for the cluster; fills `cs`.
  Status MakeMatcher(int shard, uint64_t ordinal, ClusterState* cs);
  /// Consumes one routed tuple on its owning shard.
  Status ProcessTask(int shard, ShardPool::Task task);
  /// Match callback: projects the SELECT list and emits or buffers.
  void EmitRow(int shard, uint64_t ordinal, const Match& match,
               const SequenceView& view, int64_t base);
  /// Delivers every buffered TaggedRow in (tag, seq) order and clears
  /// the buffers.  Only meaningful when the pool is quiescent.
  void FlushBufferedRows();

  CompiledQuery query_;
  PatternPlan plan_;
  std::string query_text_;  // verbatim, for checkpoint identity
  RowCallback on_row_;
  int num_threads_;
  ExecGovernance governance_;
  /// Multi-query shared-evaluation factory (may be null).
  std::shared_ptr<ElementEvaluatorFactory> shared_eval_;
  /// Vectorized predicate tier (null when disabled, when shared_eval_
  /// takes precedence, or when no conjunct is vectorizable).  Immutable
  /// after construction; shard workers only call the const factory.
  std::unique_ptr<VectorizedPlanEval> vec_plan_;
  /// Router-populated ordinal → encoded cluster key, read once by a
  /// shard worker when it creates that cluster's matcher (multi-query
  /// mode only; guarded by the mutex because the router may be
  /// inserting a new cluster while a worker instantiates another).
  ts::Mutex ordinal_keys_mu_;
  std::unordered_map<uint64_t, std::string> ordinal_keys_
      GUARDED_BY(ordinal_keys_mu_);
  ResourceLedger ledger_;  // per-query buffered tuples/bytes
  std::vector<int> cluster_cols_;
  std::vector<int> sequence_cols_;
  std::map<std::string, RouteInfo> routes_;  // keyed by encoded key
  std::vector<std::unique_ptr<ShardState>> shards_;
  uint64_t push_tag_ = 0;  // global push counter (merge tag source)
  int64_t consumed_ = 0;   // tuples offered to Push, incl. skipped
  int64_t rows_skipped_ = 0;
  int64_t rows_emitted_ = 0;  // rows delivered to on_row_ (watermark)
  bool finished_ = false;
  Status final_status_ = Status::OK();
  SearchStats final_stats_;
  std::vector<ShardStats> final_shard_stats_;
  /// Declared last: its destructor joins workers that reference the
  /// members above.
  std::unique_ptr<ShardPool> pool_;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_STREAM_EXECUTOR_H_
