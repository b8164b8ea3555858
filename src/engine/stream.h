#ifndef SQLTS_ENGINE_STREAM_H_
#define SQLTS_ENGINE_STREAM_H_

#include <functional>
#include <vector>

#include "common/governance.h"
#include "common/statusor.h"
#include "engine/checkpoint.h"
#include "engine/match.h"
#include "engine/ops_core.h"
#include "engine/shared_eval.h"
#include "pattern/compile.h"
#include "storage/table.h"

namespace sqlts {

/// OK when `plan` can run on a stream; InvalidArgument when a WHERE
/// predicate looks *ahead* (positive relative offset).
Status CheckStreamable(const PatternPlan& plan);

/// Push-based incremental OPS matching over a tuple stream — the
/// deployment mode the paper targets ("the runtime execution of SQL-TS
/// is achieved via user-defined aggregates … on input streams", Sec 6).
///
/// Tuples arrive one at a time via Push(); completed matches are
/// reported through the callback with positions counted from the first
/// pushed tuple.  The matcher feeds the one OPS core (engine/ops_core.h)
/// whatever has arrived so far, so it shares batch OpsSearch's tables,
/// rebasing and greedy/left-maximal semantics, and is property-tested to
/// agree with it on every prefix.
///
/// Memory is bounded by the active attempt: tuples no attempt can reach
/// any more (before `start + plan.min_offset`, which covers the WHERE
/// predicates and the SELECT list) are evicted from the internal
/// buffer.  When an ExecGovernance is supplied, Push additionally
/// enforces buffered-tuple/byte budgets (kResourceExhausted), a
/// deadline (kDeadlineExceeded), and cooperative cancellation
/// (kCancelled, polled inside the advance loop) — so a pattern that can
/// never complete degrades into a typed error instead of unbounded
/// buffer growth.
///
/// All live matcher state (buffered tuples, attempt position, star
/// counters, spans, stream position, statistics) can be serialized with
/// Checkpoint() and reinstated on a freshly created matcher with
/// RestoreState(); a restored matcher fed the remaining tuples produces
/// bit-identical callbacks and stats to an uninterrupted run.
class OpsStreamMatcher {
 public:
  /// Called for each completed match.  `match` spans use absolute
  /// stream positions; `view` exposes the currently buffered tuples at
  /// positions shifted by `base` (absolute position = view position +
  /// base) — everything a match's SELECT list can reference is still
  /// buffered at callback time.  The view is only valid during the
  /// callback.
  using MatchCallback = std::function<void(
      const Match& match, const SequenceView& view, int64_t base)>;

  /// Builds a streaming matcher for `plan` over rows of `schema`.
  /// Fails as CheckStreamable does on lookahead predicates.
  /// `governance` (optional; must outlive the matcher) supplies
  /// budgets/deadline/cancellation; `ledger` (optional, shared across
  /// the query's matchers) is where buffered tuples/bytes are accounted
  /// so multi-cluster queries enforce one per-query budget.
  /// `evaluator` (optional; must outlive the matcher) delegates element
  /// predicate tests for shared multi-query evaluation — it is
  /// answer-preserving, so matches and stats are unchanged (see
  /// engine/shared_eval.h).
  static StatusOr<OpsStreamMatcher> Create(
      const PatternPlan* plan, Schema schema, MatchCallback on_match,
      const ExecGovernance* governance = nullptr,
      ResourceLedger* ledger = nullptr,
      ElementEvaluator* evaluator = nullptr);

  /// Processes the next tuple of the stream.  Fails with the typed
  /// governance error when the search stops on cancellation or the
  /// deadline.
  Status Push(Row row);

  /// Signals end-of-stream: a trailing star group that is already
  /// non-empty closes and may complete a final match.  Stops early on
  /// cancellation or the deadline, which the caller re-checks.
  void Finish();

  /// Serializes all live state (stream position, attempt state, star
  /// counters, buffered tuples, stats) into `writer`.
  void Checkpoint(CheckpointWriter* writer) const;

  /// Reinstates state captured by Checkpoint() on a freshly created
  /// matcher (same plan and schema; no tuples pushed yet).  Fails with
  /// IoError/InvalidArgument on corrupted or mismatched payloads.
  Status RestoreState(CheckpointReader* reader);

  const SearchStats& stats() const { return stats_; }
  /// Number of tuples currently buffered (bounded-memory check).
  int64_t buffered() const { return buffer_.num_rows(); }
  /// Estimated bytes held by the buffered tuples.
  int64_t buffered_bytes() const { return buffered_bytes_; }
  /// High-water marks of the two gauges above over the matcher's life.
  int64_t peak_buffered() const { return peak_buffered_; }
  int64_t peak_buffered_bytes() const { return peak_buffered_bytes_; }
  /// Total tuples pushed so far.
  int64_t pushed() const { return pushed_; }

 private:
  OpsStreamMatcher(const PatternPlan* plan, Schema schema,
                   MatchCallback on_match, const ExecGovernance* governance,
                   ResourceLedger* ledger, ElementEvaluator* evaluator);

  /// Feeds the core every buffered-but-unprocessed tuple; with `close`,
  /// then applies the end-of-input rule.  Returns false when the search
  /// stopped on governance (state stays consistent).
  bool Run(bool close);
  /// Drops buffer rows that no future test or SELECT can reach.
  void MaybeEvict();
  /// Applies a buffered tuples/bytes delta to the gauges and ledger.
  void Account(int64_t tuples, int64_t bytes);
  /// Enforces the configured buffer budgets against the ledger (or the
  /// local gauges when no ledger is shared).
  Status CheckBudget() const;

  const PatternPlan* plan_;
  Schema schema_;
  MatchCallback on_match_;
  const ExecGovernance* gov_;  // not owned; may be null
  ResourceLedger* ledger_;     // not owned; may be null
  ElementEvaluator* evaluator_ = nullptr;  // not owned; may be null

  Table buffer_;
  /// Identity row index into buffer_, grown incrementally so Run() can
  /// build a SequenceView without an O(buffer) copy per push.
  std::vector<int64_t> view_rows_;
  int64_t base_ = 0;    // absolute position of buffer_ row 0
  int64_t pushed_ = 0;  // total tuples seen
  int64_t buffered_bytes_ = 0;
  int64_t peak_buffered_ = 0;
  int64_t peak_buffered_bytes_ = 0;

  OpsCore core_;  // attempt state, in absolute positions
  SearchStats stats_;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_STREAM_H_
