#ifndef SQLTS_ENGINE_OPS_CORE_H_
#define SQLTS_ENGINE_OPS_CORE_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/governance.h"
#include "engine/match.h"
#include "pattern/compile.h"

namespace sqlts {

/// First set bit at position >= `from` in the candidate bitmap, or `n`
/// when none remains (missing trailing words read as all-clear).
inline int64_t NextCandidateStart(const std::vector<uint64_t>& words,
                                  int64_t from, int64_t n) {
  if (from < 0) from = 0;
  while (from < n) {
    const size_t w = static_cast<size_t>(from >> 6);
    if (w >= words.size()) return n;
    const uint64_t bits = words[w] >> (from & 63);
    if (bits != 0) {
      from += std::countr_zero(bits);
      return from < n ? from : n;
    }
    from = (from | 63) + 1;
  }
  return n;
}

/// Cheap governance polling for the search loops: cancellation is one
/// relaxed atomic load per call; the deadline clock is only consulted
/// every 256 calls.
class GovernancePoller {
 public:
  explicit GovernancePoller(const ExecGovernance* gov) : gov_(gov) {}

  bool ShouldStop() {
    if (gov_ == nullptr) return false;
    if (gov_->cancel.cancel_requested()) return true;
    return (++calls_ & 255) == 0 && gov_->has_deadline() &&
           std::chrono::steady_clock::now() >= gov_->deadline;
  }

 private:
  const ExecGovernance* gov_;
  uint64_t calls_ = 0;
};

/// The paper's OPS state machine (Sec 4.2.1 for star-free patterns,
/// Sec 5's counter-based generalization for star patterns), driven by
/// the compiled shift/next tables.  Batch and streaming search differ
/// only in when tuples become available: batch OpsSearch runs the core
/// over a fully buffered cluster and then closes it; the streaming
/// matcher advances it over whatever has arrived after every push and
/// closes it at end of stream.
///
/// Positions are whatever the driver counts in (view positions in
/// batch, absolute stream positions in streaming).  Element tests are
/// answered by the driver's `test(j, pos, spans)` functor — a template
/// parameter, so the hot loop makes no indirect call of its own — and
/// completed matches go to `on_match(spans)`, which returns false to
/// stop the search.
class OpsCore {
 public:
  /// `candidate_starts` (optional; must outlive the core) is the
  /// attempt-start prefilter of SearchOptions::candidate_starts over
  /// positions [0, candidates_end).
  explicit OpsCore(const PatternPlan* plan,
                   const std::vector<uint64_t>* candidate_starts = nullptr,
                   int64_t candidates_end = 0)
      : cnt(plan->m + 1, 0),
        spans(plan->m),
        plan_(plan),
        candidates_(candidate_starts),
        candidates_end_(candidates_end) {
    Reset(0);
  }

  // Attempt state.  `start` is the input position of the attempt's
  // first tuple; `i` the cursor (next tuple to test); `j` the pattern
  // element under test (1-based; j > m means matched); `cnt[t]` the
  // cumulative number of tuples consumed by elements 1..t (the paper's
  // count array); `spans` the per-element input spans; `presat_pending`
  // that the next test is known satisfied (φ = 1 on the failure
  // position).  Public so the streaming matcher can checkpoint it.
  int64_t start = 0;
  int64_t i = 0;
  int j = 1;
  std::vector<int64_t> cnt;
  std::vector<GroupSpan> spans;
  bool presat_pending = false;

  /// Abandons the attempt and begins a fresh one at `new_start` (or at
  /// the next candidate start from there).
  void Reset(int64_t new_start) {
    if (candidates_ != nullptr) {
      // Attempts never begin at a position the prefilter refuted.  The
      // rebase path stays unfiltered: a retained-but-doomed start just
      // fails on its own, which is slower but equally correct.
      new_start =
          NextCandidateStart(*candidates_, new_start, candidates_end_);
    }
    start = new_start;
    i = new_start;
    j = 1;
    std::fill(cnt.begin(), cnt.end(), 0);
    std::fill(spans.begin(), spans.end(), GroupSpan{});
    presat_pending = false;
  }

  /// Runs the machine over the tuples before `end` and suspends when
  /// the cursor reaches it.  Returns false when stopped (governance, or
  /// `on_match` returned false), true when suspended.
  template <class Test, class OnMatch>
  bool Advance(int64_t end, GovernancePoller& poller, SearchStats& stats,
               Test&& test, OnMatch&& on_match) {
    const int m = plan_->m;
    const std::vector<bool>& star = plan_->star;
    while (true) {
      if (poller.ShouldStop()) return false;
      if (j > m) {
        if (!Emit(stats, on_match)) return false;
        continue;
      }
      if (i >= end) return true;

      bool sat;
      if (presat_pending) {
        // φ = 1 on the failing element: known satisfied, no test needed.
        sat = true;
        presat_pending = false;
        ++stats.presat_skips;
      } else {
        ++stats.evaluations;
        sat = test(j, i, std::as_const(spans));
      }

      if (sat) {
        if (cnt[j] == cnt[j - 1]) spans[j - 1].first = i;  // group opens
        ++cnt[j];
        spans[j - 1].last = i;
        ++i;
        if (!star[j]) {
          ++j;
          if (j <= m) cnt[j] = cnt[j - 1];
        }
        continue;
      }
      if (star[j] && cnt[j] > cnt[j - 1]) {
        // Star group already non-empty: close it; same tuple is
        // retested against the next element (Sec 5 runtime rule 1).
        ++j;
        if (j <= m) cnt[j] = cnt[j - 1];
        continue;
      }
      ++stats.jumps;
      Mismatch();
    }
  }

  /// End of input at `end`: advances to it, then — since the attempt
  /// gets no more input — lets an open star group on the last element
  /// complete a final match, and otherwise fails the attempt.  With a
  /// star in the pattern a later start can still complete inside the
  /// input (its star groups may consume fewer tuples), so the attempt
  /// restarts one tuple forward, exactly as the naive engine does.
  /// Star-free attempts consume one tuple per element, so any later
  /// start would run out even sooner; tuple-local patterns (no anchored
  /// refs) replay the same per-tuple outcomes and die at the end too:
  /// both stop.  `start` strictly increases, so this terminates.
  /// Returns false when stopped.
  template <class Test, class OnMatch>
  bool Close(int64_t end, GovernancePoller& poller, SearchStats& stats,
             Test&& test, OnMatch&& on_match) {
    const int m = plan_->m;
    while (Advance(end, poller, stats, test, on_match)) {
      if (j == m && plan_->star[m] && cnt[m] > cnt[m - 1]) {
        if (!Emit(stats, on_match)) return false;
      } else if (plan_->has_star && plan_->anchored_refs &&
                 start + 1 < end) {
        Reset(start + 1);
      } else {
        return true;
      }
    }
    return false;
  }

 private:
  /// Reports the completed attempt and resumes after its last tuple
  /// (left-maximality: no overlapping matches).
  template <class OnMatch>
  bool Emit(SearchStats& stats, OnMatch& on_match) {
    ++stats.matches;
    const int64_t resume = spans.back().last + 1;
    if (!on_match(std::as_const(spans))) return false;
    Reset(resume);
    return true;
  }

  /// Element j failed on tuple i: consult the compiled tables (Sec 5
  /// runtime rule 2) and rebase or restart the attempt.
  void Mismatch();

  const PatternPlan* plan_;  // not owned
  const std::vector<uint64_t>* candidates_;  // not owned; may be null
  int64_t candidates_end_;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_OPS_CORE_H_
