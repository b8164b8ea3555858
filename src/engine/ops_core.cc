#include "engine/ops_core.h"

namespace sqlts {

void OpsCore::Mismatch() {
  const SearchTables& tables = plan_->tables;
  const int s = tables.shift[j];
  const int nx = tables.next[j];
  if (nx == 0) {
    // No overlap can succeed: restart just past the failing tuple.
    // (At this point i == start + cnt[j-1]: the failing tuple.)
    Reset(i + 1);
    return;
  }
  // A shift of 1 with a star first element needs care: the implication
  // graph refutes restarts at whole-group boundaries only, and shift
  // == 1 means node (2,1) stays viable — which (via the trivially-true
  // virtual node (1,1), p₁ ⇒ p₁) leaves every tuple *inside* the first
  // star group as a candidate start.  The count-rebasing below would
  // jump past all of them to the group-2 boundary, so restart one tuple
  // forward instead, exactly as the naive engine would.  (For shift ≥ 2
  // those interior restarts are refuted: node (2,1) unreachable is what
  // makes the shift exceed 1.)  Only anchored patterns need this: with
  // tuple-local predicates an interior restart replays the original
  // attempt's outcomes and fails at the same place, so the whole-group
  // jump stays sound.
  if (s == 1 && plan_->star[1] && cnt[1] > 1 && plan_->anchored_refs) {
    Reset(start + 1);
    return;
  }
  // The presatisfied flag belongs to the *failure* position j, not to
  // the resumption position nx.
  const bool presat = tables.presatisfied[j];
  // Rebase the attempt: new position t maps onto old position s + t.
  // In place: position t only reads old position s + t > t.
  const int m = plan_->m;
  const int64_t shifted = cnt[s];
  const int64_t old_start = start;
  i = old_start + cnt[s + nx - 1];
  start = old_start + shifted;
  for (int t = 1; t < nx; ++t) {
    cnt[t] = cnt[s + t] - shifted;
    spans[t - 1] = spans[s + t - 1];
  }
  cnt[nx] = cnt[nx - 1];
  for (int t = nx + 1; t <= m; ++t) cnt[t] = 0;
  for (int t = nx; t <= m; ++t) spans[t - 1] = GroupSpan{};
  j = nx;
  presat_pending = presat;
}

}  // namespace sqlts
