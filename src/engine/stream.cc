#include "engine/stream.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/eval.h"
#include "storage/sequence.h"

namespace sqlts {

Status CheckStreamable(const PatternPlan& plan) {
  if (plan.looks_ahead) {
    return Status::InvalidArgument(
        "streaming match requires predicates without lookahead "
        "(positive previous/next offsets)");
  }
  return Status::OK();
}

StatusOr<OpsStreamMatcher> OpsStreamMatcher::Create(
    const PatternPlan* plan, Schema schema, MatchCallback on_match,
    const ExecGovernance* governance, ResourceLedger* ledger,
    ElementEvaluator* evaluator) {
  SQLTS_CHECK(plan != nullptr);
  SQLTS_RETURN_IF_ERROR(CheckStreamable(*plan));
  return OpsStreamMatcher(plan, std::move(schema), std::move(on_match),
                          governance, ledger, evaluator);
}

OpsStreamMatcher::OpsStreamMatcher(const PatternPlan* plan, Schema schema,
                                   MatchCallback on_match,
                                   const ExecGovernance* governance,
                                   ResourceLedger* ledger,
                                   ElementEvaluator* evaluator)
    : plan_(plan),
      schema_(schema),
      on_match_(std::move(on_match)),
      gov_(governance),
      ledger_(ledger),
      evaluator_(evaluator),
      buffer_(schema),
      core_(plan) {}

void OpsStreamMatcher::Account(int64_t tuples, int64_t bytes) {
  buffered_bytes_ += bytes;
  peak_buffered_ = std::max(peak_buffered_, buffer_.num_rows());
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes_);
  if (ledger_ != nullptr) {
    ledger_->buffered_tuples.fetch_add(tuples, std::memory_order_relaxed);
    ledger_->buffered_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

Status OpsStreamMatcher::CheckBudget() const {
  if (gov_ == nullptr) return Status::OK();
  const int64_t tuples =
      ledger_ != nullptr
          ? ledger_->buffered_tuples.load(std::memory_order_relaxed)
          : buffer_.num_rows();
  const int64_t bytes =
      ledger_ != nullptr
          ? ledger_->buffered_bytes.load(std::memory_order_relaxed)
          : buffered_bytes_;
  if (gov_->max_buffered_tuples > 0 && tuples > gov_->max_buffered_tuples) {
    return Status::ResourceExhausted(
        "streaming buffer budget exceeded: " + std::to_string(tuples) +
        " tuples held live (budget " +
        std::to_string(gov_->max_buffered_tuples) +
        "); the active pattern attempt cannot release them");
  }
  if (gov_->max_buffered_bytes > 0 && bytes > gov_->max_buffered_bytes) {
    return Status::ResourceExhausted(
        "streaming byte budget exceeded: ~" + std::to_string(bytes) +
        " bytes held live (budget " +
        std::to_string(gov_->max_buffered_bytes) + ")");
  }
  return Status::OK();
}

Status OpsStreamMatcher::Push(Row row) {
  if (gov_ != nullptr) {
    SQLTS_RETURN_IF_ERROR(gov_->Check());
    SQLTS_RETURN_IF_ERROR(gov_->Fault("matcher.append"));
  }
  const int64_t row_bytes = EstimateRowBytes(row);
  SQLTS_RETURN_IF_ERROR(buffer_.AppendRow(std::move(row)));
  view_rows_.push_back(buffer_.num_rows() - 1);
  ++pushed_;
  Account(+1, row_bytes);
  // A stop leaves consistent state; only governance stops the core.
  if (!Run(/*close=*/false)) return gov_->Check();
  MaybeEvict();
  return CheckBudget();
}

void OpsStreamMatcher::Finish() { Run(/*close=*/true); }

bool OpsStreamMatcher::Run(bool close) {
  // A buffer-relative view (borrowing the incrementally-grown index)
  // and span translation for the evaluator.
  const SequenceView view(&buffer_, &view_rows_);
  std::vector<GroupSpan> rel_spans(plan_->m);
  auto test = [&](int j, int64_t pos, const std::vector<GroupSpan>& spans) {
    const ExprPtr& pred = plan_->predicates[j];
    if (pred == nullptr) return true;
    for (size_t e = 0; e < spans.size(); ++e) {
      rel_spans[e] = spans[e].valid() ? GroupSpan{spans[e].first - base_,
                                                  spans[e].last - base_}
                                      : GroupSpan{};
    }
    if (evaluator_ != nullptr) {
      // The buffer view is positioned at pos - base_, but the tuple's
      // stable identity across queries (whose buffers may have evicted
      // different prefixes) is its absolute position.
      return evaluator_->Test(j, view, pos - base_, rel_spans,
                              /*abs_pos=*/pos);
    }
    EvalContext ctx;
    ctx.seq = &view;
    ctx.pos = pos - base_;
    ctx.spans = &rel_spans;
    return EvalPredicate(*pred, ctx);
  };
  auto on_match = [&](const std::vector<GroupSpan>& spans) {
    if (on_match_) on_match_(Match{spans}, view, base_);
    return true;
  };
  GovernancePoller poller(gov_);
  return close ? core_.Close(pushed_, poller, stats_, test, on_match)
               : core_.Advance(pushed_, poller, stats_, test, on_match);
}

void OpsStreamMatcher::MaybeEvict() {
  // Everything before the earliest position any test of the active
  // attempt, its anchored references or the SELECT list of a match it
  // completes can reach is dead.
  const int64_t reachable_from = core_.start + plan_->min_offset;
  const int64_t waste = reachable_from - base_;
  if (waste < 4096 || waste < buffer_.num_rows() / 2) return;
  int64_t freed_bytes = 0;
  for (int64_t r = 0; r < waste; ++r) {
    freed_bytes += EstimateRowBytes(buffer_.GetRow(r));
  }
  Table compacted(schema_);
  for (int64_t r = waste; r < buffer_.num_rows(); ++r) {
    SQLTS_CHECK_OK(compacted.AppendRow(buffer_.GetRow(r)));
  }
  buffer_ = std::move(compacted);
  view_rows_.resize(buffer_.num_rows());
  for (int64_t r = 0; r < buffer_.num_rows(); ++r) view_rows_[r] = r;
  base_ += waste;
  Account(-waste, -freed_bytes);
}

void OpsStreamMatcher::Checkpoint(CheckpointWriter* writer) const {
  // Plan fingerprint first, so restoring against a different pattern
  // shape fails loudly instead of resuming into inconsistent state.
  writer->WriteU32(static_cast<uint32_t>(plan_->m));
  writer->WriteI64(plan_->min_offset);
  writer->WriteI64(base_);
  writer->WriteI64(pushed_);
  writer->WriteI64(core_.start);
  writer->WriteI64(core_.i);
  writer->WriteU32(static_cast<uint32_t>(core_.j));
  writer->WriteBool(core_.presat_pending);
  writer->WriteU32(static_cast<uint32_t>(core_.cnt.size()));
  for (int64_t c : core_.cnt) writer->WriteI64(c);
  writer->WriteU32(static_cast<uint32_t>(core_.spans.size()));
  for (const GroupSpan& s : core_.spans) {
    writer->WriteI64(s.first);
    writer->WriteI64(s.last);
  }
  writer->WriteI64(stats_.evaluations);
  writer->WriteI64(stats_.presat_skips);
  writer->WriteI64(stats_.jumps);
  writer->WriteI64(stats_.matches);
  writer->WriteU64(static_cast<uint64_t>(buffer_.num_rows()));
  for (int64_t r = 0; r < buffer_.num_rows(); ++r) {
    writer->WriteRow(buffer_.GetRow(r));
  }
}

Status OpsStreamMatcher::RestoreState(CheckpointReader* reader) {
  if (pushed_ != 0) {
    return Status::InvalidArgument(
        "RestoreState requires a freshly created matcher");
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t m, reader->ReadU32());
  if (static_cast<int>(m) != plan_->m) {
    return Status::InvalidArgument(
        "checkpoint pattern has " + std::to_string(m) +
        " elements, plan has " + std::to_string(plan_->m));
  }
  SQLTS_ASSIGN_OR_RETURN(int64_t min_offset, reader->ReadI64());
  if (min_offset != plan_->min_offset) {
    return Status::InvalidArgument(
        "checkpoint predicate window disagrees with the compiled plan");
  }
  SQLTS_ASSIGN_OR_RETURN(base_, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(pushed_, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(core_.start, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(core_.i, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(uint32_t j, reader->ReadU32());
  core_.j = static_cast<int>(j);
  SQLTS_ASSIGN_OR_RETURN(core_.presat_pending, reader->ReadBool());
  SQLTS_ASSIGN_OR_RETURN(uint32_t cnt_size, reader->ReadU32());
  if (cnt_size != core_.cnt.size()) {
    return Status::IoError("checkpoint counter array size mismatch");
  }
  for (int64_t& c : core_.cnt) {
    SQLTS_ASSIGN_OR_RETURN(c, reader->ReadI64());
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t span_count, reader->ReadU32());
  if (span_count != core_.spans.size()) {
    return Status::IoError("checkpoint span array size mismatch");
  }
  for (GroupSpan& s : core_.spans) {
    SQLTS_ASSIGN_OR_RETURN(s.first, reader->ReadI64());
    SQLTS_ASSIGN_OR_RETURN(s.last, reader->ReadI64());
  }
  SQLTS_ASSIGN_OR_RETURN(stats_.evaluations, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(stats_.presat_skips, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(stats_.jumps, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(stats_.matches, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
  for (uint64_t r = 0; r < rows; ++r) {
    SQLTS_ASSIGN_OR_RETURN(Row row, reader->ReadRow());
    const int64_t row_bytes = EstimateRowBytes(row);
    SQLTS_RETURN_IF_ERROR(buffer_.AppendRow(std::move(row)));
    view_rows_.push_back(buffer_.num_rows() - 1);
    Account(+1, row_bytes);
  }
  return Status::OK();
}

}  // namespace sqlts
