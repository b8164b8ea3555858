#include "engine/stream_executor.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "analysis/linter.h"
#include "storage/sequence.h"

namespace sqlts {

StatusOr<std::unique_ptr<StreamingQueryExecutor>>
StreamingQueryExecutor::Create(std::string_view query_text,
                               const Schema& schema, RowCallback on_row,
                               const ExecOptions& options) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query,
                         CompileQueryText(query_text, schema));
  SQLTS_RETURN_IF_ERROR(RefuseProvablyEmpty(query, options.compile));
  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                         CompilePattern(query, options.compile));
  SQLTS_RETURN_IF_ERROR(CheckStreamable(plan));
  auto exec = std::unique_ptr<StreamingQueryExecutor>(
      new StreamingQueryExecutor(std::move(query), std::move(plan),
                                 std::move(on_row), options));
  exec->query_text_ = std::string(query_text);
  for (const std::string& c : exec->query_.cluster_by) {
    SQLTS_ASSIGN_OR_RETURN(int idx, schema.FindColumn(c));
    exec->cluster_cols_.push_back(idx);
  }
  for (const std::string& c : exec->query_.sequence_by) {
    SQLTS_ASSIGN_OR_RETURN(int idx, schema.FindColumn(c));
    exec->sequence_cols_.push_back(idx);
  }
  return exec;
}

StreamingQueryExecutor::StreamingQueryExecutor(CompiledQuery query,
                                               PatternPlan plan,
                                               RowCallback on_row,
                                               const ExecOptions& options)
    : query_(std::move(query)),
      plan_(std::move(plan)),
      on_row_(std::move(on_row)),
      num_threads_(std::max(1, options.num_threads)),
      governance_(options.governance),
      shared_eval_(options.shared_eval) {
  if (options.vectorize && shared_eval_ == nullptr) {
    vec_plan_ = VectorizedPlanEval::Create(plan_, query_.input_schema);
  }
  shards_.reserve(num_threads_);
  for (int s = 0; s < num_threads_; ++s) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ShardPool>(
        num_threads_, options.shard_queue_capacity,
        [this](int shard, ShardPool::Task&& task) {
          (void)ProcessTask(shard, std::move(task));
        });
  }
}

StreamingQueryExecutor::~StreamingQueryExecutor() {
  if (pool_ != nullptr) pool_->Finish();
}

StatusOr<StreamingQueryExecutor::RouteInfo*>
StreamingQueryExecutor::RouteFor(const Row& row) {
  std::string key = EncodeClusterKey(query_.input_schema, row, cluster_cols_);
  auto it = routes_.find(key);
  if (it != routes_.end()) return &it->second;

  RouteInfo info;
  info.ordinal = static_cast<uint64_t>(routes_.size());
  info.shard = pool_ != nullptr ? pool_->ShardFor(key) : 0;
  // Cluster filters are constant per cluster: evaluate them on this
  // first tuple.
  SQLTS_ASSIGN_OR_RETURN(info.accepted, ClusterAccepted(query_, row));
  if (shared_eval_ != nullptr) {
    ts::MutexLock lock(ordinal_keys_mu_);
    ordinal_keys_.emplace(info.ordinal, key);
  }
  auto [pos, inserted] = routes_.emplace(std::move(key), std::move(info));
  SQLTS_CHECK(inserted);
  return &pos->second;
}

Status StreamingQueryExecutor::CheckSequenceOrder(const Row& row,
                                                  RouteInfo* info) {
  if (sequence_cols_.empty()) return Status::OK();
  if (info->has_last) {
    // Lexicographic over the full SEQUENCE BY tuple, in the order
    // ClusteredSequence::Build sorts by: a NULL after a non-NULL key
    // regresses like any other out-of-order key.
    for (size_t k = 0; k < sequence_cols_.size(); ++k) {
      const int col = sequence_cols_[k];
      const int cmp = CompareKeyCells(query_.input_schema.column(col).type,
                                      row[col], info->last_seq_key[k]);
      if (cmp < 0) {
        return Status::InvalidArgument(
            "stream tuple out of SEQUENCE BY order within its cluster");
      }
      if (cmp > 0) break;
    }
  }
  info->last_seq_key.clear();
  for (int c : sequence_cols_) info->last_seq_key.push_back(row[c]);
  info->has_last = true;
  return Status::OK();
}

Status StreamingQueryExecutor::HandleBadInput(Status why) {
  if (governance_.bad_input == BadInputPolicy::kSkipAndCount) {
    ++rows_skipped_;
    return Status::OK();
  }
  return why;
}

Status StreamingQueryExecutor::Push(Row row) {
  if (finished_) {
    return Status::InvalidArgument("Push after Finish");
  }
  SQLTS_RETURN_IF_ERROR(governance_.Check());
  SQLTS_RETURN_IF_ERROR(governance_.Fault("stream.push"));
  ++consumed_;
  // Checked router-side so a bad row is rejected (or skipped) before it
  // can poison a worker's matcher.
  Status shape = CheckRow(query_.input_schema, row);
  if (!shape.ok()) return HandleBadInput(std::move(shape));
  SQLTS_ASSIGN_OR_RETURN(RouteInfo * info, RouteFor(row));
  if (!info->accepted) return Status::OK();
  Status order = CheckSequenceOrder(row, info);
  if (!order.ok()) return HandleBadInput(std::move(order));
  ++push_tag_;
  ShardPool::Task task{std::move(row), info->ordinal, push_tag_};
  if (pool_ != nullptr) {
    SQLTS_RETURN_IF_ERROR(governance_.Fault("shard.enqueue"));
    pool_->Push(info->shard, std::move(task));
    return Status::OK();
  }
  return ProcessTask(0, std::move(task));
}

Status StreamingQueryExecutor::MakeMatcher(int shard, uint64_t ordinal,
                                           ClusterState* cs) {
  if (shared_eval_ != nullptr) {
    std::string key;
    {
      ts::MutexLock lock(ordinal_keys_mu_);
      auto it = ordinal_keys_.find(ordinal);
      SQLTS_CHECK(it != ordinal_keys_.end());
      key = it->second;
    }
    cs->evaluator = shared_eval_->MakeEvaluator(key);
  } else if (vec_plan_ != nullptr) {
    cs->evaluator = vec_plan_->MakeEvaluator();
  }
  auto matcher = OpsStreamMatcher::Create(
      &plan_, query_.input_schema,
      [this, shard, ordinal](const Match& m, const SequenceView& v,
                             int64_t base) {
        EmitRow(shard, ordinal, m, v, base);
      },
      &governance_, &ledger_, cs->evaluator.get());
  if (!matcher.ok()) return matcher.status();
  cs->matcher = std::make_unique<OpsStreamMatcher>(std::move(*matcher));
  return Status::OK();
}

Status StreamingQueryExecutor::ProcessTask(int shard, ShardPool::Task task) {
  ShardState& st = *shards_[shard];
  // Once this shard has failed, drop further tasks instead of feeding
  // matchers past the failure (e.g. a budget breach must not keep
  // growing the buffer by one tuple per push while errors are pending).
  if (!st.error.ok()) return st.error;
  auto it = st.clusters.find(task.cluster);
  if (it == st.clusters.end()) {
    ClusterState cs;
    Status made = MakeMatcher(shard, task.cluster, &cs);
    if (!made.ok()) {
      if (st.error.ok()) st.error = made;
      return made;
    }
    it = st.clusters.emplace(task.cluster, std::move(cs)).first;
  }
  st.current_tag = task.tag;
  ++st.processed;
  Status status = it->second.matcher->Push(std::move(task.row));
  if (!status.ok() && st.error.ok()) st.error = status;
  return status;
}

void StreamingQueryExecutor::EmitRow(int shard, uint64_t ordinal,
                                     const Match& match,
                                     const SequenceView& view,
                                     int64_t base) {
  if (!on_row_) return;
  // Translate spans into view coordinates for SELECT evaluation.
  Match rel = match;
  for (GroupSpan& span : rel.spans) {
    span = GroupSpan{span.first - base, span.last - base};
  }
  Row out = ProjectMatch(query_, view, rel);
  ShardState& st = *shards_[shard];
  ClusterState& cs = st.clusters.at(ordinal);
  // The counter advances on both paths so checkpoints are identical at
  // every thread count.
  const uint64_t seq = cs.emit_seq++;
  if (pool_ == nullptr) {
    ++rows_emitted_;
    on_row_(out);
    return;
  }
  st.out.push_back(TaggedRow{st.current_tag, seq, std::move(out)});
}

void StreamingQueryExecutor::FlushBufferedRows() {
  size_t total = 0;
  for (const auto& st : shards_) total += st->out.size();
  if (total == 0) return;
  // Deterministic ordered merge: deliver buffered rows exactly as the
  // single-threaded path would have (by completing push, then by
  // per-cluster emission order).
  std::vector<TaggedRow> all;
  all.reserve(total);
  for (const auto& st : shards_) {
    for (TaggedRow& tr : st->out) all.push_back(std::move(tr));
    st->out.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const TaggedRow& a, const TaggedRow& b) {
              return std::tie(a.tag, a.seq) < std::tie(b.tag, b.seq);
            });
  if (on_row_ == nullptr) return;
  for (const TaggedRow& tr : all) {
    ++rows_emitted_;
    on_row_(tr.row);
  }
}

Status StreamingQueryExecutor::Finish() {
  if (finished_) return final_status_;
  finished_ = true;
  if (pool_ != nullptr) pool_->Finish();  // barrier: drains and joins

  Status gov = governance_.Check();
  if (gov.ok()) {
    // Close trailing star groups.  Clusters finish in encoded-key
    // order — the iteration order of the pre-shard implementation,
    // whose cluster map was keyed by the encoded key — with
    // Finish-time emissions tagged after every push so the merge keeps
    // them last.
    uint64_t tag = push_tag_;
    for (auto& [key, info] : routes_) {
      (void)key;
      if (!info.accepted) continue;
      ShardState& st = *shards_[info.shard];
      auto it = st.clusters.find(info.ordinal);
      if (it == st.clusters.end()) continue;
      st.current_tag = ++tag;
      it->second.matcher->Finish();
    }
    // A cancellation or deadline that arrived during close-out (say,
    // from a row callback) stopped the remaining matchers early: report
    // it rather than a silently partial result.
    gov = governance_.Check();
    if (gov.ok() && pool_ != nullptr) FlushBufferedRows();
  }

  // Aggregate the per-shard stats layer.
  final_shard_stats_.assign(shards_.size(), ShardStats{});
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardState& st = *shards_[s];
    ShardStats& out = final_shard_stats_[s];
    out.tuples_pushed = st.processed;
    out.clusters = static_cast<int64_t>(st.clusters.size());
    out.queue_high_water =
        pool_ != nullptr ? pool_->queue_high_water(static_cast<int>(s)) : 0;
    for (const auto& [ordinal, cs] : st.clusters) {
      (void)ordinal;
      out.search += cs.matcher->stats();
      out.buffered_tuples_high += cs.matcher->peak_buffered();
      out.buffered_bytes_high += cs.matcher->peak_buffered_bytes();
    }
    if (!st.error.ok() && final_status_.ok()) final_status_ = st.error;
  }
  // The router counts skips (thread-count independent); attribute them
  // to the first shard's entry so they survive aggregation.
  final_shard_stats_[0].rows_skipped = rows_skipped_;
  if (pool_ != nullptr) {
    // Exceptions caught at the worker boundary.
    const Status worker = pool_->first_error();
    if (!worker.ok() && final_status_.ok()) final_status_ = worker;
  }
  if (!gov.ok() && final_status_.ok()) final_status_ = gov;
  final_stats_ = TotalSearchStats(final_shard_stats_);
  return final_status_;
}

Status StreamingQueryExecutor::Quiesce() {
  if (pool_ != nullptr) {
    pool_->Drain();
    SQLTS_RETURN_IF_ERROR(pool_->first_error());
  }
  return Status::OK();
}

Status StreamingQueryExecutor::Checkpoint(std::string* out) {
  if (finished_) {
    return Status::InvalidArgument("Checkpoint after Finish");
  }
  SQLTS_RETURN_IF_ERROR(Quiesce());  // workers idle, their state visible
  for (const auto& st : shards_) {
    SQLTS_RETURN_IF_ERROR(st->error);
  }
  // Buffered output precedes the checkpoint: deliver it now so a
  // resumed run never re-emits it (exactly-once), and so the payload
  // below is identical at every thread count.
  if (pool_ != nullptr) FlushBufferedRows();

  CheckpointWriter w;
  w.WriteString(query_text_);
  w.WriteString(query_.input_schema.ToString());
  w.WriteI64(consumed_);
  w.WriteU64(push_tag_);
  w.WriteI64(rows_skipped_);
  w.WriteI64(rows_emitted_);
  w.WriteU64(routes_.size());
  for (const auto& [key, info] : routes_) {
    w.WriteString(key);
    w.WriteU64(info.ordinal);
    w.WriteBool(info.accepted);
    w.WriteBool(info.has_last);
    w.WriteU32(static_cast<uint32_t>(info.last_seq_key.size()));
    for (const Value& v : info.last_seq_key) w.WriteValue(v);
    const ShardState& st = *shards_[info.shard];
    auto it = st.clusters.find(info.ordinal);
    const bool has_matcher = it != st.clusters.end();
    w.WriteBool(has_matcher);
    if (has_matcher) {
      w.WriteU64(it->second.emit_seq);
      it->second.matcher->Checkpoint(&w);
    }
  }
  *out = w.Finalize();
  return Status::OK();
}

Status StreamingQueryExecutor::Restore(std::string_view bytes) {
  if (finished_ || consumed_ != 0 || push_tag_ != 0 || !routes_.empty()) {
    return Status::InvalidArgument(
        "Restore requires a freshly created executor");
  }
  SQLTS_ASSIGN_OR_RETURN(std::string_view payload, OpenCheckpoint(bytes));
  CheckpointReader r(payload);
  SQLTS_ASSIGN_OR_RETURN(std::string query_text, r.ReadString());
  if (query_text != query_text_) {
    return Status::InvalidArgument(
        "checkpoint was taken by a different query text");
  }
  SQLTS_ASSIGN_OR_RETURN(std::string schema_text, r.ReadString());
  if (schema_text != query_.input_schema.ToString()) {
    return Status::InvalidArgument(
        "checkpoint input schema [" + schema_text +
        "] does not match this executor's [" +
        query_.input_schema.ToString() + "]");
  }
  SQLTS_ASSIGN_OR_RETURN(consumed_, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(push_tag_, r.ReadU64());
  SQLTS_ASSIGN_OR_RETURN(rows_skipped_, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(rows_emitted_, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(uint64_t route_count, r.ReadU64());
  for (uint64_t n = 0; n < route_count; ++n) {
    SQLTS_ASSIGN_OR_RETURN(std::string key, r.ReadString());
    RouteInfo info;
    SQLTS_ASSIGN_OR_RETURN(info.ordinal, r.ReadU64());
    SQLTS_ASSIGN_OR_RETURN(info.accepted, r.ReadBool());
    SQLTS_ASSIGN_OR_RETURN(info.has_last, r.ReadBool());
    SQLTS_ASSIGN_OR_RETURN(uint32_t seq_vals, r.ReadU32());
    for (uint32_t k = 0; k < seq_vals; ++k) {
      SQLTS_ASSIGN_OR_RETURN(Value v, r.ReadValue());
      info.last_seq_key.push_back(std::move(v));
    }
    // The order guard compares these cells by column type, so they must
    // have the shape a checked row gives them.
    bool fits = !info.has_last || seq_vals == sequence_cols_.size();
    for (size_t k = 0; fits && info.has_last && k < seq_vals; ++k) {
      Row shape(query_.input_schema.num_columns());
      shape[sequence_cols_[k]] = info.last_seq_key[k];
      fits = CheckRow(query_.input_schema, shape).ok();
    }
    if (!fits) {
      return Status::IoError(
          "checkpoint SEQUENCE BY key does not fit the query's columns");
    }
    // Shard placement is a property of this executor's pool, not of the
    // checkpoint: recompute it, so thread counts may differ across the
    // kill/restore boundary.
    info.shard = pool_ != nullptr ? pool_->ShardFor(key) : 0;
    if (shared_eval_ != nullptr) {
      ts::MutexLock lock(ordinal_keys_mu_);
      ordinal_keys_.emplace(info.ordinal, key);
    }
    SQLTS_ASSIGN_OR_RETURN(bool has_matcher, r.ReadBool());
    if (has_matcher) {
      ClusterState cs;
      SQLTS_ASSIGN_OR_RETURN(cs.emit_seq, r.ReadU64());
      SQLTS_RETURN_IF_ERROR(MakeMatcher(info.shard, info.ordinal, &cs));
      SQLTS_RETURN_IF_ERROR(cs.matcher->RestoreState(&r));
      // Workers are parked: the first task for this shard is enqueued
      // under its mutex, which publishes this insert to the worker.
      shards_[info.shard]->clusters.emplace(info.ordinal, std::move(cs));
    }
    auto [pos, inserted] = routes_.emplace(std::move(key), std::move(info));
    (void)pos;
    if (!inserted) {
      return Status::IoError("checkpoint contains a duplicate cluster key");
    }
  }
  if (r.remaining() != 0) {
    return Status::IoError("checkpoint has " +
                           std::to_string(r.remaining()) +
                           " trailing bytes after the last cluster");
  }
  return Status::OK();
}

SearchStats StreamingQueryExecutor::stats() const {
  if (finished_) return final_stats_;
  if (pool_ != nullptr) return SearchStats{};  // meaningful after Finish
  SearchStats total;
  for (const auto& [ordinal, cs] : shards_[0]->clusters) {
    (void)ordinal;
    total += cs.matcher->stats();
  }
  return total;
}

}  // namespace sqlts
