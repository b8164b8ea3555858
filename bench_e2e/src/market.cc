// market_queryset and market_stream: one generated market in date-major
// order, run as a K = 16 shared query set (MultiQueryExecutor) and as a
// tuple-at-a-time stream (StreamingQueryExecutor).
#include <algorithm>
#include <optional>

#include "engine/stream.h"
#include "engine/stream_executor.h"
#include "engine/vectorized_eval.h"
#include "harness.h"
#include "inputs.h"
#include "replay.h"

namespace e2e {
namespace {

using sqlts::MultiQueryExecutor;
using sqlts::QueryExecutor;
using sqlts::QueryResult;
using sqlts::QuerySetResult;
using sqlts::Row;
using sqlts::Status;
using sqlts::StreamingQueryExecutor;
using sqlts::Table;

bool SameCounters(const sqlts::MultiQueryStats& a,
                  const sqlts::MultiQueryStats& b) {
  return a.shared_lookups == b.shared_lookups &&
         a.shared_evals == b.shared_evals && a.cache_hits == b.cache_hits &&
         a.inferred_hits == b.inferred_hits &&
         a.private_evals == b.private_evals;
}

class MarketQuerySetWorkload : public Workload {
 public:
  const char* op_name() const override { return "query set"; }
  const char* latency_name() const override { return "queryset_ms"; }

  void Setup(uint64_t seed) override {
    table_ = Table();  // never hold two generations at once
    table_ = MakeMarket(seed);
    queries_ = MarketQuerySet();
  }

  Status Reference(std::map<std::string, double>* facts) override {
    auto set = MultiQueryExecutor::Execute(table_, queries_, BenchExecOptions());
    if (!set.ok()) return set.status();
    reference_ = std::move(*set);
    int64_t matches = 0, tests = 0;
    uint64_t digest = 0;
    for (const QueryResult& q : reference_.per_query) {
      matches += q.stats.matches;
      tests += q.stats.evaluations;
      digest = digest * 31 + static_cast<uint64_t>(RowsDigest(q.output));
    }
    (*facts)["queries"] = static_cast<double>(queries_.size());
    (*facts)["matches"] = static_cast<double>(matches);
    (*facts)["tests"] = static_cast<double>(tests);
    (*facts)["shared_evals"] = static_cast<double>(reference_.stats.shared_evals);
    (*facts)["cache_hits"] = static_cast<double>(reference_.stats.cache_hits);
    (*facts)["rows_digest"] = static_cast<double>(digest >> 12);
    return Status::OK();
  }

  Status CheckOutputs(std::map<std::string, double>*) override {
    for (size_t i = 0; i < queries_.size(); ++i) {
      auto solo = QueryExecutor::Execute(table_, queries_[i], BenchExecOptions());
      if (!solo.ok()) return solo.status();
      const QueryResult& shared = reference_.per_query[i];
      std::string why;
      if (!SameRows(shared.output, solo->output, &why) ||
          !SameStats(shared.stats, solo->stats)) {
        return Status::Internal(
            "query #" + std::to_string(i + 1) +
            ": shared run differs from its independent run: " + why + " " +
            StatsToString(shared.stats) + " vs " + StatsToString(solo->stats));
      }
    }
    return Status::OK();
  }

  OpOutcome RunOp() override {
    OpOutcome out;
    out.tuples = table_.num_rows();
    const int64_t t0 = NowNs();
    auto set = MultiQueryExecutor::Execute(table_, queries_, BenchExecOptions());
    out.latency_ns = NowNs() - t0;
    if (!set.ok()) {
      out.status = set.status();
      return out;
    }
    out.output_ok = SameCounters(set->stats, reference_.stats);
    for (size_t i = 0; i < queries_.size(); ++i) {
      out.output_ok = out.output_ok && SameStats(set->per_query[i].stats,
                                                 reference_.per_query[i].stats);
    }
    return out;
  }

  OpOutcome RunTraced(Tracer* tracer) override {
    OpOutcome out;
    out.tuples = table_.num_rows();
    QuerySetResult set;
    tracer->BeginOp();
    out.status =
        ReplayQuerySet(table_, queries_, BenchExecOptions(), tracer, &set);
    out.latency_ns = tracer->EndOp();
    for (size_t i = 0; out.status.ok() && i < queries_.size(); ++i) {
      out.status = CheckParity(set.per_query[i], reference_.per_query[i]);
    }
    if (out.status.ok() && !SameCounters(set.stats, reference_.stats)) {
      out.status = Status::Internal(
          "trace replay sharing counters differ from the public call");
    }
    return out;
  }

 private:
  Table table_;
  std::vector<std::string> queries_;
  QuerySetResult reference_;
};

class MarketStreamWorkload : public Workload {
 public:
  const char* op_name() const override { return "stream pass"; }
  const char* latency_name() const override { return "stream_pass_ms"; }
  /// A traced pass reads the clock twice per tuple, around each Push.
  double max_trace_overhead() const override { return 0.35; }

  void Setup(uint64_t seed) override {
    table_ = Table();  // never hold two generations at once
    rows_.clear();
    table_ = MakeMarket(seed);
    query_ = MarketStreamQuery();
    rows_.reserve(static_cast<size_t>(table_.num_rows()));
    for (int64_t r = 0; r < table_.num_rows(); ++r) {
      rows_.push_back(table_.GetRow(r));
    }
  }

  /// The measuring process keeps only the stream; the table it was
  /// made from (empty from here on) still lends its schema.
  void Prepare(uint64_t seed) override {
    Setup(seed);
    table_ = Table(table_.schema());
  }

  Status Reference(std::map<std::string, double>* facts) override {
    have_reference_ = false;
    OpOutcome pass = RunOp();
    if (!pass.status.ok()) return pass.status;
    reference_rows_ = emitted_;
    reference_stats_ = stats_;
    have_reference_ = true;
    (*facts)["matches"] = static_cast<double>(stats_.matches);
    (*facts)["tests"] = static_cast<double>(stats_.evaluations);
    (*facts)["rows_emitted"] = static_cast<double>(emitted_.size());
    (*facts)["rows_digest"] = RowsDigest(emitted_);
    return Status::OK();
  }

  Status CheckOutputs(std::map<std::string, double>*) override {
    auto batch = QueryExecutor::Execute(table_, query_, BenchExecOptions());
    if (!batch.ok()) return batch.status();
    std::vector<std::string> streamed, batched;
    for (const Row& row : reference_rows_) streamed.push_back(RowToString(row));
    for (int64_t r = 0; r < batch->output.num_rows(); ++r) {
      batched.push_back(RowToString(batch->output.GetRow(r)));
    }
    // The stream emits in push order, the batch in cluster order.
    std::sort(streamed.begin(), streamed.end());
    std::sort(batched.begin(), batched.end());
    if (streamed != batched) {
      return Status::Internal("stream rows differ from the batch run: " +
                              std::to_string(streamed.size()) + " vs " +
                              std::to_string(batched.size()) + " rows");
    }
    if (!SameStats(reference_stats_, batch->stats)) {
      return Status::Internal("stream test counts differ from the batch run: " +
                              StatsToString(reference_stats_) + " vs " +
                              StatsToString(batch->stats));
    }
    return Status::OK();
  }

  OpOutcome RunOp() override { return Pass(nullptr); }

  OpOutcome RunTraced(Tracer* tracer) override {
    OpOutcome out = Pass(tracer);
    if (!out.status.ok()) return out;
    if (emitted_.size() != reference_rows_.size()) {
      out.status = Status::Internal("traced pass emitted " +
                                    std::to_string(emitted_.size()) +
                                    " rows, untraced " +
                                    std::to_string(reference_rows_.size()));
    } else if (!SameStats(stats_, reference_stats_)) {
      out.status = Status::Internal("traced pass stats differ: " +
                                    StatsToString(stats_) + " vs " +
                                    StatsToString(reference_stats_));
    } else {
      for (size_t i = 0; i < emitted_.size(); ++i) {
        if (RowToString(emitted_[i]) != RowToString(reference_rows_[i])) {
          out.status = Status::Internal("traced pass row " +
                                        std::to_string(i) + " differs");
          break;
        }
      }
    }
    CountSearch(tracer, stats_);
    tracer->Count("engine.rows_emitted", static_cast<double>(emitted_.size()));
    return out;
  }

  /// engine.stream_matcher_push_ns: one instrument's tuples pushed
  /// straight into an OpsStreamMatcher, wired as the executor wires a
  /// cluster's matcher (same plan and vectorized evaluator).
  void ExtraLayerMetrics(std::map<std::string, double>* metrics) override {
    auto compiled = sqlts::CompileQueryText(query_, table_.schema());
    SQLTS_CHECK(compiled.ok()) << compiled.status();
    auto plan = sqlts::CompilePattern(*compiled, BenchExecOptions().compile);
    SQLTS_CHECK(plan.ok()) << plan.status();
    auto vec = sqlts::VectorizedPlanEval::Create(*plan, table_.schema());
    std::vector<Row> one;
    for (size_t r = 0; r < rows_.size(); r += kMarketInstruments) {
      one.push_back(rows_[r]);  // date-major: every kMarketInstruments-th row
    }
    Samples per_tuple_ns;
    for (int rep = 0; rep < 31; ++rep) {
      std::vector<Row> pending = one;
      std::unique_ptr<sqlts::ElementEvaluator> eval;
      if (vec != nullptr) eval = vec->MakeEvaluator();
      int64_t matches = 0;
      auto matcher = sqlts::OpsStreamMatcher::Create(
          &*plan, table_.schema(),
          [&](const sqlts::Match&, const sqlts::SequenceView&, int64_t) {
            ++matches;
          },
          nullptr, nullptr, eval.get());
      SQLTS_CHECK(matcher.ok()) << matcher.status();
      const int64_t t0 = NowNs();
      for (Row& row : pending) SQLTS_CHECK_OK(matcher->Push(std::move(row)));
      const int64_t t1 = NowNs();
      matcher->Finish();
      per_tuple_ns.Add(static_cast<double>(t1 - t0) /
                       static_cast<double>(one.size()));
    }
    (*metrics)["engine.stream_matcher_push_ns"] = per_tuple_ns.Median();
  }

 private:
  /// One pass over a fresh copy of the stream.  The copy is made before
  /// the clock starts; Push takes each row by move.  With a tracer the
  /// pass is one traced operation.
  OpOutcome Pass(Tracer* tracer) {
    OpOutcome out;
    pending_ = rows_;
    emitted_.clear();
    auto on_row = [this](const Row& row) { emitted_.push_back(row); };
    std::unique_ptr<StreamingQueryExecutor> exec;
    const int64_t start = NowNs();
    if (tracer != nullptr) tracer->BeginOp();
    {
      std::optional<Tracer::Span> span;
      if (tracer != nullptr) span.emplace(tracer, Layer::kStreamCreate);
      auto created = StreamingQueryExecutor::Create(
          query_, table_.schema(), on_row, BenchExecOptions());
      if (!created.ok()) {
        out.status = created.status();
        return out;
      }
      exec = std::move(*created);
    }
    const int64_t t0 = NowNs();
    if (tracer == nullptr) {
      for (Row& row : pending_) {
        Status s = exec->Push(std::move(row));
        if (!s.ok()) out.status = s;
      }
    } else {
      for (Row& row : pending_) {
        const int64_t p0 = NowNs();
        Status s = exec->Push(std::move(row));
        tracer->Add(Layer::kStreamPush, NowNs() - p0);
        if (!s.ok()) out.status = s;
      }
    }
    const int64_t f0 = NowNs();
    Status fin = exec->Finish();
    const int64_t t1 = NowNs();
    if (tracer != nullptr) tracer->Add(Layer::kStreamFinish, t1 - f0);
    if (out.status.ok()) out.status = fin;
    stats_ = exec->stats();
    exec.reset();
    out.latency_ns =
        tracer != nullptr ? tracer->EndOp() : NowNs() - start;
    out.tuples = static_cast<int64_t>(pending_.size());
    out.throughput_ns = t1 - t0;
    out.output_ok = !have_reference_ ||
                    (SameStats(stats_, reference_stats_) &&
                     emitted_.size() == reference_rows_.size());
    return out;
  }

  Table table_;
  std::string query_;
  std::vector<Row> rows_;      // the generated stream, in push order
  std::vector<Row> pending_;   // this pass's copy, consumed by Push
  std::vector<Row> emitted_;   // rows the current pass delivered
  sqlts::SearchStats stats_;
  bool have_reference_ = false;
  std::vector<Row> reference_rows_;
  sqlts::SearchStats reference_stats_;
};

}  // namespace

std::unique_ptr<Workload> MakeMarketQuerySet(const std::string&) {
  return std::make_unique<MarketQuerySetWorkload>();
}

std::unique_ptr<Workload> MakeMarketStream(const std::string&) {
  return std::make_unique<MarketStreamWorkload>();
}

}  // namespace e2e
