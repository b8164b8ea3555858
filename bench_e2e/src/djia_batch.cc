// djia_batch: the paper's Example 10 over one 6,300-day DJIA cluster
// through QueryExecutor::Execute.  The traced replay walks
// QueryExecutor::ExecuteCompiled's single-threaded path call by call.
#include "harness.h"
#include "inputs.h"
#include "replay.h"

namespace e2e {
namespace {

using sqlts::QueryExecutor;
using sqlts::QueryResult;
using sqlts::Status;
using sqlts::Table;

class DjiaBatchWorkload : public Workload {
 public:
  const char* op_name() const override { return "query"; }
  const char* latency_name() const override { return "query_ms"; }

  void Setup(uint64_t seed) override {
    table_ = MakeDjia(seed);
    query_ = DjiaQuery();
  }

  Status Reference(std::map<std::string, double>* facts) override {
    auto ops = QueryExecutor::Execute(table_, query_, BenchExecOptions());
    if (!ops.ok()) return ops.status();
    reference_ = std::move(*ops);
    (*facts)["matches"] = static_cast<double>(reference_.stats.matches);
    (*facts)["tests"] = static_cast<double>(reference_.stats.evaluations);
    (*facts)["rows_digest"] = RowsDigest(reference_.output);
    return Status::OK();
  }

  Status CheckOutputs(std::map<std::string, double>* facts) override {
    sqlts::ExecOptions naive_opt = BenchExecOptions();
    naive_opt.algorithm = sqlts::SearchAlgorithm::kNaive;
    auto naive = QueryExecutor::Execute(table_, query_, naive_opt);
    if (!naive.ok()) return naive.status();
    sqlts::ExecOptions interp_opt = BenchExecOptions();
    interp_opt.vectorize = false;
    auto interp = QueryExecutor::Execute(table_, query_, interp_opt);
    if (!interp.ok()) return interp.status();
    std::string why;
    if (!SameRows(reference_.output, naive->output, &why)) {
      return Status::Internal("OPS vs naive rows differ: " + why);
    }
    if (!SameRows(reference_.output, interp->output, &why)) {
      return Status::Internal("vectorized vs interpreted rows differ: " + why);
    }
    if (!SameStats(reference_.stats, interp->stats)) {
      return Status::Internal("vectorized vs interpreted stats differ: " +
                              StatsToString(reference_.stats) + " vs " +
                              StatsToString(interp->stats));
    }
    (*facts)["naive_tests"] = static_cast<double>(naive->stats.evaluations);
    return Status::OK();
  }

  OpOutcome RunOp() override {
    OpOutcome out;
    const int64_t t0 = NowNs();
    auto r = QueryExecutor::Execute(table_, query_, BenchExecOptions());
    out.latency_ns = NowNs() - t0;
    out.tuples = table_.num_rows();
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    out.output_ok = SameStats(r->stats, reference_.stats) &&
                    r->output.num_rows() == reference_.output.num_rows();
    return out;
  }

  OpOutcome RunTraced(Tracer* tracer) override {
    OpOutcome out;
    out.tuples = table_.num_rows();
    QueryResult result;
    tracer->BeginOp();
    out.status = ReplayExecute(table_, query_, BenchExecOptions(),
                               tracer, &result);
    out.latency_ns = tracer->EndOp();
    if (out.status.ok()) out.status = CheckParity(result, reference_);
    return out;
  }

 private:
  Table table_;
  std::string query_;
  QueryResult reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeDjiaBatch(const std::string&) {
  return std::make_unique<DjiaBatchWorkload>();
}

}  // namespace e2e
