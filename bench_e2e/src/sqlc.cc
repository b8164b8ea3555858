// sqlc_skip and sqlc_full: cold ColumnarExecutor::ExecuteFile calls on
// one cluster-major `.sqlc` file written during set-up.  The two
// queries use the reader in opposite ways: zone maps skip all but 16
// blocks for `skip`, and no block can be skipped for `full`.
#include <unistd.h>

#include <cstdio>

#include "colstore/columnar_executor.h"
#include "colstore/writer.h"
#include "harness.h"
#include "inputs.h"
#include "replay.h"

namespace e2e {
namespace {

using sqlts::ColumnarExecOptions;
using sqlts::ColumnarExecutor;
using sqlts::QueryResult;
using sqlts::Status;
using sqlts::Table;

class SqlcScan : public Workload {
 public:
  SqlcScan(const std::string& work_dir, bool skip)
      : skip_(skip),
        query_(skip ? SkipQuery() : FullQuery()),
        path_(work_dir + "/e2e_" + (skip ? "skip" : "full") + "_" +
              std::to_string(getpid()) + ".sqlc") {
    options_.exec = BenchExecOptions();
  }
  ~SqlcScan() override { std::remove(path_.c_str()); }

  const char* op_name() const override {
    return skip_ ? "skip query" : "full query";
  }
  const char* latency_name() const override {
    return skip_ ? "skip_query_ms" : "full_query_ms";
  }

  /// The generated table is the benchmark's own data; converting it to
  /// `.sqlc` is the program's set-up work, so only that is timed.
  void Generate(uint64_t seed) override { table_ = MakeStorageQuotes(seed); }

  void Setup(uint64_t) override {
    sqlts::ColumnarWriterOptions wopt;
    wopt.cluster_by = {"name"};
    wopt.sequence_by = {"date"};
    SQLTS_CHECK_OK(sqlts::ColumnarWriter::WriteFile(table_, path_, wopt));
  }

  /// The set-up process has written the file the operations read.
  void Prepare(uint64_t) override {}

  Status Reference(std::map<std::string, double>* facts) override {
    auto columnar = ColumnarExecutor::ExecuteFile(path_, query_, options_);
    if (!columnar.ok()) return columnar.status();
    reference_ = std::move(*columnar);
    // The replay counts the rows decoded, which the public call does
    // not report: they are the tuples an operation consumes.
    Tracer tracer;
    QueryResult replayed;
    tracer.BeginOp();
    Status st = ReplayColumnarFile(path_, query_, options_, &tracer, &replayed);
    tracer.EndOp();
    if (st.ok()) st = CheckParity(replayed, reference_);
    if (!st.ok()) return st;
    rows_decoded_ = static_cast<int64_t>(tracer.count("colstore.rows_decoded"));
    const sqlts::SearchStats& s = reference_.stats;
    (*facts)["matches"] = static_cast<double>(s.matches);
    (*facts)["tests"] = static_cast<double>(s.evaluations);
    (*facts)["blocks_read"] = static_cast<double>(s.blocks_total - s.blocks_skipped);
    (*facts)["blocks_total"] = static_cast<double>(s.blocks_total);
    (*facts)["bytes_read"] = static_cast<double>(s.bytes_read);
    (*facts)["block_skip_ratio"] = static_cast<double>(s.blocks_skipped) /
                                   static_cast<double>(s.blocks_total);
    (*facts)["rows_decoded"] = static_cast<double>(rows_decoded_);
    (*facts)["rows_digest"] = RowsDigest(reference_.output);
    return Status::OK();
  }

  Status CheckOutputs(std::map<std::string, double>*) override {
    auto in_memory =
        sqlts::QueryExecutor::Execute(table_, query_, BenchExecOptions());
    if (!in_memory.ok()) return in_memory.status();
    std::string why;
    if (!SameRows(reference_.output, in_memory->output, &why)) {
      return Status::Internal("columnar rows differ from in-memory rows: " +
                              why);
    }
    return Status::OK();
  }

  OpOutcome RunOp() override {
    OpOutcome out;
    out.tuples = rows_decoded_;
    const int64_t t0 = NowNs();
    auto r = ColumnarExecutor::ExecuteFile(path_, query_, options_);
    out.latency_ns = NowNs() - t0;
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
    out.tuples = rows_decoded_;
    QueryResult result;
    tracer->BeginOp();
    out.status = ReplayColumnarFile(path_, query_, options_, tracer, &result);
    out.latency_ns = tracer->EndOp();
    if (out.status.ok()) out.status = CheckParity(result, reference_);
    return out;
  }

 private:
  const bool skip_;
  const std::string query_;
  const std::string path_;
  ColumnarExecOptions options_;
  Table table_;  // generated input, set-up process only
  int64_t rows_decoded_ = 0;
  QueryResult reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeSqlcSkip(const std::string& work_dir) {
  return std::make_unique<SqlcScan>(work_dir, /*skip=*/true);
}

std::unique_ptr<Workload> MakeSqlcFull(const std::string& work_dir) {
  return std::make_unique<SqlcScan>(work_dir, /*skip=*/false);
}

}  // namespace e2e
