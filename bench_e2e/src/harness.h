// Shared machinery of the end-to-end benchmark: the clock, latency
// samples, the in-memory tracer behind the per-layer split, the
// workload interface, and the result report.
#ifndef SQLTS_BENCH_E2E_HARNESS_H_
#define SQLTS_BENCH_E2E_HARNESS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "engine/executor.h"
#include "storage/table.h"

namespace e2e {

int64_t NowNs();

/// Execution options of every workload: what `sqlts_cli` passes
/// (provably-empty queries refused, vectorized kernels on), on one
/// thread.
const sqlts::ExecOptions& BenchExecOptions();

// ---------------------------------------------------------------------
// Latency samples.

class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  double Sum() const;
  double Median() const { return Percentile(50.0); }
  /// Nearest-rank percentile; 0 when empty.
  double Percentile(double pct) const;
  double Mean() const { return values_.empty() ? 0.0 : Sum() / count(); }
  /// The tail percentile: the highest of 99.9, 99.5, 99, 95, 90, 75 that
  /// leaves at least ten samples beyond it (50 when none does).
  double TailPct() const;

 private:
  std::vector<double> values_;
};

// ---------------------------------------------------------------------
// Tracing.

/// The layers of the traced split.  Each is timed from outside, around
/// calls into the public functions of one src/ module.
enum class Layer : int {
  kParse,          // CompileQueryText                 (src/parser)
  kLint,           // LintQuery                        (src/analysis)
  kPatternCompile, // CompilePattern                   (src/pattern)
  kKernelCompile,  // VectorizedPlanEval::Create       (src/expr kernels)
  kClusterSort,    // ClusteredSequence::Build         (src/storage)
  kOpsMatch,       // OpsSearch + its evaluator        (src/engine)
  kProject,        // ProjectMatch + Table::AppendRow  (src/engine)
  kStreamCreate,   // StreamingQueryExecutor::Create   (src/engine)
  kStreamPush,     // StreamingQueryExecutor::Push     (src/engine)
  kStreamFinish,   // StreamingQueryExecutor::Finish   (src/engine)
  kCatalog,        // predicate catalog + caches       (src/multiquery)
  kOpen,           // ColumnarReader::Open             (src/colstore)
  kZoneSkip,       // ZoneSkipper + cluster decisions  (src/colstore)
  kPlan,           // ProbePlanner::Plan               (src/colstore)
  kDecode,         // ColumnarReader::ReadBlockRange   (src/colstore)
  kNumLayers,
};
constexpr int kNumLayers = static_cast<int>(Layer::kNumLayers);

/// Per-layer metric name (with its unit suffix, e.g. "parser.analyze_ms").
const char* LayerMetricName(Layer layer);

/// Spans of one traced run, kept in memory and written out at the end.
/// Spans of one operation are summed per layer: an operation is one
/// record holding its wall interval and the time its spans covered in
/// each layer.  Spans never nest, so `other` = wall − Σ layers.
class Tracer {
 public:
  struct OpRecord {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::array<int64_t, kNumLayers> layer_ns{};
  };

  /// Times one span into `layer` for as long as it lives.
  class Span {
   public:
    Span(Tracer* tracer, Layer layer)
        : tracer_(tracer), layer_(layer), t0_(NowNs()) {}
    ~Span() { tracer_->Add(layer_, NowNs() - t0_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Layer layer_;
    int64_t t0_;
  };

  void BeginOp();
  /// Closes the operation; returns its wall time in ns.
  int64_t EndOp();
  void Add(Layer layer, int64_t ns) {
    current_.layer_ns[static_cast<int>(layer)] += ns;
  }
  /// Adds to a per-run counter (summed over operations).
  void Count(const std::string& name, double v) { counts_[name] += v; }

  const std::vector<OpRecord>& ops() const { return ops_; }
  double count(const std::string& name) const;
  /// One JSON line per operation: wall interval and per-layer ns.
  sqlts::Status WriteJsonl(const std::string& path) const;

 private:
  OpRecord current_;
  std::vector<OpRecord> ops_;
  std::map<std::string, double> counts_;
};

// ---------------------------------------------------------------------
// Workloads.

/// Outcome of one timed operation.
struct OpOutcome {
  sqlts::Status status = sqlts::Status::OK();
  /// The cheap in-loop output check (counts against the reference run).
  bool output_ok = true;
  /// Wall time of the operation itself, measured by the workload around
  /// the public call(s) or the replay, excluding input copies and checks.
  int64_t latency_ns = 0;
  /// Tuples the operation consumed (from a `.sqlc` file: rows decoded).
  int64_t tuples = 0;
  /// Time charged to `tuples` for tuples_per_s; < 0 means the whole
  /// operation's latency.
  int64_t throughput_ns = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one operation is, for the report ("query", "query set", ...).
  virtual const char* op_name() const = 0;
  /// The report's name for this workload's latency ("query_ms",
  /// "queryset_ms", ...).
  virtual const char* latency_name() const = 0;
  /// Largest |trace_overhead_frac| a traced run accepts.  Beyond it the
  /// replay no longer times what the public call does, and the run
  /// fails.
  virtual double max_trace_overhead() const { return 0.10; }

  // Set-up process (see SetupProcess).
  /// Builds, once and untimed, data that set-up consumes but that is
  /// the benchmark's own rather than program work.
  virtual void Generate(uint64_t /*seed*/) {}
  /// One set-up: builds every input the operations read.  Each call is
  /// one setup_s sample.
  virtual void Setup(uint64_t seed) = 0;
  /// Runs the output oracles against the result Reference() kept.
  /// `facts` receives counts for the details line.
  virtual sqlts::Status CheckOutputs(std::map<std::string, double>* facts) = 0;

  // Both processes.
  /// Runs the public call once and keeps its result: the reference the
  /// oracles, the in-loop checks and the trace-replay parity compare
  /// to.  `facts` receives its counts and a digest of its rows; the
  /// measuring process's must equal the set-up process's.
  virtual sqlts::Status Reference(std::map<std::string, double>* facts) = 0;

  // Measuring process.
  /// Builds, untimed, what the operations read; set-up has already run
  /// once in the set-up process.
  virtual void Prepare(uint64_t seed) { Setup(seed); }
  /// One untraced operation: the public call(s) a user makes.
  virtual OpOutcome RunOp() = 0;
  /// One traced operation: the same work replayed through the public
  /// functions of each layer, each call inside a span, between
  /// tracer->BeginOp() and tracer->EndOp().  Fails unless the replay
  /// returns the same rows and SearchStats as the public call.
  virtual OpOutcome RunTraced(Tracer* tracer) = 0;
  /// Per-layer measurements outside the operation loop (traced runs).
  virtual void ExtraLayerMetrics(std::map<std::string, double>*) {}
};

/// The set-up process.  Set-up and the output oracles run in a child
/// process, so the generated data, the oracle runs and everything else
/// the benchmark holds stay out of the measuring process's peak RSS
/// (getrusage(RUSAGE_SELF) does not count children).  The child keeps
/// the workload's generated data and serves one request at a time
/// while the parent waits for it, so one process runs at a time.
class SetupProcess {
 public:
  /// Forks the child, which runs w->Generate(seed) and then waits.
  static sqlts::StatusOr<std::unique_ptr<SetupProcess>> Start(Workload* w,
                                                              uint64_t seed);
  ~SetupProcess() { (void)Stop(); }
  SetupProcess(const SetupProcess&) = delete;
  SetupProcess& operator=(const SetupProcess&) = delete;

  /// One round of set-ups: w->Setup(seed) runs at least once and again
  /// until `min_seconds` have passed; each call's seconds go to `out`.
  sqlts::Status RunSetups(double min_seconds, Samples* out);
  /// w->Reference and then w->CheckOutputs.
  sqlts::Status CheckOutputs(std::map<std::string, double>* facts);
  /// Ends the child and waits for it.
  sqlts::Status Stop();

 private:
  SetupProcess(int pid, std::FILE* to_child, std::FILE* from_child)
      : pid_(pid), to_child_(to_child), from_child_(from_child) {}
  /// Sends one request line; returns the reply lines before "done".
  sqlts::Status Request(const std::string& line,
                        std::vector<std::string>* replies);

  int pid_;
  std::FILE* to_child_;
  std::FILE* from_child_;
};

std::unique_ptr<Workload> MakeDjiaBatch(const std::string& work_dir);
std::unique_ptr<Workload> MakeMarketQuerySet(const std::string& work_dir);
std::unique_ptr<Workload> MakeMarketStream(const std::string& work_dir);
std::unique_ptr<Workload> MakeSqlcSkip(const std::string& work_dir);
std::unique_ptr<Workload> MakeSqlcFull(const std::string& work_dir);

// ---------------------------------------------------------------------
// Output comparison.

/// True when both tables hold the same rows in the same order; `why`
/// names the first difference.
bool SameRows(const sqlts::Table& a, const sqlts::Table& b, std::string* why);
/// True when every SearchStats counter agrees.
bool SameStats(const sqlts::SearchStats& a, const sqlts::SearchStats& b);
std::string StatsToString(const sqlts::SearchStats& s);
/// One row rendered as text (for order-insensitive comparisons).
std::string RowToString(const sqlts::Row& row);
/// FNV-1a digest of the rows in order, cut to 52 bits so that it
/// survives a trip through a double.
double RowsDigest(const sqlts::Table& rows);
double RowsDigest(const std::vector<sqlts::Row>& rows);

/// Peak resident set of this process, in MB (getrusage).
double PeakRssMb();

}  // namespace e2e

#endif  // SQLTS_BENCH_E2E_HARNESS_H_
