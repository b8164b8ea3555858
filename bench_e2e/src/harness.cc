#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace e2e {

using sqlts::SearchStats;
using sqlts::Status;
using sqlts::Table;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const sqlts::ExecOptions& BenchExecOptions() {
  static const sqlts::ExecOptions options = [] {
    sqlts::ExecOptions opt;
    opt.num_threads = 1;
    opt.vectorize = true;
    opt.compile.refuse_provably_empty = true;
    return opt;
  }();
  return options;
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Percentile(double pct) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, count());
  return sorted[static_cast<size_t>(rank - 1)];
}

double Samples::TailPct() const {
  for (double pct : {99.9, 99.5, 99.0, 95.0, 90.0, 75.0}) {
    const double n = static_cast<double>(count());
    const int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n));
    if (count() - rank >= 10) return pct;
  }
  return 50.0;
}

const char* LayerMetricName(Layer layer) {
  switch (layer) {
    case Layer::kParse: return "parser.analyze_ms";
    case Layer::kLint: return "analysis.lint_ms";
    case Layer::kPatternCompile: return "pattern.compile_ms";
    case Layer::kKernelCompile: return "expr.kernel_compile_ms";
    case Layer::kClusterSort: return "storage.cluster_sort_ms";
    case Layer::kOpsMatch: return "engine.ops_match_ms";
    case Layer::kProject: return "engine.project_ms";
    case Layer::kStreamCreate: return "engine.stream_create_ms";
    case Layer::kStreamPush: return "engine.stream_push_ms";
    case Layer::kStreamFinish: return "engine.stream_finish_ms";
    case Layer::kCatalog: return "multiquery.catalog_ms";
    case Layer::kOpen: return "colstore.open_ms";
    case Layer::kZoneSkip: return "colstore.zone_skip_ms";
    case Layer::kPlan: return "colstore.plan_ms";
    case Layer::kDecode: return "colstore.decode_ms";
    case Layer::kNumLayers: break;
  }
  return "?";
}

void Tracer::BeginOp() {
  current_ = OpRecord{};
  current_.start_ns = NowNs();
}

int64_t Tracer::EndOp() {
  current_.end_ns = NowNs();
  ops_.push_back(current_);
  return current_.end_ns - current_.start_ns;
}

double Tracer::count(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  for (size_t i = 0; i < ops_.size(); ++i) {
    const OpRecord& op = ops_[i];
    std::fprintf(f, "{\"op\": %zu, \"start_ns\": %lld, \"end_ns\": %lld", i,
                 static_cast<long long>(op.start_ns),
                 static_cast<long long>(op.end_ns));
    for (int l = 0; l < kNumLayers; ++l) {
      if (op.layer_ns[l] == 0) continue;
      std::fprintf(f, ", \"%s\": %lld", LayerMetricName(static_cast<Layer>(l)),
                   static_cast<long long>(op.layer_ns[l]));
    }
    std::fprintf(f, "}\n");
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IoError("cannot close " + path);
}

namespace {

/// The child's side of SetupProcess: serves requests until its input
/// closes.  Replies end with "done"; a failed request sends "error MSG"
/// before it.
void ServeSetups(Workload* w, uint64_t seed, std::FILE* in, std::FILE* out) {
  w->Generate(seed);
  char line[256];
  while (std::fgets(line, sizeof(line), in) != nullptr) {
    double min_seconds = 0;
    if (std::sscanf(line, "setup %lf", &min_seconds) == 1) {
      double total = 0;
      do {
        const int64_t t0 = NowNs();
        w->Setup(seed);
        const double s = static_cast<double>(NowNs() - t0) / 1e9;
        std::fprintf(out, "t %.17g\n", s);
        total += s;
      } while (total < min_seconds);
    } else if (std::strcmp(line, "check\n") == 0) {
      std::map<std::string, double> facts;
      Status st = w->Reference(&facts);
      if (st.ok()) st = w->CheckOutputs(&facts);
      for (const auto& [key, value] : facts) {
        std::fprintf(out, "fact %s %.17g\n", key.c_str(), value);
      }
      if (!st.ok()) {
        std::string msg = st.ToString();
        std::replace(msg.begin(), msg.end(), '\n', ' ');
        std::fprintf(out, "error %s\n", msg.c_str());
      }
    } else {
      std::fprintf(out, "error unknown request %s", line);
    }
    std::fprintf(out, "done\n");
    std::fflush(out);
  }
}

}  // namespace

sqlts::StatusOr<std::unique_ptr<SetupProcess>> SetupProcess::Start(
    Workload* w, uint64_t seed) {
  int down[2], up[2];  // parent -> child, child -> parent
  if (pipe(down) != 0) return Status::IoError("pipe failed");
  if (pipe(up) != 0) {
    close(down[0]);
    close(down[1]);
    return Status::IoError("pipe failed");
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    close(down[1]);
    close(up[0]);
    std::FILE* in = fdopen(down[0], "r");
    std::FILE* out = fdopen(up[1], "w");
    if (in != nullptr && out != nullptr) ServeSetups(w, seed, in, out);
    std::fflush(out);
    _exit(0);  // no destructors: the parent owns the workload's files
  }
  close(down[0]);
  close(up[1]);
  return std::unique_ptr<SetupProcess>(
      new SetupProcess(pid, fdopen(down[1], "w"), fdopen(up[0], "r")));
}

Status SetupProcess::Request(const std::string& line,
                             std::vector<std::string>* replies) {
  if (pid_ <= 0) return Status::Internal("set-up process not running");
  std::fputs(line.c_str(), to_child_);
  std::fflush(to_child_);
  char buf[4096];
  std::string error;
  while (std::fgets(buf, sizeof(buf), from_child_) != nullptr) {
    std::string reply(buf);
    if (!reply.empty() && reply.back() == '\n') reply.pop_back();
    if (reply == "done") {
      return error.empty() ? Status::OK() : Status::Internal(error);
    }
    if (reply.rfind("error ", 0) == 0) {
      error = reply.substr(6);
    } else {
      replies->push_back(reply);
    }
  }
  return Status::Internal("set-up process ended during: " + line);
}

Status SetupProcess::RunSetups(double min_seconds, Samples* out) {
  std::vector<std::string> replies;
  SQLTS_RETURN_IF_ERROR(
      Request("setup " + std::to_string(min_seconds) + "\n", &replies));
  for (const std::string& r : replies) {
    double s = 0;
    if (std::sscanf(r.c_str(), "t %lf", &s) != 1) {
      return Status::Internal("bad set-up reply: " + r);
    }
    out->Add(s);
  }
  return Status::OK();
}

Status SetupProcess::CheckOutputs(std::map<std::string, double>* facts) {
  std::vector<std::string> replies;
  Status st = Request("check\n", &replies);
  for (const std::string& r : replies) {
    char key[128];
    double value = 0;
    if (std::sscanf(r.c_str(), "fact %127s %lf", key, &value) != 2) {
      return Status::Internal("bad oracle reply: " + r);
    }
    (*facts)[key] = value;
  }
  return st;
}

Status SetupProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  std::fclose(to_child_);  // the child's input closes: it exits
  std::fclose(from_child_);
  int wstatus = 0;
  const pid_t waited = waitpid(pid_, &wstatus, 0);
  pid_ = 0;
  if (waited < 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("set-up process did not exit cleanly");
  }
  return Status::OK();
}

std::string RowToString(const sqlts::Row& row) {
  std::string out;
  for (const sqlts::Value& v : row) {
    if (!out.empty()) out += " | ";
    out += v.ToString();
  }
  return out;
}

namespace {

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

double Cut52(uint64_t h) { return static_cast<double>(h >> 12); }

}  // namespace

double RowsDigest(const Table& rows) {
  uint64_t h = kFnvBasis;
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    h = Fnv1a(h, RowToString(rows.GetRow(r)) + "\n");
  }
  return Cut52(h);
}

double RowsDigest(const std::vector<sqlts::Row>& rows) {
  uint64_t h = kFnvBasis;
  for (const sqlts::Row& row : rows) h = Fnv1a(h, RowToString(row) + "\n");
  return Cut52(h);
}

bool SameRows(const Table& a, const Table& b, std::string* why) {
  if (a.schema().num_columns() != b.schema().num_columns()) {
    *why = "column counts differ";
    return false;
  }
  if (a.num_rows() != b.num_rows()) {
    *why = std::to_string(a.num_rows()) + " vs " +
           std::to_string(b.num_rows()) + " rows";
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema().num_columns(); ++c) {
      if (!a.at(r, c).StructurallyEquals(b.at(r, c))) {
        *why = "row " + std::to_string(r) + ": [" +
               RowToString(a.GetRow(r)) + "] vs [" +
               RowToString(b.GetRow(r)) + "]";
        return false;
      }
    }
  }
  return true;
}

bool SameStats(const SearchStats& a, const SearchStats& b) {
  return a.evaluations == b.evaluations &&
         a.presat_skips == b.presat_skips && a.jumps == b.jumps &&
         a.matches == b.matches && a.blocks_total == b.blocks_total &&
         a.blocks_skipped == b.blocks_skipped && a.bytes_read == b.bytes_read;
}

std::string StatsToString(const SearchStats& s) {
  return "tests=" + std::to_string(s.evaluations) +
         " presat_skips=" + std::to_string(s.presat_skips) +
         " jumps=" + std::to_string(s.jumps) +
         " matches=" + std::to_string(s.matches) +
         " blocks=" + std::to_string(s.blocks_total - s.blocks_skipped) +
         "/" + std::to_string(s.blocks_total) +
         " bytes=" + std::to_string(s.bytes_read);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
