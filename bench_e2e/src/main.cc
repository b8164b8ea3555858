// e2e_bench: one workload, one process, one client in a closed loop.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR]
//
// Set-up and the output oracles run in a child process (SetupProcess),
// so the peak RSS reported is the measuring process's own.  Set-up runs
// in rounds: one before the loop and, with --trace 0, more spread over
// it; setup_s is the median of every set-up.  Operations run back to
// back for --seconds of loop time.  --trace 0 reports the end-to-end
// metrics; --trace 1 alternates untraced operations with traced replays
// and reports the per-layer split.  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it, `details: {...}`, records the seed, sample
// counts, the tail percentile and the reference counts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool trace = false;
  std::string work_dir = ".";
};

using WorkloadFactory = std::unique_ptr<Workload> (*)(const std::string&);

const std::map<std::string, WorkloadFactory>& Registry() {
  static const std::map<std::string, WorkloadFactory> registry = {
      {"djia_batch", MakeDjiaBatch},
      {"market_queryset", MakeMarketQuerySet},
      {"market_stream", MakeMarketStream},
      {"sqlc_skip", MakeSqlcSkip},
      {"sqlc_full", MakeSqlcFull},
  };
  return registry;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\nworkloads:",
               why);
  for (const auto& [name, make] : Registry()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (Registry().count(args.workload) == 0) Usage("unknown --workload");
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Counters the traced run reports per operation (0 where a workload
/// never reaches the layer).
const char* const kPerOpCounts[] = {
    "engine.tests",
    "engine.presat_skips",
    "engine.jumps",
    "engine.rows_emitted",
    "multiquery.shared_lookups",
    "multiquery.cache_hits",
    "multiquery.shared_evals",
    "multiquery.private_evals",
    "multiquery.inferred_hits",
    "colstore.blocks_read",
    "colstore.blocks_total",
    "colstore.bytes_read",
    "colstore.rows_decoded",
};

/// Set-up rounds.  One runs before the loop; an untraced loop holds
/// more, evenly spaced, as many as kLoopSetupSeconds of set-up allows
/// within [kMinLoopSetupRounds, kMaxLoopSetupRounds].  Each round sets
/// up at least once and for at least kSetupRoundSeconds, so a cheap
/// set-up is sampled often across the run and an expensive one (the
/// 2 s `.sqlc` write) a few times.
constexpr double kSetupRoundSeconds = 0.1;
constexpr double kLoopSetupSeconds = 10.0;
constexpr int kMinLoopSetupRounds = 4;
constexpr int kMaxLoopSetupRounds = 16;

int LoopSetupRounds(const Samples& first_round) {
  const double round_s =
      std::max(first_round.Sum() / std::max<double>(1, first_round.count()),
               kSetupRoundSeconds);
  return std::clamp(static_cast<int>(kLoopSetupSeconds / round_s),
                    kMinLoopSetupRounds, kMaxLoopSetupRounds);
}

/// Facts of the measuring process's reference run that differ from the
/// set-up process's checked ones ("" when all agree).
std::string FactsDiffer(const std::map<std::string, double>& own,
                        const std::map<std::string, double>& checked) {
  for (const auto& [key, value] : own) {
    auto it = checked.find(key);
    if (it == checked.end() || it->second != value) {
      return key + " = " + std::to_string(value) + " here, " +
             (it == checked.end() ? "missing" : std::to_string(it->second)) +
             " in the checked run";
    }
  }
  return "";
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = Registry().at(args.workload)(args.work_dir);
  auto setup = SetupProcess::Start(w.get(), args.seed);
  if (!setup.ok()) {
    std::fprintf(stderr, "error: %s\n", setup.status().ToString().c_str());
    return 1;
  }

  // Set-up, then the output oracles on the reference run, in the child.
  // The measuring process then builds its own inputs and reference run,
  // which must agree with the checked one.
  Samples setup_s;
  std::map<std::string, double> facts;
  int64_t attempted = 1;  // the oracle pass
  int64_t failed = 0;
  sqlts::Status oracle = (*setup)->RunSetups(kSetupRoundSeconds, &setup_s);
  if (oracle.ok()) oracle = (*setup)->CheckOutputs(&facts);
  if (oracle.ok()) {
    w->Prepare(args.seed);
    std::map<std::string, double> own;
    oracle = w->Reference(&own);
    const std::string differ = oracle.ok() ? FactsDiffer(own, facts) : "";
    if (!differ.empty()) {
      oracle = sqlts::Status::Internal("reference run differs: " + differ);
    }
  }
  if (!oracle.ok()) {
    std::fprintf(stderr, "output oracle failed: %s\n",
                 oracle.ToString().c_str());
    ++failed;
  }

  // traced_ratio: each traced operation's time over that of the untraced
  // one just before it.  Adjacent operations share the host's state,
  // which medians taken over each kind separately do not.
  Samples untraced_ms, traced_ms, traced_ratio, op_tuples_per_s;
  int64_t tuples = 0, busy_total_ns = 0;
  Tracer tracer;
  auto record = [&](const OpOutcome& out, Samples* lat) {
    ++attempted;
    if (!out.status.ok() || !out.output_ok) {
      if (failed == 0) {
        std::fprintf(stderr, "operation failed: %s\n",
                     out.status.ok() ? "output check mismatch"
                                     : out.status.ToString().c_str());
      }
      ++failed;
      return;
    }
    lat->Add(static_cast<double>(out.latency_ns) / 1e6);
  };
  int rounds_done = 0;  // set-up rounds within the loop
  if (oracle.ok()) {
    // Warm-up: let caches fill before the clock starts.
    for (int i = 0; i < 2; ++i) (void)w->RunOp();
    const int64_t loop_ns = static_cast<int64_t>(args.seconds * 1e9);
    const int rounds = args.trace ? 0 : LoopSetupRounds(setup_s);
    int64_t start = NowNs();
    while (NowNs() - start < loop_ns) {
      if (rounds_done < rounds &&
          NowNs() - start >= loop_ns * (rounds_done + 1) / (rounds + 1)) {
        // A set-up round; the loop's clock stops meanwhile.
        const int64_t r0 = NowNs();
        sqlts::Status st = (*setup)->RunSetups(kSetupRoundSeconds, &setup_s);
        ++rounds_done;
        start += NowNs() - r0;
        if (!st.ok()) {
          std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
          ++attempted;
          ++failed;
          break;
        }
        continue;
      }
      OpOutcome out = w->RunOp();
      record(out, &untraced_ms);
      tuples += out.tuples;
      const int64_t busy_ns =
          out.throughput_ns >= 0 ? out.throughput_ns : out.latency_ns;
      busy_total_ns += busy_ns;
      if (out.status.ok() && busy_ns > 0) {
        op_tuples_per_s.Add(static_cast<double>(out.tuples) * 1e9 /
                            static_cast<double>(busy_ns));
      }
      if (args.trace) {
        OpOutcome traced = w->RunTraced(&tracer);
        record(traced, &traced_ms);
        if (out.latency_ns > 0) {
          traced_ratio.Add(static_cast<double>(traced.latency_ns) /
                           static_cast<double>(out.latency_ns));
        }
      }
    }
  }
  if (sqlts::Status st = (*setup)->Stop(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    ++failed;
  }
  bool correct = oracle.ok() && failed == 0;
  const int setup_rounds = rounds_done + 1;

  // `metrics` go on the result line; `info` only into the report and
  // the details line.
  std::vector<Metric> metrics, info;
  const std::string op = w->op_name();
  const std::string lat = w->latency_name();
  const double tail_pct = untraced_ms.TailPct();
  if (!args.trace) {
    const std::string of_n =
        " over " + std::to_string(untraced_ms.count()) + " ops";
    metrics = {
        {"setup_s", setup_s.Median(), "s",
         "median of " + std::to_string(setup_s.count()) + " set-ups in " +
             std::to_string(setup_rounds) + " rounds"},
        {"op_ms_p90", untraced_ms.Percentile(90.0), "ms", "p90" + of_n},
        {"tuples_per_s", op_tuples_per_s.Percentile(10.0), "1/s",
         "p10 over ops of tuples consumed / busy time"},
        {"peak_rss_mb", PeakRssMb(), "MB",
         "getrusage, measuring process (set-up and oracles excluded)"},
    };
    char pct[16];
    std::snprintf(pct, sizeof(pct), "p%g", tail_pct);
    info = {
        {lat + "_p10", untraced_ms.Percentile(10.0), "ms", "p10" + of_n},
        {lat + "_p50", untraced_ms.Median(), "ms", "p50" + of_n},
        {lat + "_tail", untraced_ms.Percentile(tail_pct), "ms",
         pct + of_n},
        {lat + "_mean", untraced_ms.Mean(), "ms", "mean" + of_n},
        {"tuples_per_s_overall",
         busy_total_ns > 0 ? static_cast<double>(tuples) * 1e9 /
                                 static_cast<double>(busy_total_ns)
                           : 0.0,
         "1/s", "all tuples consumed / all busy time"},
    };
  } else {
    const double n = std::max<double>(1, tracer.ops().size());
    std::vector<double> layer_ms(kNumLayers, 0.0);
    double wall_ms = 0;
    for (const Tracer::OpRecord& rec : tracer.ops()) {
      wall_ms += static_cast<double>(rec.end_ns - rec.start_ns) / 1e6 / n;
      for (int l = 0; l < kNumLayers; ++l) {
        layer_ms[l] += static_cast<double>(rec.layer_ns[l]) / 1e6 / n;
      }
    }
    double spans_ms = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      spans_ms += layer_ms[l];
      const Layer layer = static_cast<Layer>(l);
      if (layer == Layer::kStreamPush) continue;  // reported per tuple
      metrics.push_back(
          {LayerMetricName(layer), layer_ms[l], "ms", "mean per " + op});
    }
    for (const char* name : kPerOpCounts) {
      metrics.push_back({name, tracer.count(name) / n, "count", "per " + op});
    }
    const double tuples_per_op =
        static_cast<double>(tuples) /
        std::max<double>(1, untraced_ms.count());
    const double tests = tracer.count("engine.tests") / n;
    metrics.push_back({"engine.tests_per_tuple",
                       tuples_per_op > 0 ? tests / tuples_per_op : 0.0,
                       "ratio", "tests / tuples consumed"});
    const double lookups = tracer.count("multiquery.shared_lookups");
    metrics.push_back(
        {"multiquery.dedup_hit_rate",
         lookups > 0 ? tracer.count("multiquery.cache_hits") / lookups : 0.0,
         "ratio", "cache hits / shared lookups"});
    const double blocks = tracer.count("colstore.blocks_total");
    metrics.push_back(
        {"colstore.block_skip_ratio",
         blocks > 0 ? 1.0 - tracer.count("colstore.blocks_read") / blocks
                    : 0.0,
         "ratio", "blocks skipped / blocks total"});
    metrics.push_back(
        {"engine.stream_push_ns",
         tuples_per_op > 0
             ? layer_ms[static_cast<int>(Layer::kStreamPush)] * 1e6 /
                   tuples_per_op
             : 0.0,
         "ns", "mean StreamingQueryExecutor::Push per tuple"});
    std::map<std::string, double> extra;
    if (correct) w->ExtraLayerMetrics(&extra);
    metrics.push_back({"engine.stream_matcher_push_ns",
                       extra["engine.stream_matcher_push_ns"], "ns",
                       "OpsStreamMatcher::Push per tuple, one instrument"});
    metrics.push_back({"other_ms", wall_ms - spans_ms, "ms",
                       "traced wall - all spans, per " + op});
    metrics.push_back(
        {"trace.wall_ms", wall_ms, "ms", "mean traced wall per " + op});
    const double overhead =
        traced_ratio.count() > 0 ? traced_ratio.Median() - 1.0 : 0.0;
    metrics.push_back({"trace_overhead_frac", overhead, "ratio",
                       "median over pairs of traced / untraced - 1"});
    // A replay that no longer takes as long as the public call no longer
    // times what the call does: fail rather than report a stale split.
    if (std::fabs(overhead) > w->max_trace_overhead()) {
      std::fprintf(stderr,
                   "trace_overhead_frac %.4f is outside +-%.2f: the replay "
                   "has drifted from the public call\n",
                   overhead, w->max_trace_overhead());
      ++attempted;
      ++failed;
      correct = false;
    }
    const std::string spans_path = args.work_dir + "/trace_" + args.workload +
                                   "_seed" + std::to_string(args.seed) +
                                   ".jsonl";
    sqlts::Status wrote = tracer.WriteJsonl(spans_path);
    std::fprintf(stderr, "spans: %s (%s)\n", spans_path.c_str(),
                 wrote.ok() ? "written" : wrote.ToString().c_str());
  }
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  info.push_back({"failed_frac", failed_frac, "ratio",
                  std::to_string(failed) + " of " + std::to_string(attempted) +
                      " operations (oracle pass included)"});

  // Human-readable report: every metric by name with its unit.
  std::printf("== %s  seed=%llu  trace=%d  %g s  %s ==\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, args.seconds,
              correct ? "outputs correct" : "OUTPUTS WRONG");
  for (const std::vector<Metric>* list : {&metrics, &info}) {
    for (const Metric& m : *list) {
      std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }

  std::string details =
      "{\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"op\": " + JsonString(op) +
      ", \"ops_untraced\": " + std::to_string(untraced_ms.count()) +
      ", \"ops_traced\": " + std::to_string(traced_ms.count()) +
      ", \"setup_reps\": " + std::to_string(setup_s.count()) +
      ", \"tail_pct\": " + JsonNumber(tail_pct) + ", \"info\": {";
  for (size_t i = 0; i < info.size(); ++i) {
    details += (i > 0 ? ", " : "") + JsonString(info[i].name) + ": " +
               JsonNumber(info[i].value);
  }
  details += "}, \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : facts) {
    details += (first ? "" : ", ") + JsonString(k) + ": " + JsonNumber(v);
    first = false;
  }
  details += "}}";
  std::printf("details: %s\n", details.c_str());

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  return e2e::Run(e2e::ParseArgs(argc, argv));
}
