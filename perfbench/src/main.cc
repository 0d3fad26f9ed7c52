// perfbench entry point.
//
//   perfbench --workload <fig1|leaf_sweep|serve_open|fig1_ft> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>] [--revision <rev>]
//
// Prints a `perfbench-record {...}` line (build stamp, layout, phase
// notes, every metric) and, as the last stdout line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names and units).
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics; a layer a workload does not exercise, or that the
// workload's API does not expose, reports 0 (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"mpi.msgs_per_op", "count"},
    {"mpi.bytes_per_op", "B"},
    {"mpi.wakeups_per_msg", "count"},
    {"adlb.data_ops_per_op", "count"},
    {"adlb.notifications_per_op", "count"},
    {"adlb.server_busy_frac", "frac"},
    {"adlb.get_wait_frac", "frac"},
    {"adlb.pipeline_ops_per_op", "count"},
    {"adlb.pipeline_stall_frac", "frac"},
    {"adlb.cache_hit_frac", "frac"},
    {"turbine.rules_per_op", "count"},
    {"turbine.subscribes_per_op", "count"},
    {"turbine.fired_immediately_frac", "frac"},
    {"turbine.engine_busy_frac", "frac"},
    {"turbine.engine_task_us", "us"},
    {"turbine.worker_busy_frac", "frac"},
    {"turbine.worker_task_us", "us"},
    {"tcl.compile_hit_frac", "frac"},
    {"tcl.bailouts", "count"},
    {"tcl.action_us", "us"},
    {"python.eval_us", "us"},
    {"python.evals_per_op", "count"},
    {"rlang.eval_us", "us"},
    {"rlang.evals_per_op", "count"},
    {"swift.compile_ms", "ms"},
    {"runtime.world_up_ms", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.exec_ms.p50", "ms"},
    {"serve.msgs_per_req", "count"},
    {"serve.program_cache_hit_frac", "frac"},
    {"serve.gen_late_ms.p99", "ms"},
    {"serve.lat_p50_ms.high", "ms"},
    {"serve.lat_p99_ms.low", "ms"},
    {"serve.lat_p99_ms.high", "ms"},
    {"serve.achieved_rps.high", "1/s"},
    {"serve.capacity_rps", "1/s"},
    {"ckpt.writes_per_kop", "count"},
    {"ckpt.write_ms", "ms"},
    {"ckpt.bytes_per_write", "B"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.events_dropped", "count"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fig1|leaf_sweep|serve_open|fig1_ft> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] [--revision <rev>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Args args;
  std::string revision = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--workdir") {
      args.workdir = val;
    } else if (key == "--revision") {
      revision = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  const bool serve = args.workload == "serve_open";
  if (!serve && args.workload != "fig1" && args.workload != "leaf_sweep" &&
      args.workload != "fig1_ft") {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }

  Outcome out;
  try {
    out = serve ? run_serve_workload(args) : run_batch_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const Layout layout = serve ? serve_layout() : batch_layout();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricDef& def, double value) {
    metrics << (first ? "" : ", ") << json_string(def.name) << ": {\"value\": " << json_number(value)
            << ", \"unit\": " << json_string(def.unit) << "}";
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) {
      auto it = out.metrics.find(def.name);
      emit(def, it == out.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      auto it = out.metrics.find(def.name);
      if (it == out.metrics.end()) {
        std::fprintf(stderr, "perfbench: %s did not measure %s\n", args.workload.c_str(), def.name);
        return 3;
      }
      emit(def, it->second);
    }
  }

  std::ostringstream record;
  record << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
         << ", \"seconds\": " << json_number(args.seconds) << ", \"trace\": " << args.trace
         << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
         << ", \"compiler\": " << json_string(__VERSION__) << ", \"nproc\": " << nproc
         << ", \"layout\": " << json_string(layout.describe())
         << ", \"busy_threads\": " << layout.busy_threads
         << ", \"oversubscribed\": " << (nproc > 0 && layout.busy_threads > static_cast<int>(nproc) ? "true" : "false")
         << ", \"revision\": " << json_string(revision) << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"notes\": {";
  first = true;
  for (const auto& [key, value] : out.notes) {
    if (key == "ledger") continue;  // printed raw below
    record << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  record << "}, \"all_metrics\": {";
  first = true;
  for (const auto& [key, value] : out.metrics) {
    record << (first ? "" : ", ") << json_string(key) << ": " << json_number(value);
    first = false;
  }
  record << "}}";
  std::printf("perfbench-record %s\n", record.str().c_str());
  if (auto it = out.notes.find("ledger"); it != out.notes.end()) {
    std::printf("perfbench-ledger %s\n", it->second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(out.attempted, 1)),
              static_cast<unsigned long long>(out.failed), metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}
