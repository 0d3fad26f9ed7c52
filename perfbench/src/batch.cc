// The batch workloads: fig1, leaf_sweep and fig1_ft. Each runs one fixed
// size job (a whole Swift program through runtime::run_program or
// runtime::run_with_faults) repeatedly for the measurement window and
// checks every job's output against a reference computed here.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "perfbench.h"
#include "runtime/runner.h"
#include "swift/compiler.h"

namespace perfbench {

namespace {

using ilps::runtime::RunResult;

// Job sizes: large enough that a job is dominated by steady-state
// dataflow rather than world bring-up, small enough that a run holds a
// dozen or more jobs whose median is the reported figure.
constexpr int64_t kFig1Pipelines = 2048;
constexpr int64_t kFig1FtPipelines = 1024;
constexpr int64_t kSweepPoints = 400;
constexpr int kSetupReps = 101;
constexpr double kWarmupSeconds = 1.5;

struct Job {
  int64_t ops = 0;
  bool ft = false;
  std::string swift;
  std::vector<std::string> expected;  // sorted output lines
};

std::string fig1_source(int64_t lo, int64_t hi) {
  return "(int o) f (int i) [ \"set <<o>> [ expr <<i>> * <<i>> ]\" ];\n"
         "(int o) g (int t) [ \"set <<o>> [ expr <<t>> % 3 ]\" ];\n"
         "foreach i in [" +
         std::to_string(lo) + ":" + std::to_string(hi) +
         "] {\n"
         "  int t = f(i);\n"
         "  int gt = g(t);\n"
         "  if (gt == 0) { printf(\"g(%d) == 0\", t); }\n"
         "}\n";
}

Job make_job(const Args& args) {
  Job job;
  if (args.workload == "fig1" || args.workload == "fig1_ft") {
    job.ft = args.workload == "fig1_ft";
    job.ops = job.ft ? kFig1FtPipelines : kFig1Pipelines;
    // The seed shifts the iteration range, so each seed prints a
    // different set of squares.
    const int64_t lo = static_cast<int64_t>(args.seed % 1000);
    job.swift = fig1_source(lo, lo + job.ops - 1);
    for (int64_t i = lo; i < lo + job.ops; ++i) {
      if ((i * i) % 3 == 0) job.expected.push_back("g(" + std::to_string(i * i) + ") == 0");
    }
  } else if (args.workload == "leaf_sweep") {
    const SweepShape shape(args.seed);
    job.ops = kSweepPoints;
    // Same snippets as SweepShape::python_code/r_code, built in Swift from
    // the point index (sprintf turns %% into %).
    job.swift = "foreach i in [0:" + std::to_string(job.ops - 1) +
                "] {\n"
                "  int n = (i * " +
                std::to_string(shape.a) + " + " + std::to_string(shape.b) + ") % " +
                std::to_string(SweepShape::kSpan) + " + " + std::to_string(SweepShape::kBase) +
                ";\n"
                "  string p = python(sprintf(\"s = 0\\nfor k in range(%d): s = s + (k * k + %d) "
                "%% 97\", n, i), \"s\");\n"
                "  string q = r(sprintf(\"x <- sum((1:%d) %%%% 13) + %d\", n, i), \"x\");\n"
                "  printf(\"p %d %s %s\", i, p, q);\n"
                "}\n";
    for (int64_t i = 0; i < job.ops; ++i) {
      const int64_t n = shape.size(i);
      job.expected.push_back("p " + std::to_string(i) + " " +
                             std::to_string(SweepShape::python_ref(n, i)) + " " +
                             std::to_string(SweepShape::r_ref(n, i)));
    }
  } else {
    throw std::runtime_error("unknown batch workload " + args.workload);
  }
  std::sort(job.expected.begin(), job.expected.end());
  return job;
}

ilps::runtime::Config config_for(const Job& job) {
  ilps::runtime::Config cfg;
  const Layout l = batch_layout();
  cfg.engines = l.engines;
  cfg.workers = l.workers;
  cfg.servers = l.servers;
  if (job.ft) {
    cfg.ckpt_interval = 256;         // completed leaf tasks per checkpoint
    cfg.heartbeat_timeout_ms = 5000; // far above any leaf task here
  }
  return cfg;
}

// Runs `tcl` once in the job's layout. Fault-tolerant jobs get a fresh
// checkpoint directory that is removed afterwards: a reused one would
// restore and skip work, measuring replay instead of execution.
RunResult run_once(const Job& job, const Args& args, const std::string& tcl) {
  ilps::runtime::Config cfg = config_for(job);
  if (!job.ft) return ilps::runtime::run_program(cfg, tcl);
  static int serial = 0;
  const std::filesystem::path dir = std::filesystem::path(args.workdir) /
                                    ("ckpt-" + std::to_string(getpid()) + "-" +
                                     std::to_string(serial++));
  std::filesystem::remove_all(dir);
  cfg.ckpt_dir = dir.string();
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};
  return ilps::runtime::run_with_faults(cfg, tcl);
}

// Wrong-output operations of one job: lines missing or extra against the
// reference, or the whole job when a fault-tolerance invariant breaks.
uint64_t count_wrong(const Job& job, const RunResult& r) {
  std::vector<std::string> got = r.lines;
  std::sort(got.begin(), got.end());
  std::vector<std::string> diff;
  std::set_symmetric_difference(got.begin(), got.end(), job.expected.begin(),
                                job.expected.end(), std::back_inserter(diff));
  uint64_t wrong = diff.size();
  if (job.ft && (r.server_stats.checkpoints == 0 || r.ft.attempts != 1 ||
                 r.server_stats.replay_skips != 0)) {
    std::fprintf(stderr, "fig1_ft: checkpoints=%llu attempts=%d replay_skips=%llu\n",
                 static_cast<unsigned long long>(r.server_stats.checkpoints), r.ft.attempts,
                 static_cast<unsigned long long>(r.server_stats.replay_skips));
    wrong = static_cast<uint64_t>(job.ops);
  }
  return std::min<uint64_t>(wrong, static_cast<uint64_t>(job.ops));
}

// Counters summed over the traced jobs.
struct Totals {
  uint64_t jobs = 0, messages = 0, bytes = 0, wakeups = 0, data_ops = 0, notifications = 0;
  uint64_t pipeline_ops = 0, pipeline_flushes = 0, pipeline_stalls = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t rules_fired = 0, fired_immediately = 0, subscribes = 0;
  uint64_t tcl_hits = 0, tcl_misses = 0, tcl_bailouts = 0;
  uint64_t python_evals = 0, r_evals = 0, checkpoints = 0;

  void add(const RunResult& r) {
    ++jobs;
    messages += r.traffic.messages;
    bytes += r.traffic.bytes;
    wakeups += r.traffic.wakeups;
    data_ops += r.server_stats.data_ops;
    notifications += r.server_stats.notifications;
    pipeline_ops += r.pipeline_stats.ops;
    pipeline_flushes += r.pipeline_stats.flushes;
    pipeline_stalls += r.pipeline_stats.stalls;
    cache_hits += r.cache_stats.hits;
    cache_misses += r.cache_stats.misses;
    rules_fired += r.engine_stats.rules_fired;
    fired_immediately += r.engine_stats.rules_fired_immediately;
    subscribes += r.engine_stats.subscribes;
    tcl_hits += r.tcl_stats.hits;
    tcl_misses += r.tcl_stats.misses;
    tcl_bailouts += r.tcl_stats.bailouts;
    python_evals += r.worker_stats.python_evals;
    r_evals += r.worker_stats.r_evals;
    checkpoints += r.server_stats.checkpoints;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Wall seconds of jobs run back to back until `budget` seconds pass.
struct Pass {
  std::vector<double> walls;
  double rate(int64_t ops) const { return ratio(static_cast<double>(ops), median(walls)); }
};

class BatchRunner {
 public:
  BatchRunner(const Args& args, Outcome& out) : args_(args), out_(out), job_(make_job(args)) {}

  // Warm-up, then set-up timing: the median over many compiles of the
  // job's program plus empty-program worlds in the same layout.
  void setup() {
    tcl_ = ilps::swift::compile(job_.swift);
    // Warm-up: first-touch allocation, interpreter start, and the burst a
    // virtual machine that was idle gives its first seconds under load.
    const double start = now();
    while (now() - start < kWarmupSeconds) run_job(nullptr);
    std::vector<double> total, compile, world;
    const std::string empty = ilps::swift::compile("");
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const double t0 = now();
      tcl_ = ilps::swift::compile(job_.swift);
      const double t1 = now();
      run_once(job_, args_, empty);
      const double t2 = now();
      total.push_back(t2 - t0);
      compile.push_back(t1 - t0);
      world.push_back(t2 - t1);
    }
    setup_s_ = median(total);
    compile_ms_ = median(compile) * 1e3;
    world_up_ms_ = median(world) * 1e3;
  }

  // Runs one job; returns its wall time. Failures count against the job's
  // operations; `keep` receives the result for traced accounting.
  double run_job(RunResult* keep) {
    const double t0 = now();
    RunResult r;
    uint64_t wrong = 0;
    try {
      r = run_once(job_, args_, tcl_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: job failed: %s\n", args_.workload.c_str(), e.what());
      wrong = static_cast<uint64_t>(job_.ops);
    }
    const double wall = now() - t0;
    if (wrong == 0) wrong = count_wrong(job_, r);
    out_.attempted += static_cast<uint64_t>(job_.ops);
    out_.failed += wrong;
    if (keep != nullptr) *keep = std::move(r);
    return wall;
  }

  Pass untraced(double budget) {
    Pass p;
    const double start = now();
    while (p.walls.empty() || now() - start < budget) p.walls.push_back(run_job(nullptr));
    return p;
  }

  // Traced jobs: each job's merged trace is reduced into the ledger and
  // dropped. The per-rank ring is sized so nothing is overwritten; a
  // ring that filled is counted in obs.events_dropped (one lost event at
  // least) and doubled for the next job.
  Pass traced(double budget, Totals& totals, Ledger& ledger, uint64_t& dropped) {
    Pass p;
    constexpr size_t kMaxRing = size_t{1} << 21;  // events per rank (80 MiB)
    size_t cap = size_t{1} << 17;
    ilps::obs::set_trace_enabled(true);
    const double start = now();
    while (p.walls.empty() || now() - start < budget) {
      setenv("ILPS_TRACE_BUF", std::to_string(cap).c_str(), 1);
      RunResult r;
      const double wall = run_job(&r);
      const int nranks = config_for(job_).total_ranks();
      std::vector<uint64_t> per_rank(static_cast<size_t>(nranks), 0);
      for (const auto& e : r.trace) {
        if (e.rank >= 0 && e.rank < nranks) ++per_rank[static_cast<size_t>(e.rank)];
      }
      if (*std::max_element(per_rank.begin(), per_rank.end()) >= cap) {
        // The first job probes the size: discard it and retry larger.
        if (p.walls.empty() && cap < kMaxRing) {
          cap *= 2;
          continue;
        }
        for (uint64_t n : per_rank) dropped += n >= cap ? 1 : 0;
        cap = std::min(cap * 2, kMaxRing);
      }
      p.walls.push_back(wall);
      totals.add(r);
      ledger.add(r.trace, nranks);
    }
    ilps::obs::set_trace_enabled(false);
    unsetenv("ILPS_TRACE_BUF");
    return p;
  }

  void report_end_to_end(const Pass& p) {
    out_.metrics["ops_per_s"] = p.rate(job_.ops);
    out_.metrics["latency_p50_ms"] = median(p.walls) * 1e3;
    out_.metrics["setup_s"] = setup_s_;
    char buf[160];
    std::snprintf(buf, sizeof buf, "n=%zu min=%.1f p25=%.1f median=%.1f p75=%.1f max=%.1f",
                  p.walls.size(), percentile(p.walls, 0) * 1e3, percentile(p.walls, 25) * 1e3,
                  median(p.walls) * 1e3, percentile(p.walls, 75) * 1e3,
                  percentile(p.walls, 100) * 1e3);
    out_.notes["job_ms"] = buf;
  }

  void report_layers(const Pass& untraced, const Pass& traced, const Totals& t,
                     const Ledger& led, uint64_t dropped) {
    using K = ilps::obs::EventKind;
    auto& m = out_.metrics;
    const double ops = static_cast<double>(t.jobs) * static_cast<double>(job_.ops);
    const ilps::runtime::Config cfg = config_for(job_);
    const std::vector<std::string> roles = ilps::runtime::role_names(cfg);
    int engine = -1, server = -1;
    std::vector<int> workers;
    for (int r = 0; r < static_cast<int>(roles.size()); ++r) {
      if (roles[r] == "engine" && engine < 0) engine = r;
      if (roles[r] == "server" && server < 0) server = r;
      if (roles[r] == "worker") workers.push_back(r);
    }
    double w_wait = 0, w_run = 0, w_wall = 0;
    uint64_t w_tasks = 0;
    for (int w : workers) {
      w_wait += led.self(w, K::kAdlbGetWait);
      w_run += led.self(w, K::kTaskRun);
      w_wall += led.wall(w);
      w_tasks += led.spans(w, K::kTaskRun);
    }
    double ckpt_s = 0;
    uint64_t ckpt_n = 0;
    for (int r = 0; r < static_cast<int>(roles.size()); ++r) {
      ckpt_s += led.self(r, K::kCkptWrite);
      ckpt_n += led.spans(r, K::kCkptWrite);
    }

    m["mpi.msgs_per_op"] = ratio(static_cast<double>(t.messages), ops);
    m["mpi.bytes_per_op"] = ratio(static_cast<double>(t.bytes), ops);
    m["mpi.wakeups_per_msg"] = ratio(static_cast<double>(t.wakeups), static_cast<double>(t.messages));
    m["adlb.data_ops_per_op"] = ratio(static_cast<double>(t.data_ops), ops);
    m["adlb.notifications_per_op"] = ratio(static_cast<double>(t.notifications), ops);
    m["adlb.server_busy_frac"] = ratio(led.self(server, K::kServerHandle), led.wall(server));
    m["adlb.get_wait_frac"] = ratio(w_wait, w_wall);
    m["adlb.pipeline_ops_per_op"] = ratio(static_cast<double>(t.pipeline_ops), ops);
    m["adlb.pipeline_stall_frac"] =
        ratio(static_cast<double>(t.pipeline_stalls), static_cast<double>(t.pipeline_flushes));
    m["adlb.cache_hit_frac"] = ratio(static_cast<double>(t.cache_hits),
                                     static_cast<double>(t.cache_hits + t.cache_misses));
    m["turbine.rules_per_op"] = ratio(static_cast<double>(t.rules_fired), ops);
    m["turbine.subscribes_per_op"] = ratio(static_cast<double>(t.subscribes), ops);
    m["turbine.fired_immediately_frac"] =
        ratio(static_cast<double>(t.fired_immediately), static_cast<double>(t.rules_fired));
    m["turbine.engine_busy_frac"] = 1.0 - ratio(led.self(engine, K::kAdlbGetWait), led.wall(engine));
    m["turbine.engine_task_us"] =
        ratio(led.self(engine, K::kTaskRun), static_cast<double>(led.spans(engine, K::kTaskRun))) * 1e6;
    m["turbine.worker_busy_frac"] = ratio(w_run, w_wall);
    m["turbine.worker_task_us"] = ratio(w_run, static_cast<double>(w_tasks)) * 1e6;
    m["tcl.compile_hit_frac"] =
        ratio(static_cast<double>(t.tcl_hits), static_cast<double>(t.tcl_hits + t.tcl_misses));
    m["tcl.bailouts"] = ratio(static_cast<double>(t.tcl_bailouts), static_cast<double>(t.jobs));
    m["python.evals_per_op"] = ratio(static_cast<double>(t.python_evals), ops);
    m["rlang.evals_per_op"] = ratio(static_cast<double>(t.r_evals), ops);
    m["swift.compile_ms"] = compile_ms_;
    m["runtime.world_up_ms"] = world_up_ms_;
    m["ckpt.writes_per_kop"] = ratio(static_cast<double>(t.checkpoints), ops) * 1e3;
    m["ckpt.write_ms"] = ratio(ckpt_s, static_cast<double>(ckpt_n)) * 1e3;
    m["ckpt.bytes_per_write"] = ratio(static_cast<double>(led.ckpt_bytes), static_cast<double>(ckpt_n));
    m["obs.trace_overhead_frac"] = 1.0 - ratio(traced.rate(job_.ops), untraced.rate(job_.ops));
    m["obs.events_dropped"] = static_cast<double>(dropped);

    // The critical rank: the client rank that waits least for work, or
    // the server when it is busier still.
    int critical = engine;
    double busiest = -1;
    for (int r = 0; r < static_cast<int>(roles.size()); ++r) {
      const double busy = r == server ? ratio(led.self(r, K::kServerHandle), led.wall(r))
                                      : 1.0 - ratio(led.self(r, K::kAdlbGetWait), led.wall(r));
      if (busy > busiest) {
        busiest = busy;
        critical = r;
      }
    }
    out_.notes["critical_rank"] = std::to_string(critical) + ":" + roles[static_cast<size_t>(critical)];
    out_.notes["ledger"] = led.to_json(roles);
    out_.notes["jobs_untraced"] = std::to_string(untraced.walls.size());
    out_.notes["jobs_traced"] = std::to_string(traced.walls.size());
  }

 private:
  const Args& args_;
  Outcome& out_;
  Job job_;
  std::string tcl_;
  double setup_s_ = 0, compile_ms_ = 0, world_up_ms_ = 0;
};

}  // namespace

Layout batch_layout() {
  Layout l;
  l.engines = 1;
  l.workers = 2;
  l.servers = 1;
  l.busy_threads = l.engines + l.workers + l.servers;
  return l;
}

Outcome run_batch_workload(const Args& args) {
  Outcome out;
  BatchRunner runner(args, out);
  const double start = now();
  runner.setup();
  const double left = std::max(1.0, args.seconds - (now() - start));
  if (!args.trace) {
    const Pass p = runner.untraced(left);
    runner.report_end_to_end(p);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }
  measure_standalone_layers(args.seed, out);
  const Pass u = runner.untraced(left / 2);
  Totals totals;
  Ledger ledger;
  uint64_t dropped = 0;
  const Pass t = runner.traced(left / 2, totals, ledger, dropped);
  runner.report_layers(u, t, totals, ledger, dropped);
  return out;
}

}  // namespace perfbench
