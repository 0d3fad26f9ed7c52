// The serve_open workload: the resident serve::Service under an open-loop
// arrival schedule. Two fixed-rate phases (low, high) report latency from
// each request's due time; a closed-window phase gives the saturated
// completion rate; a short rate ladder finds the highest rate that meets
// the latency limit without a growing backlog.
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "serve/serve.h"
#include "swift/compiler.h"

namespace perfbench {

namespace {

using ilps::serve::RequestHandle;
using ilps::serve::RequestResult;
using ilps::serve::Service;

constexpr double kLowRps = 700;
constexpr double kHighRps = 2000;
constexpr double kLadderRps[] = {1000, 1500, 2000, 2500, 3000, 4000, 5000};
constexpr double kLatencyLimitS = 0.010;  // ladder p99 limit
constexpr double kLateLimitS = 0.001;     // generator p99 lateness that voids a phase
constexpr double kSliceSeconds = 1.0;     // one low/high/saturated slice triple
constexpr size_t kWindow = 128;           // closed-window depth of the saturation phase
constexpr int kSetupReps = 9;
// Saturating load before measuring. A virtual machine that was idle runs
// rank handoffs much faster for its first second or two under load; the
// phases measure the sustained state instead.
constexpr double kWarmupSeconds = 2.0;
constexpr int kWarmupPerProgram = 16;

// Rank indices of the serve layout (engines, workers, ingress, servers).
constexpr int kEngineRank = 0;
constexpr int kWorkerRank = 1;
constexpr int kServerRank = 3;

struct Program {
  std::string source;
  std::vector<std::string> expected;  // sorted output lines
  int weight = 1;                     // share of requests, in twentieths
};

// The request mix: the bench_serve request for half the traffic plus four
// small programs whose constants come from the seed — arithmetic, a worker
// leaf task, string building and a short foreach fan-out. The fan-out
// costs several times the others per request, so it is rare; the mix
// keeps the saturated rate well above the high phase's offered rate.
std::vector<Program> request_mix(uint64_t seed) {
  ilps::Rng rng(seed * 0x2545F4914F6CDD1Dull + 3);
  auto pick = [&] { return static_cast<int64_t>(rng.next_u64() % 900) + 100; };
  const int64_t c1 = pick(), c2 = pick(), c3 = pick(), c4 = pick();
  std::vector<Program> mix;
  mix.push_back({"int x = 1;\nprintf(\"v=%d\", x);\n", {"v=1"}, 10});
  mix.push_back({"int a = " + std::to_string(c1) + ";\nint b = a * 7;\nprintf(\"p=%d\", b);\n",
                 {"p=" + std::to_string(c1 * 7)}, 3});
  mix.push_back({"(int o) f (int i) [ \"set <<o>> [ expr <<i>> + 1 ]\" ];\nint y = f(" +
                     std::to_string(c2) + ");\nprintf(\"f=%d\", y);\n",
                 {"f=" + std::to_string(c2 + 1)}, 3});
  mix.push_back({"string s = strcat(\"k\", \"" + std::to_string(c4) + "\");\nprintf(\"s=%s\", s);\n",
                 {"s=k" + std::to_string(c4)}, 3});
  Program fan{"foreach i in [0:3] { printf(\"i=%d\", i * " + std::to_string(c3) + "); }\n", {}, 1};
  for (int64_t i = 0; i < 4; ++i) fan.expected.push_back("i=" + std::to_string(i * c3));
  mix.push_back(fan);
  for (auto& p : mix) std::sort(p.expected.begin(), p.expected.end());
  return mix;
}

size_t pick_program(ilps::Rng& rng, const std::vector<Program>& mix) {
  int u = static_cast<int>(rng.next_u64() % 20);
  for (size_t i = 0; i < mix.size(); ++i) {
    if (u < mix[i].weight) return i;
    u -= mix[i].weight;
  }
  return 0;
}

bool output_ok(const RequestResult& r, const Program& p) {
  if (!r.ok()) return false;
  std::vector<std::string> got = r.lines;
  std::sort(got.begin(), got.end());
  return got == p.expected;
}

ilps::serve::ServeConfig service_config() {
  ilps::serve::ServeConfig cfg;
  const Layout l = serve_layout();
  cfg.runtime.engines = l.engines;
  cfg.runtime.workers = l.workers;
  cfg.runtime.servers = l.servers;
  cfg.max_inflight = size_t{1} << 20;  // open loop: admission never pushes back
  cfg.admission = ilps::serve::AdmissionPolicy::kBlock;
  cfg.trace_sample_every = 1;  // capture every request when tracing is on
  return cfg;
}

std::set<int> thread_ids() {
  std::set<int> ids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* ent = readdir(d)) {
      if (ent->d_name[0] != '.') ids.insert(std::atoi(ent->d_name));
    }
    closedir(d);
  }
  return ids;
}

// Binds the rank threads a service started one per core, as an MPI
// launcher binds ranks. Left to the scheduler, rank handoffs run up to
// twice as fast whenever it happens to stack the ranks on one core, so
// unbound runs of the same code differ by 2x from run to run. `before`
// holds the thread ids that existed before the service was built; the
// lowest new id is the service's world thread, which only joins the
// ranks, and the rest are the ranks in creation order.
void bind_rank_threads(const std::set<int>& before) {
  int next = 0;
  bool world_thread = true;
  for (int tid : thread_ids()) {
    if (before.count(tid) != 0) continue;
    if (world_thread) {
      world_thread = false;
      continue;
    }
    bind_thread(tid, next++);
  }
}

// Voluntary context switches of every thread in the process except the
// calling one: how often the rank threads slept and were woken.
uint64_t rank_thread_sleeps() {
  uint64_t total = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* ent = readdir(d)) {
      if (ent->d_name[0] == '.') continue;
      std::ifstream in(std::string("/proc/self/task/") + ent->d_name + "/status");
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
          total += std::stoull(line.substr(line.find(':') + 1));
        }
      }
    }
    closedir(d);
  }
  struct rusage ru {};
  getrusage(RUSAGE_THREAD, &ru);
  const uint64_t self = static_cast<uint64_t>(ru.ru_nvcsw);
  return total > self ? total - self : 0;
}

double busy_gauge(int rank) {
  const std::string name = "rank.busy_seconds.r" + std::to_string(rank);
  for (const auto& [key, value] : ilps::obs::metrics().gauges()) {
    if (key == name) return value;
  }
  return 0;
}

// What the traced requests of a phase did, from their RequestTraceSummary
// and captured events.
struct TraceDigest {
  std::vector<double> queue_s, exec_s;
  uint64_t requests = 0, messages = 0, bytes = 0, rule_fires = 0;
  uint64_t subscribes = 0, notifies = 0, capped = 0;
  double engine_run_s = 0, worker_run_s = 0;
  uint64_t engine_runs = 0, worker_runs = 0;

  void add(const RequestResult& r) {
    const auto& s = r.trace_summary;
    ++requests;
    queue_s.push_back(s.queue_seconds);
    exec_s.push_back(s.exec_seconds);
    messages += s.mpi_messages;
    bytes += s.mpi_bytes;
    rule_fires += s.rule_fires;
    if (s.events >= ilps::obs::kReqCaptureCap) ++capped;
    std::vector<double> open[2];
    for (const auto& e : r.trace) {
      if (e.kind == ilps::obs::EventKind::kDataSubscribe) ++subscribes;
      if (e.kind == ilps::obs::EventKind::kDataNotify) ++notifies;
      if (e.kind != ilps::obs::EventKind::kTaskRun) continue;
      if (e.rank != kEngineRank && e.rank != kWorkerRank) continue;
      auto& stack = open[e.rank == kEngineRank ? 0 : 1];
      if (e.ph == ilps::obs::Phase::kBegin) {
        stack.push_back(e.t);
      } else if (e.ph == ilps::obs::Phase::kEnd && !stack.empty()) {
        const double dur = e.t - stack.back();
        stack.pop_back();
        (e.rank == kEngineRank ? engine_run_s : worker_run_s) += dur;
        ++(e.rank == kEngineRank ? engine_runs : worker_runs);
      }
    }
  }
};

// One offered rate, accumulated over one or more open-loop slices.
struct Phase {
  explicit Phase(double rate) : offered(rate) {}
  double offered;
  std::vector<double> lat;   // due time -> completion, seconds
  std::vector<double> late;  // generator lateness, seconds
  size_t requests = 0;
  uint64_t failed = 0;
  double wall = 0;            // summed slice durations, first due -> last completion
  bool backlog = false;       // latency grew across some slice
  uint64_t sleeps = 0;        // rank-thread context switches
  double busy[4] = {0, 0, 0, 0};  // rank busy seconds (traced service only)

  double p50() const { return percentile(lat, 50); }
  double p99() const { return percentile(lat, 99); }
  double late_p99() const { return percentile(late, 99); }
  bool valid() const { return late_p99() <= kLateLimitS; }  // generator kept to schedule
  double achieved() const { return wall > 0 ? static_cast<double>(lat.size()) / wall : 0; }
};

class ServeRunner {
 public:
  ServeRunner(const Args& args, Outcome& out)
      : out_(out), mix_(request_mix(args.seed)), rng_(args.seed * 7919 + 1) {}

  // Construction + enter() + warm-up requests, repeated after a
  // saturating warm-up; the median is setup_s. The last service stays up
  // for the measurement.
  void setup() {
    std::vector<double> total, world_up;
    for (int rep = -1; rep < kSetupReps; ++rep) {
      if (svc_) svc_->shutdown();
      svc_.reset();
      const std::set<int> threads = thread_ids();
      const double t0 = now();
      svc_ = std::make_unique<Service>(service_config());
      svc_->enter();
      check(svc_->submit(mix_[0].source).wait(), mix_[0]);
      const double t1 = now();
      bind_rank_threads(threads);
      std::vector<RequestHandle> warm;
      for (int k = 0; k < kWarmupPerProgram; ++k) {
        for (const Program& p : mix_) warm.push_back(svc_->submit(p.source));
      }
      svc_->drain();
      const double t2 = now();
      for (size_t k = 0; k < warm.size(); ++k) check(warm[k].wait(), mix_[k % mix_.size()]);
      if (rep < 0) {
        saturate(kWarmupSeconds);
        continue;
      }
      total.push_back(t2 - t0);
      world_up.push_back(t1 - t0);
    }
    setup_s_ = median(total);
    world_up_ms_ = median(world_up) * 1e3;
    std::vector<double> compile;
    for (const Program& p : mix_) {
      const double t0 = now();
      ilps::swift::compile(p.source);
      compile.push_back(now() - t0);
    }
    compile_ms_ = median(compile) * 1e3;
  }

  // Replaces the service with a fresh one (tracing state is fixed when
  // the world starts).
  void restart() {
    svc_->shutdown();
    const std::set<int> threads = thread_ids();
    svc_ = std::make_unique<Service>(service_config());
    svc_->enter();
    for (const Program& p : mix_) check(svc_->submit(p.source).wait(), p);
    bind_rank_threads(threads);
  }

  void finish() { svc_->shutdown(); }

  Service& service() { return *svc_; }

  // One open-loop slice: Poisson arrivals at the phase's rate for
  // `duration` seconds. The generator sleeps until each due time; latency
  // runs from the due time to completion.
  void open_slice(Phase& ph, double duration, TraceDigest* digest) {
    std::vector<double> due;
    std::vector<size_t> prog;
    for (double t = 0;;) {
      t += -std::log(1.0 - static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53) / ph.offered;
      if (t >= duration) break;
      due.push_back(t);
      prog.push_back(pick_program(rng_, mix_));
    }
    struct Sent {
      RequestHandle handle;
      double returned = 0;
      bool admitted = false;
    };
    std::vector<Sent> sent(due.size());
    double busy0[4];
    for (int r = 0; r < 4; ++r) busy0[r] = digest ? busy_gauge(r) : 0;
    const uint64_t sleeps0 = rank_thread_sleeps();
    // The schedule starts 2 ms out, on both clocks read back to back.
    const auto base = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    const double start = now() + 0.002;
    for (size_t k = 0; k < due.size(); ++k) {
      std::this_thread::sleep_until(
          base + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(due[k])));
      ph.late.push_back(std::max(0.0, now() - (start + due[k])));
      try {
        sent[k].handle = svc_->submit(mix_[prog[k]].source);
        sent[k].admitted = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_open: submit failed: %s\n", e.what());
      }
      sent[k].returned = now();
    }
    svc_->drain();
    ph.sleeps += rank_thread_sleeps() - sleeps0;
    for (int r = 0; r < 4; ++r) ph.busy[r] += digest ? busy_gauge(r) - busy0[r] : 0;
    std::vector<double> first_half, second_half;
    double last_done = start;
    for (size_t k = 0; k < sent.size(); ++k) {
      ++ph.requests;
      if (!sent[k].admitted) {
        ++ph.failed;
        ++out_.attempted;
        ++out_.failed;
        continue;
      }
      const RequestResult r = sent[k].handle.wait();
      if (!check(r, mix_[prog[k]])) ++ph.failed;
      const double done = sent[k].returned + r.latency_seconds;
      last_done = std::max(last_done, done);
      const double l = done - (start + due[k]);
      ph.lat.push_back(l);
      (due[k] < duration / 2 ? first_half : second_half).push_back(l);
      if (digest) digest->add(r);
    }
    ph.wall += last_done - start;
    if (median(second_half) > 2 * median(first_half) + 0.001) ph.backlog = true;
  }

  // The low and high phases and the saturated rate, interleaved slice by
  // slice so all three see the same drift in machine state over the run.
  // Returns the median saturated rate over the slices.
  double measure(Phase& low, Phase& high, double seconds, TraceDigest* digest) {
    const int slices = std::max(4, static_cast<int>(seconds / kSliceSeconds));
    const double slice = seconds / slices;
    std::vector<double> sat;
    for (int i = 0; i < slices; ++i) {
      open_slice(low, 0.35 * slice, nullptr);
      open_slice(high, 0.4 * slice, digest);
      sat.push_back(saturate(0.25 * slice));
    }
    return median(sat);
  }

  // Closed window of kWindow outstanding requests: the saturated
  // completion rate.
  double saturate(double duration) {
    std::deque<std::pair<RequestHandle, size_t>> q;
    uint64_t done = 0;
    auto retire = [&] {
      check(q.front().first.wait(), mix_[q.front().second]);
      q.pop_front();
      ++done;
    };
    const double start = now();
    while (now() - start < duration) {
      if (q.size() >= kWindow) retire();
      const size_t p = pick_program(rng_, mix_);
      q.emplace_back(svc_->submit(mix_[p].source), p);
    }
    while (!q.empty()) retire();
    return static_cast<double>(done) / (now() - start);
  }

  // Highest ladder rate whose p99 meets the limit with no backlog growth
  // and no failures (0 when even the first step misses).
  double ladder(double step_seconds) {
    double capacity = 0;
    for (double rate : kLadderRps) {
      Phase ph(rate);
      open_slice(ph, step_seconds, nullptr);
      if (ph.failed > 0 || ph.backlog || ph.p99() > kLatencyLimitS) break;
      capacity = rate;
    }
    return capacity;
  }

  double setup_s() const { return setup_s_; }
  double compile_ms() const { return compile_ms_; }
  double world_up_ms() const { return world_up_ms_; }

 private:
  bool check(const RequestResult& r, const Program& p) {
    ++out_.attempted;
    if (output_ok(r, p)) return true;
    ++out_.failed;
    std::fprintf(stderr, "serve_open: request %lld wrong: %s\n", static_cast<long long>(r.id),
                 r.error.c_str());
    return false;
  }

  Outcome& out_;
  std::vector<Program> mix_;
  ilps::Rng rng_;
  std::unique_ptr<Service> svc_;
  double setup_s_ = 0, compile_ms_ = 0, world_up_ms_ = 0;
};

void note_phase(Outcome& out, const std::string& name, const Phase& ph) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "offered=%.0f requests=%zu achieved=%.1f p50_ms=%.4f p99_ms=%.4f "
                "gen_late_p99_ms=%.4f valid=%d backlog=%d",
                ph.offered, ph.requests, ph.achieved(), ph.p50() * 1e3, ph.p99() * 1e3,
                ph.late_p99() * 1e3, ph.valid() ? 1 : 0, ph.backlog ? 1 : 0);
  out.notes["phase." + name] = buf;
}

}  // namespace

Layout serve_layout() {
  Layout l;
  l.engines = 1;
  l.workers = 1;
  l.servers = 1;
  l.extra_ranks = 1;
  // The ingress rank and the generator sleep between arrivals; the
  // engine, worker and server ranks are the ones that compete for cores.
  l.busy_threads = l.engines + l.workers + l.servers;
  return l;
}

Outcome run_serve_workload(const Args& args) {
  Outcome out;
  ServeRunner runner(args, out);
  const double start = now();
  runner.setup();
  const double left = std::max(2.0, args.seconds - (now() - start));
  const double untraced = args.trace ? left / 2 : left;

  // Untraced pass (the traced run adds the ladder to it).
  Phase low(kLowRps), high(kHighRps);
  const double sat = runner.measure(low, high, (args.trace ? 0.7 : 1.0) * untraced, nullptr);
  note_phase(out, "low", low);
  note_phase(out, "high", high);
  out.notes["phase.saturated_rps"] = std::to_string(sat);

  if (!args.trace) {
    out.metrics["ops_per_s"] = sat;
    out.metrics["latency_p50_ms"] = low.p50() * 1e3;
    out.metrics["setup_s"] = runner.setup_s();
    runner.finish();
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  auto& m = out.metrics;
  m["serve.capacity_rps"] = runner.ladder(0.3 * untraced / std::size(kLadderRps));
  m["serve.lat_p50_ms.high"] = high.p50() * 1e3;
  m["serve.lat_p99_ms.low"] = low.p99() * 1e3;
  m["serve.lat_p99_ms.high"] = high.p99() * 1e3;
  m["serve.achieved_rps.high"] = high.achieved();
  m["serve.gen_late_ms.p99"] = high.late_p99() * 1e3;
  const ilps::serve::ServiceStats before = runner.service().stats();
  m["serve.program_cache_hit_frac"] =
      static_cast<double>(before.program_cache_hits) /
      static_cast<double>(std::max<uint64_t>(1, before.program_cache_hits + before.programs_compiled));
  measure_standalone_layers(args.seed, out);

  // Traced pass on a fresh service with request capture on; the layer
  // figures come from its high-rate slices.
  ilps::obs::set_trace_enabled(true);
  runner.restart();
  TraceDigest d;
  Phase tlow(kLowRps), thigh(kHighRps);
  const double tsat = runner.measure(tlow, thigh, left / 2, &d);
  runner.finish();
  ilps::obs::set_trace_enabled(false);
  const ilps::serve::ServiceStats st = runner.service().stats();

  const double reqs = static_cast<double>(std::max<uint64_t>(1, d.requests));
  const double wall = std::max(thigh.wall, 1e-9);
  m["serve.queue_ms.p50"] = percentile(d.queue_s, 50) * 1e3;
  m["serve.queue_ms.p99"] = percentile(d.queue_s, 99) * 1e3;
  m["serve.exec_ms.p50"] = percentile(d.exec_s, 50) * 1e3;
  m["serve.msgs_per_req"] = static_cast<double>(d.messages) / reqs;
  m["mpi.msgs_per_op"] = static_cast<double>(d.messages) / reqs;
  m["mpi.bytes_per_op"] = static_cast<double>(d.bytes) / reqs;
  m["mpi.wakeups_per_msg"] =
      static_cast<double>(thigh.sleeps) / static_cast<double>(std::max<uint64_t>(1, d.messages));
  m["adlb.notifications_per_op"] = static_cast<double>(d.notifies) / reqs;
  m["adlb.server_busy_frac"] = thigh.busy[kServerRank] / wall;
  m["turbine.rules_per_op"] = static_cast<double>(d.rule_fires) / reqs;
  m["turbine.subscribes_per_op"] = static_cast<double>(d.subscribes) / reqs;
  m["turbine.engine_busy_frac"] = thigh.busy[kEngineRank] / wall;
  m["turbine.worker_busy_frac"] = thigh.busy[kWorkerRank] / wall;
  m["turbine.engine_task_us"] =
      d.engine_runs ? d.engine_run_s / static_cast<double>(d.engine_runs) * 1e6 : 0;
  m["turbine.worker_task_us"] =
      d.worker_runs ? d.worker_run_s / static_cast<double>(d.worker_runs) * 1e6 : 0;
  const uint64_t lookups = st.tcl_compile_hits + st.tcl_compile_misses;
  m["tcl.compile_hit_frac"] =
      lookups ? static_cast<double>(st.tcl_compile_hits) / static_cast<double>(lookups) : 0;
  m["tcl.bailouts"] = static_cast<double>(st.tcl_compile_bailouts);
  m["swift.compile_ms"] = runner.compile_ms();
  m["runtime.world_up_ms"] = runner.world_up_ms();
  m["obs.trace_overhead_frac"] = 1.0 - tsat / sat;
  m["obs.events_dropped"] = static_cast<double>(d.capped);
  note_phase(out, "traced_high", thigh);
  return out;
}

}  // namespace perfbench
