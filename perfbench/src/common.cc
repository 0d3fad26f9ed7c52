// Measurement helpers, the standalone interpreter measurements, and the
// trace reducer (per-rank self time by span kind).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "common/timer.h"
#include "perfbench.h"
#include "python/interp.h"
#include "rlang/interp.h"
#include "swift/compiler.h"
#include "tcl/interp.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return v[rank - 1];
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double now() { return ilps::wtime(); }

int cpu_count() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

void bind_thread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % cpu_count(), &set);
  sched_setaffinity(tid, sizeof set, &set);
}

std::string Layout::describe() const {
  std::ostringstream s;
  s << engines << "e+" << workers << "w+" << servers << "s";
  if (extra_ranks > 0) s << "+" << extra_ranks << "ingress";
  return s.str();
}

// ---- the leaf sweep's snippets ----

SweepShape::SweepShape(uint64_t seed) {
  ilps::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  a = static_cast<int64_t>(rng.next_u64() % 9973) * 2 + 1;
  b = static_cast<int64_t>(rng.next_u64() % kSpan);
}

std::string SweepShape::python_code(int64_t n, int64_t i) {
  return "s = 0\nfor k in range(" + std::to_string(n) + "): s = s + (k * k + " +
         std::to_string(i) + ") % 97";
}

std::string SweepShape::r_code(int64_t n, int64_t i) {
  return "x <- sum((1:" + std::to_string(n) + ") %% 13) + " + std::to_string(i);
}

int64_t SweepShape::python_ref(int64_t n, int64_t i) {
  int64_t s = 0;
  for (int64_t k = 0; k < n; ++k) s += (k * k + i) % 97;
  return s;
}

int64_t SweepShape::r_ref(int64_t n, int64_t i) {
  int64_t x = 0;
  for (int64_t j = 1; j <= n; ++j) x += j % 13;
  return x + i;
}

namespace {

// The leaf procs (`proc u:...`) of a compiled program, verbatim.
std::string leaf_procs(const std::string& tcl) {
  std::string out;
  size_t pos = 0;
  while ((pos = tcl.find("\nproc u:", pos)) != std::string::npos) {
    const size_t end = tcl.find("\n}\n", pos);
    if (end == std::string::npos) break;
    out += tcl.substr(pos + 1, end + 2 - pos);
    pos = end;
  }
  return out;
}

}  // namespace

void measure_standalone_layers(uint64_t seed, Outcome& out) {
  const SweepShape shape(seed);
  constexpr int kSnippets = 48;
  {
    ilps::py::Interpreter py;
    std::vector<double> us;
    for (int64_t i = 0; i < kSnippets; ++i) {
      const int64_t n = shape.size(i);
      const double t0 = now();
      const std::string v = py.eval(SweepShape::python_code(n, i), "s");
      us.push_back((now() - t0) * 1e6);
      if (v != std::to_string(SweepShape::python_ref(n, i))) ++out.failed;
      ++out.attempted;
    }
    out.metrics["python.eval_us"] = median(us);
  }
  {
    ilps::r::Interpreter r;
    std::vector<double> us;
    for (int64_t i = 0; i < kSnippets; ++i) {
      const int64_t n = shape.size(i);
      const double t0 = now();
      const std::string v = r.eval(SweepShape::r_code(n, i), "x");
      us.push_back((now() - t0) * 1e6);
      if (v != std::to_string(SweepShape::r_ref(n, i))) ++out.failed;
      ++out.attempted;
    }
    out.metrics["rlang.eval_us"] = median(us);
  }
  {
    // The Fig-1 leaf actions as the engine ships them to workers
    // ("u:f <out> <in>"), against an in-memory stand-in for the data
    // store so only MiniTcl dispatch and expr evaluation are timed.
    const std::string tcl = ilps::swift::compile(
        "(int o) f (int i) [ \"set <<o>> [ expr <<i>> * <<i>> ]\" ];\n"
        "(int o) g (int t) [ \"set <<o>> [ expr <<t>> % 3 ]\" ];\n"
        "int t = f(7); int gt = g(t); trace(gt);\n");
    ilps::tcl::Interp in;
    in.eval(
        "proc swift:retrieve_typed {type id} { global D; return $D($id) }\n"
        "proc swift:store_typed {type id v} { global D; set D($id) $v }\n");
    in.eval(leaf_procs(tcl));
    const int64_t input = static_cast<int64_t>(seed % 100000);
    in.eval("set D(1) " + std::to_string(input));
    auto f = in.compile("u:f 2 1");
    auto g = in.compile("u:g 3 2");
    constexpr int kReps = 20000;
    std::vector<double> us;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now();
      for (int k = 0; k < kReps; ++k) {
        in.exec(*f);
        in.exec(*g);
      }
      us.push_back((now() - t0) * 1e6 / (2.0 * kReps));
      ++out.attempted;
      if (in.eval("set D(3)") != std::to_string((input * input) % 3)) ++out.failed;
    }
    out.metrics["tcl.action_us"] = median(us);
  }
}

// ---- ledger ----

void Ledger::add(const std::vector<ilps::obs::Event>& trace, int nranks) {
  if (static_cast<int>(ranks.size()) < nranks) ranks.resize(static_cast<size_t>(nranks));
  ++traces;
  if (trace.empty()) return;
  struct Open {
    ilps::obs::EventKind kind;
    double begin;
    double child = 0;  // time covered by nested spans
  };
  std::vector<std::vector<Open>> stacks(static_cast<size_t>(nranks));
  for (const ilps::obs::Event& e : trace) {
    if (e.rank < 0 || e.rank >= nranks) continue;
    const size_t r = static_cast<size_t>(e.rank);
    RankLedger& led = ranks[r];
    ++led.events;
    auto& stack = stacks[r];
    if (e.ph == ilps::obs::Phase::kBegin) {
      stack.push_back({e.kind, e.t});
      if (e.kind == ilps::obs::EventKind::kCkptWrite) {
        ckpt_bytes += static_cast<uint64_t>(std::max<int64_t>(e.b, 0));
      }
    } else if (e.ph == ilps::obs::Phase::kEnd) {
      // An End whose Begin was overwritten in the ring has no match.
      if (stack.empty() || stack.back().kind != e.kind) continue;
      const Open o = stack.back();
      stack.pop_back();
      const double dur = e.t - o.begin;
      led.self[o.kind] += dur - o.child;
      ++led.spans[o.kind];
      if (!stack.empty()) stack.back().child += dur;
    }
  }
  // Every rank runs for the whole world lifetime: use the global extent.
  const double t0 = trace.front().t;
  const double t1 = trace.back().t;
  for (auto& led : ranks) led.wall += t1 - t0;
}

double Ledger::self(int rank, ilps::obs::EventKind k) const {
  if (rank < 0 || rank >= static_cast<int>(ranks.size())) return 0;
  const auto& m = ranks[static_cast<size_t>(rank)].self;
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

uint64_t Ledger::spans(int rank, ilps::obs::EventKind k) const {
  if (rank < 0 || rank >= static_cast<int>(ranks.size())) return 0;
  const auto& m = ranks[static_cast<size_t>(rank)].spans;
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

double Ledger::wall(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(ranks.size())) return 0;
  return ranks[static_cast<size_t>(rank)].wall;
}

std::string Ledger::to_json(const std::vector<std::string>& roles) const {
  std::ostringstream s;
  s.precision(6);
  s << "{\"traces\":" << traces << ",\"ranks\":[";
  for (size_t r = 0; r < ranks.size(); ++r) {
    const RankLedger& led = ranks[r];
    s << (r ? "," : "") << "{\"rank\":" << r << ",\"role\":\""
      << (r < roles.size() ? roles[r] : std::string("?")) << "\",\"wall_s\":" << led.wall
      << ",\"events\":" << led.events << ",\"self_s\":{";
    double covered = 0;
    bool first = true;
    for (const auto& [kind, sec] : led.self) {
      s << (first ? "" : ",") << "\"" << ilps::obs::kind_name(kind) << "\":" << sec;
      first = false;
      covered += sec;
    }
    s << "},\"uncovered_frac\":" << (led.wall > 0 ? 1.0 - covered / led.wall : 0) << "}";
  }
  s << "]}";
  return s.str();
}

}  // namespace perfbench
