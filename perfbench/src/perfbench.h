// perfbench: the repository benchmark. One process per run executes one
// workload (fig1, leaf_sweep, serve_open, fig1_ft) against the public
// library APIs, checks its outputs, and prints either the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) as the
// last stdout line. See perfbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  // scratch space inside the checkout (ckpt dirs)
};

// What a workload run reports: operation accounting plus metric values by
// name. Every name must be one of the metric tables in main.cc.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed, refused, shed or wrong-output operations
  std::map<std::string, double> metrics;
  // Extra facts for the run record (layout, phase validity, ...).
  std::map<std::string, std::string> notes;
};

// Rank layout facts stamped into the run record.
struct Layout {
  int engines = 1, workers = 2, servers = 1;
  int extra_ranks = 0;    // the serve ingress rank
  int busy_threads = 0;   // threads expected to compete for cores
  std::string describe() const;
};

Outcome run_batch_workload(const Args& args);  // fig1, leaf_sweep, fig1_ft
Outcome run_serve_workload(const Args& args);  // serve_open
Layout batch_layout();
Layout serve_layout();

// ---- shared measurement helpers ----

double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double peak_rss_mb();
double now();  // steady seconds, same epoch as ilps::obs::Event::t
int cpu_count();
// Binds thread `tid` (0 = the calling thread) to core `cpu % cpu_count()`.
void bind_thread(int tid, int cpu);

// Standalone per-eval cost of layers a workload drives from inside the
// world: MiniPy and MiniR on the sweep's leaf snippets, and MiniTcl on the
// Fig-1 leaf actions as STC emits them. Fills python.eval_us,
// rlang.eval_us and tcl.action_us.
void measure_standalone_layers(uint64_t seed, Outcome& out);

// The sweep's leaf snippets and their reference values, shared by the
// leaf_sweep workload and the standalone interpreter measurement.
struct SweepShape {
  int64_t a = 1, b = 0;  // per-point size n = (i * a + b) % span + base
  static constexpr int64_t kSpan = 2000;
  static constexpr int64_t kBase = 1500;
  explicit SweepShape(uint64_t seed);
  int64_t size(int64_t i) const { return (i * a + b) % kSpan + kBase; }
  static std::string python_code(int64_t n, int64_t i);
  static std::string r_code(int64_t n, int64_t i);
  static int64_t python_ref(int64_t n, int64_t i);
  static int64_t r_ref(int64_t n, int64_t i);
};

// ---- per-layer ledger from a merged obs trace ----

// Self time (span duration minus nested spans on the same rank) and span
// counts by kind, per rank, accumulated over one or more traces.
struct RankLedger {
  double wall = 0;  // summed trace extents the rank took part in
  std::map<ilps::obs::EventKind, double> self;      // seconds
  std::map<ilps::obs::EventKind, uint64_t> spans;   // completed spans
  uint64_t events = 0;
};

struct Ledger {
  std::vector<RankLedger> ranks;
  uint64_t ckpt_bytes = 0;  // summed ckpt.write payload bytes
  uint64_t traces = 0;
  // Adds one run's merged trace over `nranks` ranks.
  void add(const std::vector<ilps::obs::Event>& trace, int nranks);
  double self(int rank, ilps::obs::EventKind k) const;
  uint64_t spans(int rank, ilps::obs::EventKind k) const;
  double wall(int rank) const;
  // One JSON object: per-rank self seconds by span kind plus the share of
  // wall time no span covers.
  std::string to_json(const std::vector<std::string>& roles) const;
};

}  // namespace perfbench
