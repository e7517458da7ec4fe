// Shared pieces of the benchmark program: seeded input generation, the
// span recorder behind the traced run, the slice runner every workload
// advances the simulation with, and the per-repetition result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace sim = oftt::sim;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's only source of randomness. Inputs are a
/// pure function of --seed (no libstdc++ distribution in the path, so
/// the generated schedules are identical on every standard library).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ull) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  std::uint64_t state_;
};

inline void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
}

// ---------------------------------------------------------------------
// Span recorder (traced run only).
// ---------------------------------------------------------------------

/// One recorded span: a host interval around a call the benchmark makes
/// into the program, with the simulated interval it covered and the
/// deltas of the probed counters over it.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  // span id, -1 for a root
  int run = 0;      // repetition index within the process
  int lane = 0;     // 0 = harness calls, 1 = fault lifetimes (may overlap phases)
  std::int64_t host_start_ns = 0, host_end_ns = 0;
  sim::SimTime sim_start = 0, sim_end = -1;
  std::vector<std::int64_t> start_values;  // probe snapshot at open
  std::vector<std::int64_t> deltas;        // probe deltas at close
  std::int64_t duration_ns() const { return host_end_ns - host_start_ns; }
};

/// Holds spans in memory for the whole run; written out once at exit as
/// Chrome trace-event JSON. Probes are counters read at both ends of
/// every span.
class Tracer {
 public:
  struct Probe {
    std::string name;
    std::function<std::int64_t()> read;
  };

  void begin_run(int run, std::vector<Probe> probes) {
    run_ = run;
    probes_ = std::move(probes);
    stack_.clear();
  }
  /// End a repetition: spans keep their deltas; the probe closures, which
  /// point into the finished repetition, become no-ops.
  void end_run() {
    for (Probe& p : probes_) p.read = [] { return std::int64_t{0}; };
    stack_.clear();
  }

  /// Open a span and return its id. `parent` defaults (-2) to the
  /// innermost open lane-0 span; lane-1 spans may outlive it, so their
  /// callers name the parent.
  int open(const std::string& name, sim::SimTime sim_now, int lane = 0, int parent = -2) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent != -2 ? parent : (stack_.empty() ? -1 : stack_.back());
    s.run = run_;
    s.lane = lane;
    s.sim_start = sim_now;
    s.start_values.reserve(probes_.size());
    for (const Probe& p : probes_) s.start_values.push_back(p.read());
    s.host_start_ns = host_ns();
    spans_.push_back(std::move(s));
    if (lane == 0) stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id, sim::SimTime sim_now) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.host_end_ns = host_ns();
    s.sim_end = sim_now;
    s.deltas.reserve(probes_.size());
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      s.deltas.push_back(probes_[i].read() - s.start_values[i]);
    }
    if (s.lane == 0 && !stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Host ns of span `id` not covered by its lane-0 children.
  std::int64_t self_ns(int id) const;
  /// Sum of self time over spans of run `run` whose name starts with `prefix`.
  std::int64_t self_ns_of(int run, const std::string& prefix) const;
  /// Sum of a probe delta over spans of run `run` whose name starts with `prefix`.
  std::int64_t delta_of(int run, const std::string& prefix, const std::string& probe) const;

  /// Chrome trace-event JSON (opens offline in Perfetto / chrome://tracing).
  std::string chrome_json(const std::string& workload, std::uint64_t seed) const;

 private:
  int run_ = 0;
  std::vector<Probe> probes_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is null (untraced repetitions).
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, const sim::Simulation& s) : t_(t), sim_(&s) {
    if (t_ != nullptr) id_ = t_->open(name, sim_->now());
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(id_, sim_->now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  const sim::Simulation* sim_;
  int id_ = -1;
};

// ---------------------------------------------------------------------
// Slice runner.
// ---------------------------------------------------------------------

/// Advances a simulation in slices and counts the events it executes.
/// The sequential kernel exposes no event counter, so sequential slices
/// step event by event up to a sentinel scheduled at the slice end; the
/// sentinel also pins `now` to the boundary, like run_until. Traced and
/// untraced repetitions run the identical loop, so their histories (and
/// digests) match. Under the parallel engine the engine's own executed
/// count is used and slices go through run_until.
class Runner {
 public:
  Runner(sim::Simulation& s, Tracer* tracer) : sim_(&s), tracer_(tracer) {}

  void run_until(sim::SimTime t, const char* phase);
  void run_for(sim::SimTime d, const char* phase) { run_until(sim_->now() + d, phase); }

  std::uint64_t events() const;

 private:
  sim::Simulation* sim_;
  Tracer* tracer_;
  std::uint64_t seq_events_ = 0;
};

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

/// One simulated-time metric value and the number of samples behind it.
struct Sample {
  double value = 0;
  std::uint64_t n = 0;
};

struct RepResult {
  double setup_s = 0;         // host seconds until converged and armed
  double measured_host_s = 0; // host seconds of the measured phases
  double measured_sim_s = 0;  // simulated seconds of the measured phases
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Sim-domain end-to-end metrics by name (exact for a seed).
  std::map<std::string, Sample> sim_metrics;
  /// Per-layer metrics (filled by traced repetitions).
  std::map<std::string, double> layers;
  /// Broken invariants (oracles); any entry fails the run.
  std::vector<std::string> violations;
  /// Human-readable notes printed with the scorecard.
  std::vector<std::string> notes;
};

/// Worker threads of swim_fleet_pdes (coordinator + 3 workers fit a
/// 4-core host); part of the workload's definition.
constexpr int kPdesWorkers = 3;

struct RepOptions {
  std::uint64_t seed = 1;
  bool short_mode = false;
  int workers = kPdesWorkers;  // parallel workloads; the W=1 oracle replay lowers it
  int run = 0;           // repetition index (span run id)
  bool setup_only = false;  // stop once converged and armed (extra setup_s samples)
  Tracer* tracer = nullptr;
};

/// Median (upper median for even counts) and percentile helpers over
/// integer nanosecond samples; results in milliseconds.
double percentile_ms(std::vector<std::int64_t> xs, double q);
double median(std::vector<double> xs);

/// Sum of a counter in the simulation's metrics registry; 0 when the
/// counter was never registered (never creates one — tracing must not
/// alter the program's state).
std::int64_t counter(const sim::Simulation& s, const std::string& name);
std::int64_t gauge(const sim::Simulation& s, const std::string& name);
/// Quantile of a registered histogram; -1 when absent or empty.
double histogram_quantile(const sim::Simulation& s, const std::string& name, double q);
double histogram_sum(const sim::Simulation& s, const std::string& name);

struct NetTotals {
  std::uint64_t sent = 0, delivered = 0, dropped = 0, bytes = 0;
};
NetTotals net_totals(sim::Simulation& s);

/// Probes shared by every workload's spans.
std::vector<Tracer::Probe> common_probes(sim::Simulation& s, const Runner& r);

/// Fill the per-layer metrics that every workload reports the same way
/// (kernel, network, parallel engine, obs, transport totals).
void common_layers(sim::Simulation& s, const Tracer& t, int run, RepResult& out);

/// Engine/wire per-layer metrics and the FailoverSpans phase medians.
void engine_layers(sim::Simulation& s, RepResult& out);

RepResult run_swim_fleet(const RepOptions& o, bool parallel);
RepResult run_opc_plant(const RepOptions& o);
RepResult run_failover_pair(const RepOptions& o);

}  // namespace perfbench
