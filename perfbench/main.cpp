// oftt_perfbench: the repository's benchmark program. One process runs
// one workload for one seed: it repeats the workload (fresh simulation,
// same generated inputs) until --seconds of host time have passed,
// checks the oracles, prints the scorecard and, as its last line, one
// JSON result. See perfbench/LAYERS.md for the workloads, the metrics
// and how to read a trace.
//
//   oftt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--short] [--trace-out <file>]
//
// Exit codes: 0 ok, 2 usage, 3 a broken invariant (no result printed).
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/// The per-layer metrics every traced run reports, in print order, with
/// their units ("sim_ms" is simulated time, exact for a seed; "ns" and
/// "ms" are host time). A layer the workload does not exercise reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.sent", "count"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"net.bytes", "B"},
    {"net.ns_per_datagram", "ns"},
    {"pdes.windows", "count"},
    {"pdes.events_per_window", "ratio"},
    {"pdes.stall_ms", "ms"},
    {"pdes.mailbox_spills", "count"},
    {"pdes.imbalance", "ratio"},
    {"swim.probes_sent", "count"},
    {"swim.ack_ratio", "ratio"},
    {"swim.indirect_probes", "count"},
    {"swim.suspicion_p50_ms", "sim_ms"},
    {"cluster.takeovers", "count"},
    {"cluster.dual_primary", "count"},
    {"engine.component_failures", "count"},
    {"engine.local_restarts", "count"},
    {"engine.bad_packets", "count"},
    {"phase.detection_p50_ms", "sim_ms"},
    {"phase.negotiation_p50_ms", "sim_ms"},
    {"phase.promotion_p50_ms", "sim_ms"},
    {"transport.data_sent", "count"},
    {"transport.retransmits", "count"},
    {"transport.retransmit_ratio", "ratio"},
    {"transport.session_resets", "count"},
    {"transport.queue_drops", "count"},
    {"ftim.full_bytes", "B"},
    {"ftim.delta_bytes", "B"},
    {"ftim.delta_share", "ratio"},
    {"ftim.need_full_nacks", "count"},
    {"ftim.replication_lag_max", "count"},
    {"phase.replay_p50_ms", "sim_ms"},
    {"store.records_appended", "count"},
    {"store.bytes_appended", "B"},
    {"store.compactions", "count"},
    {"store.append_failures", "count"},
    {"store.replayed_records", "count"},
    {"diverter.journaled_sends", "count"},
    {"diverter.reroutes", "count"},
    {"diverter.replayed_sends", "count"},
    {"msmq.retries", "count"},
    {"msmq.duplicates_dropped", "count"},
    {"opc.tag_sets", "count"},
    {"opc.hub_routed", "count"},
    {"opc.notifications", "count"},
    {"opc.frames", "count"},
    {"opc.batches_per_frame", "ratio"},
    {"opc.coalesced_bytes", "B"},
    {"opc.frames_rejected", "count"},
    {"opc.batch_drops", "count"},
    {"opc.writes_acked", "count"},
    {"opc.ns_per_notification", "ns"},
    {"opc.tag_set_ns", "ns"},
    {"obs.events_published", "count"},
    {"obs.events_per_sim_s", "1/s"},
    {"faults.fired", "count"},
    {"faults.pending", "count"},
    {"trace.overhead_pct", "%"},
};

/// The scorecard: every end-to-end metric of the benchmark, on every
/// workload, with its domain and sample count ("-" where a metric does
/// not apply to the workload).
struct E2E {
  const char* name;
  const char* unit;
  const char* domain;
};
const E2E kScorecard[] = {
    {"sim_speed", "sim_s/s", "host"},  {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},     {"failed_share", "ratio", "count"},
    {"detect_p50_ms", "ms", "sim"},    {"failover_p50_ms", "ms", "sim"},
    {"failover_p90_ms", "ms", "sim"},  {"notify_p50_ms", "ms", "sim"},
    {"notify_p99_ms", "ms", "sim"},    {"write_ack_p99_ms", "ms", "sim"},
};

constexpr std::size_t kMinSetups = 7;

/// Untraced repetitions a run makes at least. swim_fleet_pdes needs
/// two: one preempted worker stalls every barrier of a repetition, and
/// the upper median of two (the faster) discards such a repetition. A
/// swim_fleet repetition already outlasts a run's budget.
std::size_t min_reps(const std::string& workload) {
  return workload == "swim_fleet_pdes" ? 2 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool short_mode = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "oftt_perfbench: %s\nusage: oftt_perfbench --workload "
               "swim_fleet|swim_fleet_pdes|opc_plant|failover_pair --seed N --seconds S "
               "--trace 0|1 [--short] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val());
      else if (k == "--short") a.short_mode = true;
      else if (k == "--trace-out") a.trace_out = val();
      else usage(("unknown argument " + k).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds >= 0)) usage("--seconds must be >= 0");
  return a;
}

RepResult run_once(const Args& a, const RepOptions& o) {
  if (a.workload == "swim_fleet") return run_swim_fleet(o, false);
  if (a.workload == "swim_fleet_pdes") return run_swim_fleet(o, true);
  if (a.workload == "opc_plant") return run_opc_plant(o);
  if (a.workload == "failover_pair") return run_failover_pair(o);
  usage(("unknown workload " + a.workload).c_str());
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Sim-domain metrics and digest must be identical across repetitions
/// of one seed; this is the determinism oracle every run checks.
std::string sim_signature(const RepResult& r) {
  std::string s = hex(r.digest);
  for (const auto& [k, v] : r.sim_metrics) {
    s += " " + k + "=" + num(v.value) + "/" + std::to_string(v.n);
  }
  s += " attempted=" + std::to_string(r.attempted) + " failed=" + std::to_string(r.failed);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  oftt::Logger::instance().set_level(oftt::LogLevel::kOff);
  const Args a = parse(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();

  std::printf("# oftt perfbench  workload=%s seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace, a.short_mode ? " short" : "");
  std::printf("# host nproc=%u build=%s compiler=%s\n", nproc, PERFBENCH_BUILD_TYPE,
              __VERSION__);

  // Repetitions: fresh simulation, same seed, until the time budget is
  // spent. The traced run alternates untraced and traced repetitions of
  // the same inputs (at least one of each): the untraced ones give the
  // end-to-end numbers, the traced ones the per-layer numbers, their
  // digests must match, and their sim_speed gap is the tracing overhead.
  auto options = [&a](int run) {
    RepOptions o;
    o.seed = a.seed;
    o.short_mode = a.short_mode;
    o.run = run;
    return o;
  };
  Tracer tracer;
  std::vector<RepResult> plain, traced;
  std::vector<std::string> violations;
  const std::int64_t start = host_ns();
  int run = 0;
  while (true) {
    const double elapsed = static_cast<double>(host_ns() - start) / 1e9;
    const bool enough =
        plain.size() >= min_reps(a.workload) && (a.trace == 0 || !traced.empty());
    if (enough && elapsed >= a.seconds) break;
    RepOptions o = options(run);
    const bool trace_this = a.trace == 1 && run % 2 == 1;
    o.tracer = trace_this ? &tracer : nullptr;
    RepResult r = run_once(a, o);
    std::printf("# rep %d%s: setup %.3f s, measured %.3f host s for %.3f sim s, digest %s\n",
                run, trace_this ? " (traced)" : "", r.setup_s, r.measured_host_s,
                r.measured_sim_s, hex(r.digest).c_str());
    for (const std::string& v : r.violations) violations.push_back(v);
    (trace_this ? traced : plain).push_back(std::move(r));
    ++run;
    std::fflush(stdout);
  }

  // setup_s is a median over at least kMinSetups set-ups; workloads
  // whose repetitions are long top the count up with set-up-only runs.
  std::vector<double> setups;
  for (const RepResult& r : plain) setups.push_back(r.setup_s);
  while (setups.size() < kMinSetups) {
    RepOptions o = options(run++);
    o.setup_only = true;
    RepResult r = run_once(a, o);
    for (const std::string& v : r.violations) violations.push_back(v);
    setups.push_back(r.setup_s);
  }

  // Oracles: determinism across repetitions (traced == untraced too).
  const RepResult& ref = plain.front();
  const std::string ref_sig = sim_signature(ref);
  for (const auto* set : {&plain, &traced}) {
    for (const RepResult& r : *set) {
      if (sim_signature(r) != ref_sig) {
        violations.push_back("determinism: repetition signature " + sim_signature(r) +
                             " != first " + ref_sig);
      }
    }
  }
  // The parallel workload's history must not depend on the worker count:
  // the traced run replays the seed at W=1 and compares digests.
  if (a.workload == "swim_fleet_pdes" && a.trace == 1) {
    RepOptions o = options(run);
    o.workers = 1;
    RepResult w1 = run_once(a, o);
    std::printf("# W=1 reference: digest %s\n", hex(w1.digest).c_str());
    if (w1.digest != ref.digest) {
      violations.push_back("pdes: digest at W=" + std::to_string(kPdesWorkers) + " " +
                           hex(ref.digest) + " != W=1 " + hex(w1.digest));
    }
  }

  std::vector<double> speeds, traced_speeds;
  for (const RepResult& r : plain) speeds.push_back(r.measured_sim_s / r.measured_host_s);
  for (const RepResult& r : traced) traced_speeds.push_back(r.measured_sim_s / r.measured_host_s);
  const double sim_speed = median(speeds);
  const double setup_s = median(setups);
  const double rss = peak_rss_mb();
  const double failed_share =
      static_cast<double>(ref.failed) / static_cast<double>(std::max<std::uint64_t>(ref.attempted, 1));

  std::printf("\nscorecard  %s  seed=%" PRIu64 "  digest=%s  reps=%zu (+%zu traced)\n",
              a.workload.c_str(), a.seed, hex(ref.digest).c_str(), plain.size(), traced.size());
  std::printf("  %-18s %14s %-8s %-6s %s\n", "metric", "value", "unit", "domain", "samples");
  for (const E2E& m : kScorecard) {
    std::string value = "-", samples = "-";
    const std::string name = m.name;
    if (name == "sim_speed") {
      value = num(sim_speed);
      samples = std::to_string(speeds.size()) + " reps";
    } else if (name == "setup_s") {
      value = num(setup_s);
      samples = std::to_string(setups.size()) + " setups";
    } else if (name == "peak_rss_mb") {
      value = num(rss);
      samples = "1";
    } else if (name == "failed_share") {
      value = num(failed_share);
      samples = std::to_string(ref.failed) + "/" + std::to_string(ref.attempted) + " ops";
    } else if (auto it = ref.sim_metrics.find(name); it != ref.sim_metrics.end()) {
      value = num(it->second.value);
      samples = std::to_string(it->second.n);
    }
    std::printf("  %-18s %14s %-8s %-6s %s\n", m.name, value.c_str(), m.unit, m.domain,
                samples.c_str());
  }
  for (const std::string& n : ref.notes) std::printf("  note: %s\n", n.c_str());

  std::map<std::string, double> layers;
  if (a.trace == 1) {
    layers = traced.front().layers;
    const double overhead =
        median(traced_speeds) > 0 ? (sim_speed / median(traced_speeds) - 1.0) * 100.0 : 0;
    layers["trace.overhead_pct"] = overhead;
    std::printf("\ntracing overhead  %s: untraced %.4g sim_s/s, traced %.4g sim_s/s, %+.2f %%\n",
                a.workload.c_str(), sim_speed, median(traced_speeds), overhead);
    std::printf("\nper-layer (traced repetition)\n");
    for (const LayerMetric& m : kLayerMetrics) {
      std::printf("  %-28s %16s %s\n", m.name, num(layers[m.name]).c_str(), m.unit);
    }
    if (!a.trace_out.empty()) {
      const std::string json = tracer.chrome_json(a.workload, a.seed);
      if (std::FILE* f = std::fopen(a.trace_out.c_str(), "wb")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("# trace: %s (%zu spans)\n", a.trace_out.c_str(), tracer.spans().size());
      } else {
        violations.push_back("could not write trace " + a.trace_out);
      }
    }
  }

  if (!violations.empty()) {
    for (const std::string& v : violations) std::printf("INVARIANT BROKEN: %s\n", v.c_str());
    std::fflush(stdout);
    return 3;
  }

  // Last line: the machine-readable result.
  std::string j = "{\"correct\": true, \"attempted\": " + std::to_string(ref.attempted) +
                  ", \"failed\": " + std::to_string(ref.failed) + ", \"metrics\": {";
  char buf[256];
  bool first = true;
  auto add = [&](const std::string& name, double v, const char* unit) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, unit);
    j += buf;
    first = false;
  };
  if (a.trace == 0) {
    add("sim_speed", sim_speed, "sim_s/s");
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", rss, "MB");
  } else {
    for (const LayerMetric& m : kLayerMetrics) add(m.name, layers[m.name], m.unit);
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  return 0;
}
