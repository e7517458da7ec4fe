// swim_fleet / swim_fleet_pdes: an engine-only SWIM ClusterDeployment
// at N=512 with 1 % datagram loss and a seeded schedule of member
// crashes and reboots that includes the primary. Nearly all work is the
// kernel, sim network/node delivery and the engine/swim/cluster
// per-datagram path; the parallel variant adds the window/barrier/
// mailbox machinery of the parallel engine on the same history shape.
#include <memory>
#include <set>
#include <utility>

#include "bench.h"
#include "chaos/coverage.h"
#include "core/deployment.h"
#include "sim/fault_plan.h"

namespace perfbench {

namespace {

using oftt::core::ClusterDeployment;
using oftt::core::ClusterDeploymentOptions;
using oftt::core::DetectionMode;
using oftt::obs::Event;
using oftt::obs::EventKind;

struct CrashSpec {
  sim::SimTime at = 0;       // offset from the armed instant
  int member = -1;           // member index; -1 = whoever is primary at fire time
  sim::SimTime down_for = 0; // os_crash reboot delay
};

struct CrashRecord {
  int victim = -1;
  bool was_primary = false;
  sim::SimTime injected = -1;
  sim::SimTime detected = -1;   // first confirmed death certificate
  sim::SimTime failed_over = -1;  // another member entered PRIMARY
  sim::SimTime back_up = -1;    // rebooted
};

/// The fault schedule, from the seed alone: three member crashes and
/// three primary crashes, alternating, each about 3.5 s after the
/// previous one so detection and failover finish in between; every
/// victim reboots after its death has been confirmed, and the phase ends
/// ~7 s after the last crash. At N=512 every confirmed death triggers an
/// O(N^2) dissemination burst that costs 5-9 s of host time, depending
/// on the victim and the seed; six per repetition average that
/// variation, so a run's speed varies less from seed to seed.
std::vector<CrashSpec> make_schedule(std::uint64_t seed, int members, sim::SimTime* horizon) {
  InputRng rng(seed ^ 0x5157ull);
  std::vector<CrashSpec> out;
  for (int i = 0; i < 6; ++i) {
    const bool primary = i % 2 == 1;
    const int member =
        primary ? -1 : static_cast<int>(rng.below(static_cast<std::uint64_t>(members)));
    out.push_back({sim::milliseconds(300 + 3500 * i + rng.range(0, 500)), member,
                   sim::milliseconds(rng.range(4000, 5000))});
  }
  *horizon = sim::seconds(25);
  return out;
}

}  // namespace

RepResult run_swim_fleet(const RepOptions& o, bool parallel) {
  RepResult out;
  const int members = o.short_mode ? 32 : 512;
  sim::SimTime horizon = 0;
  const std::vector<CrashSpec> schedule = make_schedule(o.seed, members, &horizon);
  Tracer* tr = o.tracer;

  const std::int64_t setup0 = host_ns();
  sim::Simulation sim(o.seed);
  if (parallel) {
    sim::EngineConfig cfg;
    cfg.kind = sim::EngineKind::kParallel;
    cfg.workers = o.workers;
    sim.set_engine(cfg);
  }
  oftt::chaos::CoverageProbe probe(sim.telemetry());
  Runner run(sim, tr);
  if (tr != nullptr) tr->begin_run(o.run, common_probes(sim, run));
  const int root = tr != nullptr ? tr->open("rep", sim.now()) : -1;

  std::unique_ptr<ClusterDeployment> dep;
  {
    Scope s(tr, "setup.deployment", sim);
    ClusterDeploymentOptions opts;
    opts.replicas = members;
    opts.with_monitor = false;
    opts.with_msmq = false;
    opts.with_scm = false;
    opts.engine.detection = DetectionMode::kSwim;
    opts.net_loss = 0.01;
    dep = std::make_unique<ClusterDeployment>(sim, opts);
  }
  {
    Scope s(tr, "setup.converge", sim);
    const sim::SimTime deadline = sim::seconds(30);
    while (sim.now() < deadline &&
           (sim.now() < sim::seconds(2) || dep->primary_count() != 1)) {
      run.run_for(sim::milliseconds(250), "converge");
    }
  }
  if (dep->primary_count() != 1) {
    out.violations.push_back("swim: " + std::to_string(dep->primary_count()) +
                             " primaries after convergence (want exactly 1)");
  }

  std::vector<CrashRecord> crashes(schedule.size());
  oftt::sim::FaultPlan plan(sim);
  const sim::SimTime t0 = sim.now();
  // Live members confirmed dead, each (member, incarnation) once: every
  // engine publishes its own confirm of the same death.
  std::set<std::pair<int, std::uint64_t>> false_positives;
  std::vector<int> fault_span(schedule.size(), -1);
  {
    Scope s(tr, "setup.arm", sim);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const CrashSpec spec = schedule[i];
      plan.custom(t0 + spec.at, spec.member < 0 ? "crash primary" : "crash member",
                  [&, i, spec] {
                    CrashRecord& c = crashes[i];
                    int victim = -1;
                    if (spec.member < 0) {
                      victim = dep->primary_node();
                      c.was_primary = true;
                    } else {
                      // The drawn member, or the next one that is up and
                      // not primary (crashing the primary is the primary
                      // crashes' job).
                      for (int k = 0; k < members && victim < 0; ++k) {
                        oftt::sim::Node& n = dep->node((spec.member + k) % members);
                        oftt::core::Engine* e = oftt::core::Engine::find(n);
                        if (n.up() && (e == nullptr || e->role() != oftt::core::Role::kPrimary)) {
                          victim = n.id();
                        }
                      }
                    }
                    if (victim < 0 || !sim.node(victim).up()) return;
                    c.victim = victim;
                    c.injected = sim.now();
                    if (tr != nullptr) {
                      fault_span[i] = tr->open(c.was_primary ? "fault.primary_crash"
                                                             : "fault.member_crash",
                                               sim.now(), 1, root);
                    }
                    sim.node(victim).os_crash(spec.down_for);
                  });
    }
    plan.arm();
  }
  auto sub = sim.telemetry().bus().subscribe(
      oftt::obs::mask_of(EventKind::kSwimDeadConfirm, EventKind::kRoleChange,
                         EventKind::kNodeUp),
      [&](const Event& e) {
        if (e.kind == EventKind::kSwimDeadConfirm) {
          bool crashed = false;
          for (const CrashRecord& c : crashes) {
            crashed = crashed || (c.victim == static_cast<int>(e.a) && e.at >= c.injected);
          }
          if (!crashed) false_positives.insert({static_cast<int>(e.a), e.b});
        }
        for (CrashRecord& c : crashes) {
          if (c.injected < 0 || e.at < c.injected) continue;
          if (e.kind == EventKind::kSwimDeadConfirm && static_cast<int>(e.a) == c.victim &&
              c.detected < 0) {
            c.detected = e.at;
          } else if (e.kind == EventKind::kRoleChange && c.was_primary &&
                     e.a == oftt::obs::kRoleChangePrimary && e.node != c.victim &&
                     c.failed_over < 0) {
            c.failed_over = e.at;
          } else if (e.kind == EventKind::kNodeUp && e.node == c.victim && c.back_up < 0) {
            c.back_up = e.at;
          }
        }
      });
  out.setup_s = static_cast<double>(host_ns() - setup0) / 1e9;
  if (o.setup_only) return out;

  // Measured phase: the whole schedule plus room for the last
  // detection, in 100 ms slices labelled by the fleet's state.
  const std::int64_t host0 = host_ns();
  const sim::SimTime end = t0 + horizon;
  while (sim.now() < end) {
    const char* phase = "steady";
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      const CrashRecord& c = crashes[i];
      if (c.injected < 0) continue;
      const bool open = c.detected < 0 || (c.was_primary && c.failed_over < 0);
      if (open) {
        phase = "fault";
        break;
      }
      if (c.back_up < 0) phase = "recover";
    }
    run.run_for(std::min<sim::SimTime>(sim::milliseconds(100), end - sim.now()), phase);
    if (tr != nullptr) {
      for (std::size_t i = 0; i < crashes.size(); ++i) {
        const CrashRecord& c = crashes[i];
        const bool done = c.detected >= 0 && (!c.was_primary || c.failed_over >= 0);
        if (fault_span[i] >= 0 && done) {
          tr->close(fault_span[i], sim.now());
          fault_span[i] = -1;
        }
      }
    }
  }
  out.measured_host_s = static_cast<double>(host_ns() - host0) / 1e9;
  out.measured_sim_s = sim::to_seconds(end - t0);
  sim.telemetry().bus().unsubscribe(sub);
  if (tr != nullptr) {
    for (int& id : fault_span) {
      if (id >= 0) tr->close(id, sim.now());
    }
  }

  std::vector<std::int64_t> detect, failover;
  std::uint64_t missed = 0;
  for (const CrashRecord& c : crashes) {
    if (c.injected < 0) continue;
    ++out.attempted;
    bool ok = c.detected >= 0;
    if (c.detected >= 0) detect.push_back(c.detected - c.injected);
    if (c.was_primary) {
      ok = ok && c.failed_over >= 0;
      if (c.failed_over >= 0) failover.push_back(c.failed_over - c.injected);
    }
    if (!ok) ++missed;
  }
  // A wrong confirm is an operation of its own: the detector declared a
  // death it should not have.
  if (out.attempted == 0) out.violations.push_back("swim: no crash was injected");
  out.attempted += false_positives.size();
  out.failed = missed + false_positives.size();
  out.sim_metrics["detect_p50_ms"] = {percentile_ms(detect, 0.5), detect.size()};
  out.sim_metrics["failover_p50_ms"] = {percentile_ms(failover, 0.5), failover.size()};

  probe.finish();
  out.digest = probe.history_hash();
  const NetTotals net = net_totals(sim);
  fold(out.digest, net.sent);
  fold(out.digest, net.delivered);
  fold(out.digest, net.dropped);
  fold(out.digest, static_cast<std::uint64_t>(dep->primary_node() + 1));
  for (const CrashRecord& c : crashes) {
    fold(out.digest, static_cast<std::uint64_t>(c.detected));
    fold(out.digest, static_cast<std::uint64_t>(c.failed_over));
  }

  if (tr != nullptr) {
    tr->close(root, sim.now());
    common_layers(sim, *tr, o.run, out);
    engine_layers(sim, out);
    auto& L = out.layers;
    const double probes = static_cast<double>(counter(sim, "oftt.swim_probes_sent"));
    L["swim.probes_sent"] = probes;
    L["swim.ack_ratio"] =
        probes > 0 ? static_cast<double>(counter(sim, "oftt.swim_probes_acked")) / probes : 0;
    L["swim.indirect_probes"] = static_cast<double>(counter(sim, "oftt.swim_indirect_probes"));
    L["swim.suspicion_p50_ms"] =
        std::max(0.0, histogram_quantile(sim, "oftt.swim_suspicion_ms", 0.5));
    L["cluster.takeovers"] = static_cast<double>(counter(sim, "oftt.takeovers"));
    L["cluster.dual_primary"] = static_cast<double>(counter(sim, "oftt.dual_primary_detected"));
    L["faults.fired"] = static_cast<double>(plan.fired_count());
    L["faults.pending"] = static_cast<double>(plan.pending().size());
    tr->end_run();
  }
  return out;
}

}  // namespace perfbench
