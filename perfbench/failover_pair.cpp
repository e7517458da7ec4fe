// failover_pair: the paper's two-node PairDeployment on dual networks,
// warm-passive replication, Message Diverter on. The application holds
// ~1 MiB of state with a seeded 0.5 % of it rewritten every tick, and
// consumes an open-loop MSMQ stream through the diverter. A seeded
// schedule injects faults from the paper's four classes (node crash,
// NT crash, application kill, engine kill) plus planned switchovers,
// each once the previous one has recovered and redundancy is back.
// Exercises ftim capture/delta, store journal appends and recovery
// replay, the transport's checkpoint class, and diverter/msmq.
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "chaos/coverage.h"
#include "core/api.h"
#include "core/deployment.h"
#include "core/diverter.h"
#include "msmq/queue_manager.h"
#include "nt/runtime.h"
#include "sim/fault_plan.h"
#include "sim/timer.h"

namespace perfbench {

namespace {

namespace core = oftt::core;
using oftt::obs::Event;
using oftt::obs::EventKind;

constexpr const char* kQueue = "unit.q";
constexpr std::size_t kMaxMessages = 1 << 17;  // ledger capacity (bits)
const sim::SimTime kTick = sim::milliseconds(50);
const sim::SimTime kCheckpointPeriod = sim::milliseconds(500);

/// Which replica consumed each message, as the harness sees it. Kept
/// outside the replicated state; it only attributes lost messages to a
/// cause.
struct Consumed {
  std::set<std::uint64_t> by_active, by_demoted, while_dual;
  std::function<bool()> dual_active;  // both replicas active right now
};

struct AppOptions {
  std::uint64_t seed = 1;
  std::size_t state_bytes = 1 << 20;
  int chunks_per_tick = 82;  // 64-byte chunks: 0.5 % of 1 MiB
  Consumed* consumed = nullptr;
};

/// The replicated application. "state" is the bulk plant state; the
/// "ledger" region holds the progress counter and one bit per diverter
/// message, so loss and duplication are visible in replicated state
/// after any number of failovers. Every message is checkpointed as soon
/// as it is in the ledger (per-event OFTTSave), the discipline under
/// which the diverter promises delivery across a switchover; ticks ride
/// the periodic checkpoint.
class PairApp {
 public:
  PairApp(sim::Process& process, AppOptions options)
      : process_(&process), options_(options), timer_(process.main_strand()) {
    auto& rt = oftt::nt::NtRuntime::of(process);
    rt.create_thread_static("app_main", 0x401000);
    state_ = &rt.memory().alloc("state", options_.state_bytes);
    state_->set_range_limit(4096);
    ledger_ = &rt.memory().alloc("ledger", 16 + kMaxMessages / 8);
    ledger_->set_range_limit(4096);
    ticks_ = oftt::nt::Cell<std::int64_t>(ledger_, 0);
    delivered_ = oftt::nt::Cell<std::int64_t>(ledger_, 8);
    core::FtimOptions f;
    f.replication = core::ReplicationMode::kWarmPassive;
    f.checkpoint_period = kCheckpointPeriod;
    core::OFTTInitialize(process, f);
    core::Ftim& ftim = *core::Ftim::find(process);
    ftim.on_activate([this](bool) {
      timer_.start(kTick, [this] { tick(); });
      oftt::msmq::MsmqApi::of(*process_).subscribe(
          kQueue, [this](const oftt::msmq::Message& m) { consume(m); });
    });
    ftim.on_deactivate([this] { timer_.stop(); });
  }

  std::int64_t ticks() const { return ticks_.get(); }
  std::int64_t delivered() const { return delivered_.get(); }
  bool has(std::uint64_t seq) const {
    return (ledger_->read<std::uint8_t>(16 + seq / 8) & (1u << (seq % 8))) != 0;
  }

  static PairApp* find(sim::Node& node) {
    auto proc = node.find_process("app");
    return proc && proc->alive() ? proc->find_attachment<PairApp>() : nullptr;
  }

 private:
  void tick() {
    const std::int64_t t = ticks_.get() + 1;
    ticks_.set(t);
    // Seeded positions, a pure function of (seed, tick): a replica that
    // resumes from any checkpoint rewrites the same bytes.
    InputRng rng(options_.seed * 1000003u + static_cast<std::uint64_t>(t));
    const std::size_t chunks = options_.state_bytes / 64;
    for (int i = 0; i < options_.chunks_per_tick; ++i) {
      const std::size_t base = rng.below(chunks) * 64;
      for (std::size_t w = 0; w < 64; w += 8) state_->write<std::uint64_t>(base + w, rng.next());
    }
  }

  void consume(const oftt::msmq::Message& m) {
    oftt::BinaryReader r(m.body);
    const auto seq = static_cast<std::uint64_t>(r.i64());
    if (seq >= kMaxMessages) return;
    // MsmqApi has no unsubscribe: a demoted replica keeps receiving from
    // its local queue. It must not touch replicated state (deltas from
    // the primary only overwrite their own dirty ranges), so the message
    // is acked and dropped — the loss shows in the ledger.
    if (!core::Ftim::find(*process_)->active()) {
      if (options_.consumed != nullptr) options_.consumed->by_demoted.insert(seq);
      return;
    }
    if (Consumed* c = options_.consumed) {
      c->by_active.insert(seq);
      if (c->dual_active && c->dual_active()) c->while_dual.insert(seq);
    }
    const std::size_t byte = 16 + seq / 8;
    const auto bit = static_cast<std::uint8_t>(1u << (seq % 8));
    const auto cur = ledger_->read<std::uint8_t>(byte);
    if ((cur & bit) != 0) return;  // redelivery of a message already in the ledger
    ledger_->write<std::uint8_t>(byte, static_cast<std::uint8_t>(cur | bit));
    delivered_.set(delivered_.get() + 1);
    core::OFTTSave(*process_);
  }

  sim::Process* process_;
  AppOptions options_;
  oftt::nt::Region* state_ = nullptr;
  oftt::nt::Region* ledger_ = nullptr;
  oftt::nt::Cell<std::int64_t> ticks_;
  oftt::nt::Cell<std::int64_t> delivered_;
  sim::PeriodicTimer timer_;
};

enum class FaultKind { kNodeCrash, kNtCrash, kAppKill, kEngineKill, kSwitchover };
const char* fault_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kNtCrash: return "nt_crash";
    case FaultKind::kAppKill: return "app_kill";
    case FaultKind::kEngineKill: return "engine_kill";
    case FaultKind::kSwitchover: return "switchover";
  }
  return "?";
}

struct FaultSpec {
  FaultKind kind = FaultKind::kNodeCrash;
  sim::SimTime dwell = 0;     // after redundancy is back, before injecting
  sim::SimTime down_for = 0;  // node/NT crash: time until the node boots
};

/// The seeded schedule: every class equally often, in a seeded order.
std::vector<FaultSpec> make_schedule(std::uint64_t seed, int count) {
  InputRng rng(seed ^ 0xFA11ull);
  std::vector<FaultSpec> out;
  for (int i = 0; i < count; ++i) {
    FaultSpec f;
    f.kind = static_cast<FaultKind>(i % 5);
    f.dwell = sim::milliseconds(rng.range(300, 1000));
    f.down_for = sim::milliseconds(rng.range(1000, 2500));
    out.push_back(f);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

struct FaultRecord {
  FaultKind kind = FaultKind::kNodeCrash;
  int victim = -1;
  sim::SimTime injected = -1;
  sim::SimTime detected = -1;
  sim::SimTime restored = -1;
  std::int64_t ticks_before = 0;
  std::int64_t ticks_lost = 0;
  bool redundant_again = false;
};

/// Counters that live in per-process objects die with their process;
/// they are summed here just before a fault can kill them, and once
/// more at the end.
struct Harvest {
  std::uint64_t need_full_nacks = 0, compactions = 0, msmq_retries = 0, msmq_dups = 0;
  void take_ftim(core::PairDeployment& dep, sim::Node& node) {
    if (core::Ftim* f = dep.ftim_on(node)) {
      need_full_nacks += f->need_full_nacks();
      if (const auto* j = f->journal()) compactions += j->compactions();
    }
  }
  void take_qm(sim::Node& node) {
    if (auto* qm = oftt::msmq::QueueManager::find(node)) {
      msmq_retries += qm->retries();
      msmq_dups += qm->duplicates_dropped();
    }
  }
};

}  // namespace

RepResult run_failover_pair(const RepOptions& o) {
  RepResult out;
  const int fault_count = o.short_mode ? 5 : 100;
  const std::vector<FaultSpec> schedule = make_schedule(o.seed, fault_count);
  Tracer* tr = o.tracer;

  const std::int64_t setup0 = host_ns();
  sim::Simulation sim(o.seed);
  oftt::chaos::CoverageProbe probe(sim.telemetry());
  Runner run(sim, tr);
  if (tr != nullptr) tr->begin_run(o.run, common_probes(sim, run));
  const int root = tr != nullptr ? tr->open("rep", sim.now()) : -1;

  std::unique_ptr<core::PairDeployment> dep;
  Consumed consumed;
  {
    Scope s(tr, "setup.deployment", sim);
    core::PairDeploymentOptions opts;
    opts.dual_network = true;
    opts.with_diverter = true;
    opts.diverter_queue = kQueue;
    opts.engine.replication = core::ReplicationMode::kWarmPassive;
    AppOptions app;
    app.seed = o.seed;
    app.consumed = &consumed;
    opts.app_factory = [app](sim::Process& proc) { proc.attachment<PairApp>(proc, app); };
    dep = std::make_unique<core::PairDeployment>(sim, opts);
    consumed.dual_active = [&dep] {
      core::Ftim* a = dep->ftim_on(dep->node_a());
      core::Ftim* b = dep->ftim_on(dep->node_b());
      return a != nullptr && b != nullptr && a->active() && b->active();
    };
  }

  // Redundant: one primary serving, one backup whose replica is ready,
  // and the diverter pointing at the primary.
  auto redundant = [&] {
    const int p = dep->primary_node(), b = dep->backup_node();
    if (p < 0 || b < 0) return false;
    core::Engine* eb = core::Engine::find(*dep->node_by_id(b));
    core::MessageDiverter* dv = dep->diverter();
    return PairApp::find(*dep->node_by_id(p)) != nullptr &&
           PairApp::find(*dep->node_by_id(b)) != nullptr && eb != nullptr &&
           eb->node_replica_ready() && dv != nullptr && dv->current_primary() == p;
  };
  {
    Scope s(tr, "setup.converge", sim);
    const sim::SimTime deadline = sim::seconds(30);
    while (sim.now() < deadline && (sim.now() < sim::seconds(2) || !redundant())) {
      run.run_for(sim::milliseconds(100), "converge");
    }
  }
  if (!redundant()) out.violations.push_back("pair: no primary+ready backup after convergence");

  // The external message stream: open loop, 20 messages per sim second.
  std::shared_ptr<sim::Process> source;
  std::unique_ptr<sim::PeriodicTimer> stream;
  std::uint64_t sent = 0;
  std::vector<sim::SimTime> send_times;
  {
    Scope s(tr, "setup.arm", sim);
    source = dep->monitor_node().start_process("source", nullptr);
    stream = std::make_unique<sim::PeriodicTimer>(source->main_strand());
    stream->start(sim::milliseconds(50), [&] {
      if (core::MessageDiverter* dv = dep->diverter()) {
        oftt::BinaryWriter w;
        send_times.push_back(sim.now());
        w.i64(static_cast<std::int64_t>(sent++));
        dv->send("m", std::move(w).take());
      }
    });
  }
  out.setup_s = static_cast<double>(host_ns() - setup0) / 1e9;
  if (o.setup_only) return out;

  std::vector<FaultRecord> faults;
  faults.reserve(schedule.size());  // fault callbacks hold pointers into it
  std::vector<std::unique_ptr<oftt::sim::FaultPlan>> plans;
  Harvest harvest;
  std::uint64_t lag_max = 0;
  auto sample_lag = [&] {
    const int p = dep->primary_node();
    if (p < 0) return;
    if (core::Ftim* f = dep->ftim_on(*dep->node_by_id(p))) {
      lag_max = std::max<std::uint64_t>(lag_max, f->replication_lag());
    }
  };
  auto sub = sim.telemetry().bus().subscribe(
      oftt::obs::mask_of(EventKind::kFailureDetected, EventKind::kComponentFailed,
                         EventKind::kEngineRestart, EventKind::kRoleChange),
      [&](const Event& e) {
        if (faults.empty()) return;
        FaultRecord& f = faults.back();
        if (f.detected >= 0 || f.injected < 0 || f.kind == FaultKind::kSwitchover) return;
        if (e.kind == EventKind::kRoleChange &&
            (e.a != oftt::obs::kRoleChangePrimary || e.node == f.victim)) {
          return;
        }
        f.detected = e.at;
      });

  const std::int64_t host0 = host_ns();
  const sim::SimTime t0 = sim.now();
  const std::int64_t max_lost = kCheckpointPeriod / kTick;
  for (const FaultSpec& spec : schedule) {
    run.run_for(spec.dwell, "steady");
    sample_lag();
    const int primary = dep->primary_node();
    FaultRecord rec;
    rec.kind = spec.kind;
    rec.victim = primary;
    if (primary < 0) {
      faults.push_back(rec);  // never injected: counts as failed
      continue;
    }
    sim::Node& victim = *dep->node_by_id(primary);
    if (PairApp* app = PairApp::find(victim)) rec.ticks_before = app->ticks();
    faults.push_back(rec);
    if (spec.kind == FaultKind::kNodeCrash || spec.kind == FaultKind::kNtCrash) {
      harvest.take_ftim(*dep, victim);
      harvest.take_qm(victim);
    } else if (spec.kind == FaultKind::kAppKill) {
      harvest.take_ftim(*dep, victim);
    }
    auto plan = std::make_unique<oftt::sim::FaultPlan>(sim);
    FaultRecord* f = &faults.back();
    plan->custom(sim.now(), fault_name(spec.kind), [&, f, spec, primary] {
      sim::Node& n = sim.node(primary);
      f->injected = sim.now();
      switch (spec.kind) {
        case FaultKind::kNodeCrash:
          n.crash();
          n.reboot(spec.down_for);
          break;
        case FaultKind::kNtCrash: n.os_crash(spec.down_for); break;
        case FaultKind::kAppKill:
          if (auto p = n.find_process("app")) p->kill("fault injection");
          break;
        case FaultKind::kEngineKill:
          if (auto p = n.find_process("oftt_engine")) p->kill("fault injection");
          break;
        case FaultKind::kSwitchover:
          if (core::Engine* e = core::Engine::find(n)) e->request_switchover("planned");
          break;
      }
    });
    plan->arm();
    plans.push_back(std::move(plan));
    const int span = tr != nullptr ? tr->open(std::string("fault.") + fault_name(spec.kind),
                                              sim.now(), 1, root)
                                   : -1;

    // Service restored: a primary's application ticks past the value it
    // first showed after the fault.
    const sim::SimTime deadline = sim.now() + sim::seconds(20);
    std::int64_t first_seen = -1;
    int first_node = -1;
    while (sim.now() < deadline && f->restored < 0) {
      run.run_for(sim::milliseconds(10), "fault");
      const int p = dep->primary_node();
      PairApp* app = p >= 0 ? PairApp::find(*dep->node_by_id(p)) : nullptr;
      core::Ftim* ftim = p >= 0 ? dep->ftim_on(*dep->node_by_id(p)) : nullptr;
      if (app == nullptr || ftim == nullptr || !ftim->active() || f->injected < 0) continue;
      if (first_seen < 0 || first_node != p) {
        first_seen = app->ticks();
        first_node = p;
      } else if (app->ticks() > first_seen) {
        f->restored = sim.now();
        f->ticks_lost = std::max<std::int64_t>(0, f->ticks_before - first_seen);
      }
    }
    if (span >= 0) tr->close(span, sim.now());
    // Redundancy restored before the next fault.
    const sim::SimTime rdeadline = sim.now() + sim::seconds(30);
    while (sim.now() < rdeadline && !redundant()) {
      run.run_for(sim::milliseconds(50), "recover");
      sample_lag();
    }
    f->redundant_again = redundant();
  }
  stream->stop();
  run.run_for(sim::seconds(5), "steady");  // drain diverter and MSMQ retries
  out.measured_host_s = static_cast<double>(host_ns() - host0) / 1e9;
  out.measured_sim_s = sim::to_seconds(sim.now() - t0);
  sim.telemetry().bus().unsubscribe(sub);

  std::vector<std::int64_t> detect, failover;
  std::map<std::string, int> failed_by_kind, lost_by_kind;
  std::uint64_t failed_faults = 0;
  for (const FaultRecord& f : faults) {
    const bool ok = f.injected >= 0 && f.restored >= 0 && f.ticks_lost <= max_lost &&
                    f.redundant_again;
    if (!ok) {
      ++failed_faults;
      ++failed_by_kind[fault_name(f.kind)];
    }
    if (f.detected >= 0) detect.push_back(f.detected - f.injected);
    if (f.restored >= 0) failover.push_back(f.restored - f.injected);
  }
  // Exactly-once delivery into the replicated state: every message the
  // source sent is in the final primary's ledger. A lost message is
  // attributed to a cause (who, if anyone, consumed it) and to the last
  // fault injected before it was sent + 2 s.
  std::uint64_t lost = 0;
  std::map<std::string, int> lost_by_cause;
  std::int64_t ledger_drift = 0;
  const int final_primary = dep->primary_node();
  PairApp* app = final_primary >= 0 ? PairApp::find(*dep->node_by_id(final_primary)) : nullptr;
  if (app == nullptr) {
    out.violations.push_back("pair: no primary application at the end of the run");
  } else {
    for (std::uint64_t s = 0; s < sent; ++s) {
      if (app->has(s)) continue;
      ++lost;
      // dual_primary: consumed while both replicas were active;
      // consumed_lost: an active replica put it in its ledger and saved,
      // yet the final ledger lacks it; demoted_drain: only a demoted
      // replica received it; never_consumed: no replica received it.
      ++lost_by_cause[consumed.while_dual.count(s) != 0   ? "dual_primary"
                      : consumed.by_active.count(s) != 0  ? "consumed_lost"
                      : consumed.by_demoted.count(s) != 0 ? "demoted_drain"
                                                          : "never_consumed"];
      const char* kind = "none";
      for (const FaultRecord& f : faults) {
        if (f.injected >= 0 && f.injected <= send_times[s] + sim::seconds(2)) {
          kind = fault_name(f.kind);
        }
      }
      ++lost_by_kind[kind];
    }
    // The ledger's counter must equal the number of bits it holds. It
    // drifts when a replica demoted in a dual-primary window serves again:
    // a backup folds only each delta's own cells into its live state, and
    // the deltas it accepted while it was still active are never folded.
    // That is the program's replication fault, so it counts as one failed
    // operation (the messages it cost are already counted lost).
    ledger_drift = app->delivered() - static_cast<std::int64_t>(sent - lost);
  }
  auto breakdown = [](const std::map<std::string, int>& m) {
    std::string s;
    for (const auto& [k, v] : m) s += " " + k + "=" + std::to_string(v);
    return s.empty() ? std::string(" none") : s;
  };
  out.notes.push_back(std::to_string(faults.size()) + " faults, not recovered in time:" +
                      breakdown(failed_by_kind));
  out.notes.push_back(std::to_string(sent) + " messages, lost by cause:" +
                      breakdown(lost_by_cause) + "; by last fault:" + breakdown(lost_by_kind));
  out.notes.push_back("ledger counter minus bits held: " + std::to_string(ledger_drift));
  out.attempted = faults.size() + sent + 1;
  out.failed = failed_faults + lost + (ledger_drift != 0 ? 1 : 0);
  out.sim_metrics["detect_p50_ms"] = {percentile_ms(detect, 0.5), detect.size()};
  out.sim_metrics["failover_p50_ms"] = {percentile_ms(failover, 0.5), failover.size()};
  out.sim_metrics["failover_p90_ms"] = {percentile_ms(failover, 0.9), failover.size()};

  probe.finish();
  out.digest = probe.history_hash();
  const NetTotals net = net_totals(sim);
  fold(out.digest, net.sent);
  fold(out.digest, net.delivered);
  fold(out.digest, sent);
  fold(out.digest, lost);
  for (const FaultRecord& f : faults) {
    fold(out.digest, static_cast<std::uint64_t>(f.restored));
    fold(out.digest, static_cast<std::uint64_t>(f.ticks_lost));
  }

  if (tr != nullptr) {
    tr->close(root, sim.now());
    common_layers(sim, *tr, o.run, out);
    engine_layers(sim, out);
    for (sim::Node* n : {&dep->node_a(), &dep->node_b(), &dep->monitor_node()}) {
      harvest.take_ftim(*dep, *n);
      harvest.take_qm(*n);
    }
    auto& L = out.layers;
    const double full = static_cast<double>(counter(sim, "oftt.ckpt_full_bytes"));
    const double delta = static_cast<double>(counter(sim, "oftt.ckpt_delta_bytes"));
    L["ftim.full_bytes"] = full;
    L["ftim.delta_bytes"] = delta;
    L["ftim.delta_share"] = full + delta > 0 ? delta / (full + delta) : 0;
    L["ftim.need_full_nacks"] = static_cast<double>(harvest.need_full_nacks);
    L["ftim.replication_lag_max"] = static_cast<double>(lag_max);
    L["store.records_appended"] = static_cast<double>(counter(sim, "store.journal_records"));
    L["store.bytes_appended"] = static_cast<double>(counter(sim, "store.journal_bytes_written"));
    L["store.compactions"] = static_cast<double>(harvest.compactions);
    L["store.append_failures"] =
        static_cast<double>(counter(sim, "store.journal_append_failures"));
    L["store.replayed_records"] = histogram_sum(sim, "oftt.recovery_replay_records");
    if (core::MessageDiverter* dv = dep->diverter()) {
      L["diverter.journaled_sends"] = static_cast<double>(dv->journaled_sends());
      L["diverter.reroutes"] = static_cast<double>(dv->reroutes());
      L["diverter.replayed_sends"] = static_cast<double>(dv->replayed_sends());
    }
    L["msmq.retries"] = static_cast<double>(harvest.msmq_retries);
    L["msmq.duplicates_dropped"] = static_cast<double>(harvest.msmq_dups);
    L["cluster.takeovers"] = static_cast<double>(counter(sim, "oftt.takeovers"));
    L["cluster.dual_primary"] = static_cast<double>(counter(sim, "oftt.dual_primary_detected"));
    std::size_t fired = 0, pending = 0;
    for (const auto& p : plans) {
      fired += p->fired_count();
      pending += p->pending().size();
    }
    L["faults.fired"] = static_cast<double>(fired);
    L["faults.pending"] = static_cast<double>(pending);
    tr->end_run();
  }
  return out;
}

}  // namespace perfbench
