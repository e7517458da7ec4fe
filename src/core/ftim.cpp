#include "core/ftim.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/simulation.h"

#include "sim/disk.h"

namespace oftt::core {
namespace {
constexpr const char* kEngineProcess = "oftt_engine";
}

Ftim::Ftim(sim::Process& process, FtimOptions options)
    : process_(&process),
      options_(std::move(options)),
      strand_(&process.create_strand("ftim")),
      rt_(&nt::NtRuntime::of(process)),
      port_(ftim_port(process.name())),
      ctr_ckpt_sent_(process.sim().telemetry().metrics().counter("oftt.checkpoints_sent")),
      ctr_ckpt_received_(
          process.sim().telemetry().metrics().counter("oftt.checkpoints_received")),
      ctr_ckpt_corrupt_(
          process.sim().telemetry().metrics().counter("oftt.checkpoints_corrupt")),
      ctr_engine_restarts_(
          process.sim().telemetry().metrics().counter("oftt.engine_restarts")),
      ctr_full_bytes_(
          process.sim().telemetry().metrics().counter("oftt.ckpt_full_bytes")),
      ctr_delta_bytes_(
          process.sim().telemetry().metrics().counter("oftt.ckpt_delta_bytes")),
      ctr_journal_recoveries_(
          process.sim().telemetry().metrics().counter("oftt.journal_recoveries")),
      ckpt_bytes_(process.sim().telemetry().metrics().histogram(
          "oftt.checkpoint_bytes", {256, 1024, 4096, 16384, 65536, 262144})),
      replay_records_(process.sim().telemetry().metrics().histogram(
          "oftt.recovery_replay_records", {1, 2, 4, 8, 16, 32, 64})),
      gauge_ckpt_rate_(process.sim().telemetry().metrics().gauge("oftt.ckpt_bytes_per_s")),
      gauge_decision_rate_(
          process.sim().telemetry().metrics().gauge("oftt.decision_bytes_per_s")),
      gauge_staleness_(
          process.sim().telemetry().metrics().gauge("oftt.backup_staleness_ns")),
      hb_timer_(*strand_),
      ckpt_timer_(*strand_),
      engine_check_timer_(*strand_),
      governor_timer_(*strand_) {
  if (options_.component.empty()) options_.component = process.name();
  validate_ftim_options(options_);
  ckpt_peers_ = options_.peer_nodes;
  if (ckpt_peers_.empty() && options_.peer_node >= 0) ckpt_peers_ = {options_.peer_node};

  // Resolve the replication tuning once; the policy object answers every
  // cadence/shape/discipline question against this config.
  rcfg_.checkpoint_period = options_.checkpoint_period;
  rcfg_.full_checkpoint_interval = options_.full_checkpoint_interval;
  rcfg_.deltas_enabled = options_.checkpoint_mode == CheckpointMode::kFull &&
                         options_.full_checkpoint_interval > 1 && options_.track_dirty_ranges;
  rcfg_.delta_stream_period =
      options_.delta_stream_period > 0
          ? options_.delta_stream_period
          : std::max<sim::SimTime>(sim::milliseconds(1), options_.checkpoint_period / 4);
  rcfg_.promotion_staleness_bound = options_.promotion_staleness_bound;
  policy_ = make_policy(options_.replication);

  // The FTIM thread owns the control/checkpoint port.
  strand_->bind(port_, [this](const sim::Datagram& d) { on_port(d); });

  // All FTIM <-> FTIM traffic (checkpoints, deltas, pulls, pull replies,
  // nacks) rides a reliable ordered session per peer. Checkpoint frames
  // are tagged with their seq so the session's acked-tag watermark is
  // the replication watermark. Engine control (SetActive) stays raw: it
  // is loopback-only and idempotent.
  transport::SessionConfig scfg;
  scfg.networks = options_.networks;
  scfg.window_bytes = 1024 * 1024;
  scfg.queue_cap = 128;
  scfg.queue_policy = transport::QueuePolicy::kReject;
  scfg.rto_initial = sim::milliseconds(50);
  scfg.rto_max = sim::milliseconds(500);
  ep_ = std::make_unique<transport::Endpoint>(*strand_, port_, scfg);
  ep_->on_deliver([this](int src_node, int network_id, const Buffer& payload) {
    on_frame(src_node, network_id, payload);
  });

  if (options_.install_iat_hook) {
    // Intercept CreateThread so dynamically created threads become
    // discoverable for checkpointing (§3.1).
    auto original = rt_->hook_create_thread(
        [this](const std::string& name, std::uint64_t start) -> nt::Task& {
          nt::Task& task = original_create_thread_(name, start);
          hooked_tids_.insert(task.tid());
          return task;
        });
    original_create_thread_ = std::move(original);
  }

  // A restarted instance recovers the newest checkpoint chain from the
  // node-local journal (state it took as primary or received as
  // backup), so a local restart — or a full node reboot — does not come
  // back empty and only needs the missing suffix from the peers.
  if (options_.journal_checkpoints) {
    store::JournalOptions jopts;
    jopts.segment_bytes = options_.journal_segment_bytes;
    journal_ = std::make_unique<store::Journal>(process.sim(), process.node().id(),
                                                "oftt.jrnl." + options_.component, jopts);

    // The active policy is journaled separately (tiny snapshot-free log,
    // two segments max): the checkpoint journal compacts on every full
    // checkpoint and would eventually retire a kPolicy record living
    // there. The newest record wins; absence means the configured mode.
    store::JournalOptions popts;
    popts.segment_bytes = 256;
    popts.auto_compact = false;
    popts.max_segments = 2;
    policy_journal_ = std::make_unique<store::Journal>(
        process.sim(), process.node().id(), "oftt.plcy." + options_.component, popts);
    for (const store::Record& r : policy_journal_->recover()) {
      if (r.type != store::RecordType::kPolicy || r.payload.empty()) continue;
      if (r.id < policy_record_seq_) continue;
      policy_record_seq_ = r.id;
      auto mode = static_cast<ReplicationMode>(r.payload[0]);
      if (mode != policy_->mode()) {
        policy_ = make_policy(mode);
        OFTT_LOG_INFO("oftt/ftim", process.node().name(), "/", process.name(),
                      ": restored replication policy ", policy_->name(), " from journal");
      }
    }

    recover_from_journal();
  }

  if (options_.governor.enabled) {
    governor_.emplace(options_.governor);
    governor_timer_.start(options_.governor.period, [this] { governor_tick(); });
  }

  register_with_engine();
  hb_timer_.start(options_.heartbeat_period, [this] { heartbeat_tick(); });
  if (options_.restart_engine_if_dead) {
    engine_check_timer_.start(options_.engine_check_period, [this] { check_engine(); });
  }
}

std::vector<nt::Task*> Ftim::discoverable_tasks() const {
  std::vector<nt::Task*> out;
  for (nt::Task* t : rt_->all_tasks()) {
    if (t->statically_created() || hooked_tids_.count(t->tid()) != 0) out.push_back(t);
  }
  return out;
}

void Ftim::register_with_engine() {
  FtRegister reg;
  reg.component = options_.component;
  reg.process_name = process_->name();
  reg.ftim_port = port_;
  reg.kind = options_.kind;
  reg.max_local_restarts = options_.max_local_restarts;
  reg.switchover_on_permanent = options_.switchover_on_permanent;
  reg.currently_active = active_;
  reg.incarnation = incarnation_;
  send_engine(reg.encode());
}

void Ftim::send_engine(const Buffer& payload) {
  process_->send(0, process_->node().id(), kEnginePort, payload, port_);
}

void Ftim::publish_event(obs::EventKind kind, std::string detail, std::uint64_t a,
                         std::uint64_t b) {
  obs::Event e;
  e.kind = kind;
  e.node = process_->node().id();
  e.component = options_.component;
  e.detail = std::move(detail);
  e.a = a;
  e.b = b;
  process_->sim().telemetry().bus().publish(std::move(e));
}

void Ftim::heartbeat_tick() {
  FtHeartbeat hb;
  hb.component = options_.component;
  hb.seq = ++hb_seq_;
  hb.policy = policy_->mode();
  // Readiness judged against "now": the primary is (presumably) alive
  // while heartbeats flow, so now IS the freshest failure-evidence time
  // the engine could ever hold. The engine keeps the last reported
  // verdict, which therefore dates from just before any failure.
  hb.ready = promotion_ready_at(process_->sim().now());
  hb.applied_at = applied_at_;
  send_engine(hb.encode());
  if (!active_ && applied_at_ > 0) {
    gauge_staleness_.set(
        static_cast<std::int64_t>(process_->sim().now() - applied_at_));
  }
  // Periodic re-registration keeps a restarted engine informed.
  if (++hb_count_ % 10 == 0) register_with_engine();
}

void Ftim::take_checkpoint() {
  if (!active_ || options_.kind != FtimKind::kOpcClient) return;
  const ReplicationPolicy::CaptureState cap{force_full_, ckpt_seq_, ckpts_since_full_};
  const bool delta = policy_->capture_as_delta(rcfg_, cap);
  const std::uint64_t base = ckpt_seq_;
  CheckpointImage img =
      delta ? capture_delta_checkpoint(*rt_, ++ckpt_seq_, base, incarnation_,
                                       discoverable_tasks())
            : capture_checkpoint(*rt_, options_.checkpoint_mode, cells_, ++ckpt_seq_,
                                 incarnation_, discoverable_tasks());
  img.decision_seq = decision_seq_;
  img.taken_at = process_->sim().now();
  // Everything up to this instant is captured: the dirty tracking now
  // measures what the NEXT delta must carry.
  rt_->memory().clear_all_dirty();
  if (delta) {
    ++ckpts_since_full_;
  } else {
    ckpts_since_full_ = 0;
    force_full_ = false;
  }
  Buffer blob = img.marshal();
  last_checkpoint_bytes_ = blob.size();
  ++checkpoints_sent_;
  if (delta) ++delta_checkpoints_sent_; else ++full_checkpoints_sent_;
  ctr_ckpt_sent_.inc();
  ckpt_bytes_.record(static_cast<std::int64_t>(blob.size()));
  publish_event(obs::EventKind::kCheckpointTaken, delta ? "delta" : "full", ckpt_seq_,
                blob.size());
  journal_checkpoint(img, blob);
  if (ckpt_peers_.empty()) return;
  Buffer frame = encode_checkpoint(options_.component, blob);
  // Fan out to every backup replica over its session; the session
  // handles retransmission, ordering and (on the dual-network
  // configuration) alternating networks across retries.
  for (int peer : ckpt_peers_) {
    if (!ep_->send(peer, frame, /*tag=*/ckpt_seq_, nullptr, transport::kClassCheckpoint)) {
      // Session queue full — the peer has been unreachable long enough
      // to absorb the whole window. Shed this frame; the stream resumes
      // self-contained once the peer is back.
      force_full_ = true;
      continue;
    }
    if (delta) {
      delta_bytes_sent_ += blob.size();
      ctr_delta_bytes_.inc(static_cast<std::int64_t>(blob.size()));
    } else {
      full_bytes_sent_ += blob.size();
      ctr_full_bytes_.inc(static_cast<std::int64_t>(blob.size()));
    }
  }
}

void Ftim::journal_checkpoint(const CheckpointImage& img, const Buffer& blob) {
  if (!journal_) return;
  const bool is_delta = img.mode == CheckpointMode::kDelta;
  if (!journal_->append(
          is_delta ? store::RecordType::kDelta : store::RecordType::kSnapshot, img.seq,
          is_delta ? img.base_seq : 0, blob)) {
    OFTT_LOG_WARN("oftt/ftim", process_->node().name(), "/", process_->name(),
                  ": journal append failed for seq ", img.seq, " (disk full?)");
  }
}

void Ftim::recover_from_journal() {
  store::RecoveredImage rec = journal_->recover_image();
  if (!rec.valid) return;
  CheckpointImage img;
  if (!CheckpointImage::unmarshal(rec.snapshot, img)) return;
  std::uint64_t replayed = 1;
  for (const store::Record& d : rec.deltas) {
    CheckpointImage delta;
    if (!CheckpointImage::unmarshal(d.payload, delta)) break;
    if (delta.incarnation != img.incarnation || delta.base_seq != img.seq) break;
    if (!apply_delta(img, delta).applied()) break;
    ++replayed;
  }
  ckpt_seq_ = img.seq;
  latest_ = std::move(img);
  // Decision-log records newer than the image's watermark survive in
  // the journal suffix; stash them for replay once the runtime holds
  // the base state (fold-on-receipt or activation restore).
  decisions_applied_ = latest_->decision_seq;
  decision_seq_ = latest_->decision_seq;
  for (store::Record& drec : journal_->recover()) {
    if (drec.type == store::RecordType::kDecision && drec.id > decisions_applied_) {
      pending_decisions_[drec.id] = std::move(drec.payload);
    }
  }
  recovered_from_journal_ = true;
  journal_replayed_records_ = replayed;
  ctr_journal_recoveries_.inc();
  replay_records_.record(static_cast<std::int64_t>(replayed));
  OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(),
                ": recovered checkpoint seq ", latest_->seq, " from local journal (",
                replayed, " records)");
  publish_event(obs::EventKind::kJournalRecovered, "recovered from local journal", replayed,
                latest_->seq);
  // Ask the peers for the suffix this node missed while it was down.
  // Whoever is currently primary answers; everyone else ignores it.
  if (ckpt_peers_.empty()) return;
  CheckpointPull pull;
  pull.component = options_.component;
  pull.have_seq = latest_->seq;
  pull.have_incarnation = latest_->incarnation;
  pull.from_node = process_->node().id();
  Buffer frame = pull.encode();
  for (int peer : ckpt_peers_) ep_->send(peer, frame);
}

std::uint64_t Ftim::peer_acked_seq() const {
  std::uint64_t highest = 0;
  for (int peer : ckpt_peers_) {
    highest = std::max(highest, ep_->acked_tag(peer, transport::kClassCheckpoint));
  }
  return highest;
}

std::uint64_t Ftim::min_acked_seq() const {
  if (ckpt_peers_.empty()) return 0;
  std::uint64_t lowest = ~std::uint64_t{0};
  for (int peer : ckpt_peers_) {
    lowest = std::min(lowest, ep_->acked_tag(peer, transport::kClassCheckpoint));
  }
  return lowest;
}

std::uint64_t Ftim::acked_by(int node) const {
  return ep_->acked_tag(node, transport::kClassCheckpoint);
}

HRESULT Ftim::save_now() {
  if (!active_) return OFTT_E_NOT_PRIMARY;
  take_checkpoint();
  return S_OK;
}

void Ftim::sel_save(const std::string& region, std::uint32_t offset, std::uint32_t size) {
  cells_.push_back(CellSpec{region, offset, size});
}

HRESULT Ftim::distress(const std::string& reason) {
  FtDistress d;
  d.component = options_.component;
  d.reason = reason;
  send_engine(d.encode());
  return S_OK;
}

HRESULT Ftim::watchdog_create(const std::string& name, sim::SimTime timeout) {
  WatchdogMsg wd;
  wd.op = MsgKind::kWatchdogCreate;
  wd.component = options_.component;
  wd.watchdog = name;
  wd.timeout = timeout;
  send_engine(wd.encode());
  return S_OK;
}

HRESULT Ftim::watchdog_reset(const std::string& name, sim::SimTime timeout) {
  WatchdogMsg wd;
  wd.op = MsgKind::kWatchdogReset;
  wd.component = options_.component;
  wd.watchdog = name;
  wd.timeout = timeout;
  send_engine(wd.encode());
  return S_OK;
}

HRESULT Ftim::set_recovery_rule(int max_local_restarts, int switchover_on_permanent) {
  SetRule rule;
  rule.component = options_.component;
  rule.max_local_restarts = max_local_restarts;
  rule.switchover_on_permanent = switchover_on_permanent;
  send_engine(rule.encode());
  // Keep re-registrations consistent with the new rule.
  options_.max_local_restarts = max_local_restarts;
  options_.switchover_on_permanent = switchover_on_permanent;
  return S_OK;
}

HRESULT Ftim::watchdog_delete(const std::string& name) {
  WatchdogMsg wd;
  wd.op = MsgKind::kWatchdogDelete;
  wd.component = options_.component;
  wd.watchdog = name;
  send_engine(wd.encode());
  return S_OK;
}

void Ftim::handle_set_active(const SetActive& msg) {
  role_ = msg.role;
  incarnation_ = msg.incarnation;
  if (msg.active == active_) return;
  active_ = msg.active;
  if (!active_ && accepted_while_active_) runtime_current_ = false;
  accepted_while_active_ = false;
  if (active_) {
    // A restore marks every region dirty and starts a new incarnation:
    // the first checkpoint of this reign must be self-contained.
    force_full_ = true;
    // Warm/semi replicas folded images into the live runtime as they
    // arrived (runtime_current_), so they skip the bulk restore —
    // that is the whole point of paying for streaming.
    const bool need_restore =
        latest_ && (policy_->restore_on_activate() || !runtime_current_);
    int anomalies = 0;
    if (need_restore) {
      if (options_.restore_rate_bytes_per_s > 0) {
        // Model the restore as taking payload/rate seconds so benches
        // can see the switchover cost the policy is meant to hide.
        const auto delay = static_cast<sim::SimTime>(
            static_cast<double>(latest_->payload_bytes()) * 1e9 /
            static_cast<double>(options_.restore_rate_bytes_per_s));
        strand_->schedule_after(delay, [this] {
          if (!active_ || !latest_) return;
          const int a = restore_checkpoint(*rt_, *latest_);
          runtime_current_ = true;
          replay_pending_decisions();
          finish_activation(/*restored=*/true, a);
        });
        return;
      }
      anomalies = restore_checkpoint(*rt_, *latest_);
    }
    runtime_current_ = true;  // the active side defines the state
    replay_pending_decisions();
    finish_activation(need_restore, anomalies);
  } else {
    ckpt_timer_.stop();
    OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(), ": DEACTIVATED");
    publish_event(obs::EventKind::kComponentDeactivated, "", 0, incarnation_);
    if (on_deactivate_) on_deactivate_();
  }
}

void Ftim::finish_activation(bool restored, int anomalies) {
  resync_pending_ = false;
  if (restored && latest_) {
    OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(),
                  ": ACTIVATED with checkpoint seq ", latest_->seq,
                  anomalies ? " (anomalies)" : "");
    publish_event(obs::EventKind::kCheckpointApplied, "restored on activation",
                  latest_->seq, static_cast<std::uint64_t>(anomalies));
  } else if (latest_) {
    OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(),
                  ": ACTIVATED in place (replica already current, seq ", latest_->seq, ")");
  } else {
    OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(),
                  ": ACTIVATED cold (no checkpoint)");
  }
  publish_event(obs::EventKind::kComponentActivated,
                restored ? "activated from checkpoint"
                         : (latest_ ? "promoted in place" : "activated cold"),
                latest_ ? latest_->seq : 0, incarnation_);
  if (options_.kind == FtimKind::kOpcClient) {
    ckpt_timer_.start(policy_->capture_period(rcfg_), [this] { take_checkpoint(); });
    if (policy_->mode() == ReplicationMode::kSemiActive) {
      // A promoted follower keeps proposing from where it applied; its
      // followers need a fresh base image before the log means anything.
      decision_seq_ = std::max(decision_seq_, decisions_applied_);
      take_checkpoint();
    }
  }
  if (on_activate_) on_activate_(restored);
}

void Ftim::on_port(const sim::Datagram& d) {
  // Session frames first: the endpoint consumes transport data/acks and
  // re-delivers application payloads through on_frame in order.
  if (ep_ && ep_->handle(d)) return;
  on_frame(d.src_node, d.network_id, d.payload);
}

void Ftim::on_frame(int src_node, int network_id, const Buffer& payload) {
  (void)network_id;
  switch (static_cast<MsgKind>(wire_kind(payload))) {
    case MsgKind::kSetActive: {
      SetActive msg;
      if (SetActive::decode(payload, msg)) handle_set_active(msg);
      break;
    }
    case MsgKind::kCheckpoint: {
      handle_checkpoint(src_node, payload);
      break;
    }
    case MsgKind::kCheckpointNack: {
      std::string component;
      std::uint64_t have_seq = 0;
      if (!decode_checkpoint_nack(payload, component, have_seq)) return;
      // The peer could not apply a delta (sequence gap / wrong
      // incarnation): fall back to a self-contained image next round.
      ++need_full_nacks_;
      force_full_ = true;
      // Semi-active followers stall until they hold a base image, so
      // answer resync nacks immediately instead of at the (long)
      // safety-net cadence.
      if (active_ && policy_->followers_execute()) take_checkpoint();
      break;
    }
    case MsgKind::kCheckpointPull: {
      CheckpointPull msg;
      if (CheckpointPull::decode(payload, msg)) handle_checkpoint_pull(msg);
      break;
    }
    case MsgKind::kDecision: {
      DecisionMsg msg;
      if (DecisionMsg::decode(payload, msg)) handle_decision(src_node, msg);
      break;
    }
    case MsgKind::kPolicySwitch: {
      PolicySwitchMsg msg;
      if (PolicySwitchMsg::decode(payload, msg)) handle_policy_switch(msg);
      break;
    }
    default:
      break;
  }
}

Ftim::Accept Ftim::accept_image(CheckpointImage&& img, const Buffer& blob) {
  if (img.mode == CheckpointMode::kDelta) {
    if (!latest_ || latest_->incarnation != img.incarnation ||
        latest_->seq != img.base_seq) {
      ++checkpoints_rejected_;
      // Distinguish "already have it" from "cannot get there from
      // here": only a genuine gap warrants forcing a full image.
      const bool stale =
          latest_ && (img.incarnation < latest_->incarnation ||
                      (img.incarnation == latest_->incarnation && img.seq <= latest_->seq));
      return stale ? Accept::kStale : Accept::kGap;
    }
    journal_checkpoint(img, blob);
    if (!apply_delta(*latest_, img).applied()) {
      // The hardened merge refused the frame (stale base / foreign
      // incarnation slipping past the pre-checks): treat it as a gap so
      // the primary falls back to a self-contained image.
      ++checkpoints_rejected_;
      return Accept::kGap;
    }
    ++deltas_applied_;
    ++checkpoints_received_;
    ctr_ckpt_received_.inc();
    return Accept::kApplied;
  }
  // Reject stale images: lower incarnation, or not newer than held.
  if (latest_ && (img.incarnation < latest_->incarnation ||
                  (img.incarnation == latest_->incarnation && img.seq <= latest_->seq))) {
    ++checkpoints_rejected_;
    return Accept::kStale;
  }
  // Journal before adopting: a crash between the two leaves the
  // journal ahead of memory, which recovery tolerates (it replays the
  // newest durable chain).
  journal_checkpoint(img, blob);
  latest_ = std::move(img);
  ++checkpoints_received_;
  ++full_checkpoints_received_;
  ctr_ckpt_received_.inc();
  return Accept::kApplied;
}

void Ftim::handle_checkpoint(int src_node, const Buffer& payload) {
  std::string component;
  Buffer blob;
  if (!decode_checkpoint(payload, component, blob)) return;
  CheckpointImage img;
  if (!CheckpointImage::unmarshal(blob, img)) {
    ++checkpoints_rejected_;
    ctr_ckpt_corrupt_.inc();
    return;
  }
  const bool is_delta = img.mode == CheckpointMode::kDelta;
  // Warm/semi replicas fold arriving state straight into the live
  // runtime; keep a copy of the frame's own image so a delta folds only
  // its changed cells, not the whole accumulated base.
  const bool fold = policy_->apply_on_receipt() && !active_;
  CheckpointImage fold_img;
  if (fold) fold_img = img;
  switch (accept_image(std::move(img), blob)) {
    case Accept::kApplied:
      applied_at_ = process_->sim().now();
      if (active_) accepted_while_active_ = true;
      if (fold && latest_) {
        if (!runtime_current_) {
          // First contact (or post-gap resync): adopt the whole
          // accumulated base, not just this frame's cells.
          const int anomalies = restore_checkpoint(*rt_, *latest_);
          runtime_current_ = true;
          resync_pending_ = false;
          publish_event(obs::EventKind::kCheckpointApplied, "folded full state on receipt",
                        latest_->seq, static_cast<std::uint64_t>(anomalies));
          if (policy_->followers_execute()) {
            decisions_applied_ = std::max(decisions_applied_, latest_->decision_seq);
            decision_seq_ = std::max(decision_seq_, decisions_applied_);
          }
          replay_pending_decisions();
        } else if (policy_->followers_execute() && fold_img.decision_seq > 0 &&
                   decisions_applied_ >= fold_img.decision_seq) {
          // Semi-active follower already executed past this image via
          // the decision log: keep the journal copy (cold-restart base)
          // but leave the live runtime alone.
        } else {
          const int anomalies = restore_checkpoint(*rt_, fold_img);
          publish_event(obs::EventKind::kCheckpointApplied, "folded on receipt",
                        fold_img.seq, static_cast<std::uint64_t>(anomalies));
          if (policy_->followers_execute()) {
            decisions_applied_ = std::max(decisions_applied_, fold_img.decision_seq);
            decision_seq_ = std::max(decision_seq_, decisions_applied_);
          }
          replay_pending_decisions();
        }
      }
      break;
    case Accept::kStale:
      // No explicit ack: the transport session already confirmed the
      // tagged frame, which is what the primary's watermark reads.
      // Stale re-deliveries (session reset, raced pull reply) drop
      // silently — nacking them would force a redundant full.
      break;
    case Accept::kGap:
      // A delta whose base we do not hold: ask the primary for a
      // self-contained image. (Full images never gap.)
      if (is_delta) {
        ep_->send(src_node,
                  encode_checkpoint_nack(options_.component, latest_ ? latest_->seq : 0));
      }
      break;
  }
}

void Ftim::handle_checkpoint_pull(const CheckpointPull& msg) {
  // Only the active primary owns the authoritative chain; everyone else
  // stays quiet and lets it answer.
  if (!active_ || options_.kind != FtimKind::kOpcClient) return;
  if (msg.component != options_.component || msg.from_node < 0) return;
  // Delta-suffix path: the requester's recovered state is a valid base
  // in our current incarnation, and our journal still holds an unbroken
  // delta chain from there to the newest checkpoint. (Compaction on the
  // last full checkpoint retires older-incarnation records, so chain
  // ids cannot alias across incarnations.)
  if (journal_ && msg.have_seq > 0 && msg.have_incarnation == incarnation_) {
    struct SuffixDelta {
      std::uint64_t seq;
      Buffer blob;
    };
    std::vector<SuffixDelta> suffix;
    std::size_t suffix_bytes = 0;
    std::uint64_t cur = msg.have_seq;
    std::vector<store::Record> records = journal_->recover();
    for (store::Record& r : records) {
      if (r.type == store::RecordType::kDelta && r.base == cur) {
        cur = r.id;
        suffix_bytes += r.payload.size();
        suffix.push_back(SuffixDelta{r.id, std::move(r.payload)});
      }
    }
    if (cur == ckpt_seq_) {
      // Ship the chain as individual session frames: the session keeps
      // them in order on the wire (the old single-frame batch existed
      // only because separate datagrams reordered under latency
      // jitter), and any live delta taken after this point queues
      // strictly behind them on the same session.
      for (SuffixDelta& d : suffix) {
        ep_->send(msg.from_node, encode_checkpoint(options_.component, d.blob),
                  /*tag=*/d.seq, nullptr, transport::kClassCheckpoint);
      }
      if (!suffix.empty()) {
        delta_bytes_sent_ += suffix_bytes;
        ctr_delta_bytes_.inc(static_cast<std::int64_t>(suffix_bytes));
      }
      ++pulls_served_delta_;
      OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(),
                    ": resynced node ", msg.from_node, " with ", suffix.size(),
                    " deltas (", suffix_bytes, " bytes)");
      publish_event(obs::EventKind::kResyncDelta, "delta suffix resync", suffix.size(),
                    suffix_bytes);
      return;
    }
  }
  // Chain broken (or nothing in common): broadcast a fresh full image.
  ++pulls_served_full_;
  publish_event(obs::EventKind::kResyncFull, "full resync", ckpt_seq_ + 1, 0);
  force_full_ = true;
  take_checkpoint();
}

HRESULT Ftim::propose(const Buffer& decision) {
  if (!active_) return OFTT_E_NOT_PRIMARY;
  if (!policy_->followers_execute()) {
    // Passive policies replicate through checkpoints: apply locally and
    // let the next capture carry the effect. S_FALSE tells the caller
    // nothing was shipped.
    if (on_decision_) on_decision_(decision);
    return S_FALSE;
  }
  const std::uint64_t seq = ++decision_seq_;
  if (journal_) journal_->append(store::RecordType::kDecision, seq, 0, decision);
  if (on_decision_) on_decision_(decision);
  decisions_applied_ = seq;
  ++decisions_proposed_;
  applied_at_ = process_->sim().now();
  DecisionMsg msg;
  msg.component = options_.component;
  msg.seq = seq;
  msg.decided_at = applied_at_;
  msg.payload = decision;
  const Buffer frame = msg.encode();
  for (int peer : ckpt_peers_) {
    if (ep_->send(peer, frame, /*tag=*/seq, nullptr, transport::kClassDecision)) {
      decision_bytes_sent_ += frame.size();
    }
  }
  return S_OK;
}

void Ftim::handle_decision(int src_node, const DecisionMsg& msg) {
  if (active_ || msg.component != options_.component) return;
  if (msg.seq <= decisions_applied_) return;  // session replay / dup
  if (msg.seq == decisions_applied_ + 1 && runtime_current_) {
    if (journal_) journal_->append(store::RecordType::kDecision, msg.seq, 0, msg.payload);
    if (on_decision_) on_decision_(msg.payload);
    decisions_applied_ = msg.seq;
    decision_seq_ = std::max(decision_seq_, msg.seq);
    applied_at_ = process_->sim().now();
    resync_pending_ = false;
    replay_pending_decisions();
    return;
  }
  // Out of order, or no base image yet: stash it and ask the leader for
  // a self-contained image. One outstanding nack at a time — every nack
  // costs the leader a full checkpoint.
  ++decision_gaps_;
  pending_decisions_[msg.seq] = msg.payload;
  if (!resync_pending_) {
    resync_pending_ = true;
    ep_->send(src_node,
              encode_checkpoint_nack(options_.component, latest_ ? latest_->seq : 0));
  }
}

void Ftim::handle_policy_switch(const PolicySwitchMsg& msg) {
  if (msg.component != options_.component) return;
  if (msg.to == policy_->mode()) return;
  const ReplicationMode from = policy_->mode();
  policy_ = make_policy(msg.to);
  persist_policy(msg.to);
  ++policy_switches_;
  OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(),
                ": replication policy ", replication_mode_name(from), " -> ",
                replication_mode_name(msg.to), " (", msg.reason, ")");
  publish_event(obs::EventKind::kPolicySwitch, msg.reason,
                static_cast<std::uint64_t>(msg.to), static_cast<std::uint64_t>(from));
  if (active_) {
    // Announcements normally flow active -> passive; if one reaches an
    // active side (crossed switchover), just re-cadence the timer.
    if (options_.kind == FtimKind::kOpcClient) {
      ckpt_timer_.start(policy_->capture_period(rcfg_), [this] { take_checkpoint(); });
    }
    return;
  }
  if (policy_->apply_on_receipt() && latest_ && !runtime_current_) {
    // Entering a fold-on-receipt policy: bring the runtime up to the
    // held image now so promotion can skip the bulk restore.
    const int anomalies = restore_checkpoint(*rt_, *latest_);
    runtime_current_ = true;
    applied_at_ = process_->sim().now();
    publish_event(obs::EventKind::kCheckpointApplied, "folded held state on policy switch",
                  latest_->seq, static_cast<std::uint64_t>(anomalies));
    if (policy_->followers_execute()) {
      decisions_applied_ = std::max(decisions_applied_, latest_->decision_seq);
      decision_seq_ = std::max(decision_seq_, decisions_applied_);
    }
    replay_pending_decisions();
  }
}

HRESULT Ftim::switch_policy(ReplicationMode to, const std::string& reason) {
  if (to == policy_->mode()) return S_FALSE;
  if (to != ReplicationMode::kColdPassive && ckpt_peers_.empty()) return OFTT_E_NO_PEER;
  if (to == ReplicationMode::kSemiActive && options_.kind != FtimKind::kOpcClient) {
    return E_INVALIDARG;
  }
  if (to == ReplicationMode::kWarmPassive && !options_.track_dirty_ranges) {
    return E_INVALIDARG;
  }
  const ReplicationMode from = policy_->mode();
  policy_ = make_policy(to);
  persist_policy(to);
  ++policy_switches_;
  OFTT_LOG_INFO("oftt/ftim", process_->node().name(), "/", process_->name(),
                ": replication policy ", replication_mode_name(from), " -> ",
                replication_mode_name(to), " (", reason, ")");
  publish_event(obs::EventKind::kPolicySwitch, reason, static_cast<std::uint64_t>(to),
                static_cast<std::uint64_t>(from));
  if (active_) {
    // Announce, then pin the stream: the next frame every replica sees
    // after the announcement is a self-contained image, so both sides
    // change discipline at the same point in the checkpoint stream.
    PolicySwitchMsg msg;
    msg.component = options_.component;
    msg.to = to;
    msg.incarnation = incarnation_;
    msg.at_seq = ckpt_seq_;
    msg.decision_seq = decision_seq_;
    msg.reason = reason;
    const Buffer frame = msg.encode();
    for (int peer : ckpt_peers_) ep_->send(peer, frame);
    if (options_.kind == FtimKind::kOpcClient) {
      ckpt_timer_.start(policy_->capture_period(rcfg_), [this] { take_checkpoint(); });
      force_full_ = true;
      take_checkpoint();
    }
  } else if (policy_->apply_on_receipt() && latest_ && !runtime_current_) {
    const int anomalies = restore_checkpoint(*rt_, *latest_);
    runtime_current_ = true;
    applied_at_ = process_->sim().now();
    publish_event(obs::EventKind::kCheckpointApplied, "folded held state on policy switch",
                  latest_->seq, static_cast<std::uint64_t>(anomalies));
    if (policy_->followers_execute()) {
      decisions_applied_ = std::max(decisions_applied_, latest_->decision_seq);
      decision_seq_ = std::max(decision_seq_, decisions_applied_);
    }
    replay_pending_decisions();
  }
  return S_OK;
}

void Ftim::persist_policy(ReplicationMode mode) {
  if (!policy_journal_) return;
  Buffer payload{static_cast<std::uint8_t>(mode)};
  policy_journal_->append(store::RecordType::kPolicy, ++policy_record_seq_, 0, payload);
}

void Ftim::replay_pending_decisions() {
  while (!pending_decisions_.empty()) {
    auto it = pending_decisions_.begin();
    if (it->first <= decisions_applied_) {
      pending_decisions_.erase(it);
      continue;
    }
    if (it->first != decisions_applied_ + 1) break;  // gap: wait for resync
    if (on_decision_) on_decision_(it->second);
    decisions_applied_ = it->first;
    decision_seq_ = std::max(decision_seq_, decisions_applied_);
    applied_at_ = process_->sim().now();
    pending_decisions_.erase(it);
  }
}

void Ftim::governor_tick() {
  if (!governor_ || !ep_) return;
  const std::uint64_t ckpt_bytes = ep_->class_bytes_sent(transport::kClassCheckpoint);
  const std::uint64_t dec_bytes = ep_->class_bytes_sent(transport::kClassDecision);
  const std::uint64_t data_sent = ep_->data_sent();
  const std::uint64_t retx = ep_->retransmits();
  const double window_s =
      static_cast<double>(options_.governor.period) / 1e9;
  const double ckpt_rate =
      static_cast<double>(ckpt_bytes - gov_last_ckpt_bytes_) / window_s;
  const double dec_rate =
      static_cast<double>(dec_bytes - gov_last_decision_bytes_) / window_s;
  const std::uint64_t d_data = data_sent - gov_last_data_sent_;
  const std::uint64_t d_retx = retx - gov_last_retransmits_;
  gov_last_ckpt_bytes_ = ckpt_bytes;
  gov_last_decision_bytes_ = dec_bytes;
  gov_last_data_sent_ = data_sent;
  gov_last_retransmits_ = retx;
  gauge_ckpt_rate_.set(static_cast<std::int64_t>(ckpt_rate));
  gauge_decision_rate_.set(static_cast<std::int64_t>(dec_rate));
  const double loss = (d_data + d_retx) == 0
                          ? 0.0
                          : static_cast<double>(d_retx) / static_cast<double>(d_data + d_retx);
  if (!active_) return;  // only the primary steers the pair's policy
  const ReplicationMode want = governor_->evaluate(policy_->mode(), ckpt_rate, loss);
  if (want != policy_->mode()) switch_policy(want, "governor");
}

void Ftim::check_engine() {
  auto engine = process_->node().find_process(kEngineProcess);
  if (engine && engine->alive()) return;
  OFTT_LOG_WARN("oftt/ftim", process_->node().name(), "/", process_->name(),
                ": engine is down — restarting it");
  ctr_engine_restarts_.inc();
  publish_event(obs::EventKind::kEngineRestart, "engine dead, restarting", 0, 0);
  process_->node().restart_process(kEngineProcess);
  // The fresh engine knows nothing; re-register right away.
  register_with_engine();
}

}  // namespace oftt::core
