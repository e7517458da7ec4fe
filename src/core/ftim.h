// FTIM — the Fault Tolerance Interface Module (§2.2.2).
//
// "The application and the FTIM run as two separate threads within the
// same address space": here the FTIM owns its own Strand, so an
// application-thread hang leaves heartbeats flowing (only a watchdog
// catches it), while a process crash kills both.
//
// Responsibilities: register with / heartbeat to the local engine,
// take checkpoints (OPC-client FTIMs only) and ship them to the peer
// FTIM, receive control (SetActive) from the engine, restore state on
// activation, and restart a dead engine — the engine "runs as a
// separate process started by the application", so the application side
// is who brings it back (failure class d).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/hresult.h"
#include "core/checkpoint.h"
#include "core/config.h"
#include "core/replication.h"
#include "core/wire.h"
#include "nt/runtime.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "sim/timer.h"
#include "store/journal.h"
#include "transport/session.h"

namespace oftt::core {

struct FtimOptions {
  std::string component;  // defaults to the process name
  FtimKind kind = FtimKind::kOpcClient;
  CheckpointMode checkpoint_mode = CheckpointMode::kFull;
  sim::SimTime checkpoint_period = sim::milliseconds(500);
  sim::SimTime heartbeat_period = sim::milliseconds(100);
  int peer_node = -1;
  /// Cluster mode: checkpoint fan-out targets — every other replica of
  /// the execution unit. When empty, falls back to {peer_node} (pair
  /// mode). Filled by OFTTInitialize from the engine's cluster_nodes.
  std::vector<int> peer_nodes;
  std::vector<int> networks = {0};
  /// Recovery-rule overrides (-1: engine default).
  int max_local_restarts = -1;
  int switchover_on_permanent = -1;
  /// Hook CreateThread in the IAT so dynamically created threads are
  /// checkpointable (§3.1). Turning this off reproduces the paper's
  /// "dynamic threads invisible to documented APIs" problem.
  bool install_iat_hook = true;
  /// Restart a dead engine (checked every engine_check_period).
  bool restart_engine_if_dead = true;
  sim::SimTime engine_check_period = sim::milliseconds(500);
  /// Journal every checkpoint taken or received to the node-local
  /// durable store, so a cold restart recovers from its own disk and
  /// only pulls the missing suffix from the primary.
  bool journal_checkpoints = true;
  /// kFull mode only: every Nth checkpoint is a self-contained image,
  /// the ones between ship as deltas of the dirty regions. 1 disables
  /// deltas (every checkpoint full). Selective mode always ships its
  /// (already small) designated cells.
  std::uint32_t full_checkpoint_interval = 8;
  std::size_t journal_segment_bytes = 64 * 1024;
  /// Replication policy for this component. kColdPassive reproduces the
  /// paper's scheme byte-identically; FTIMs left at the default inherit
  /// the engine's configured mode through OFTTInitialize.
  ReplicationMode replication = ReplicationMode::kColdPassive;
  /// Warm-passive capture cadence. 0 derives checkpoint_period / 4
  /// (min 1 ms). Setting it with a non-warm policy is rejected.
  sim::SimTime delta_stream_period = 0;
  /// Region dirty-range tracking feeds delta capture; turning it off
  /// with a delta interval > 1 (or warm-passive) is rejected.
  bool track_dirty_ranges = true;
  /// Promotion-readiness staleness bound override; 0 = policy default
  /// (8 capture periods).
  sim::SimTime promotion_staleness_bound = 0;
  /// Models the cost of the bulk restore at activation: the activation
  /// callback (and the first checkpoint of the new reign) is delayed by
  /// image_bytes / rate. 0 = instantaneous (the seed behavior) — set it
  /// in benches to make the cold-vs-warm switchover difference visible.
  std::uint64_t restore_rate_bytes_per_s = 0;
  /// Adaptive policy switching (disabled by default).
  GovernorConfig governor;
};

class Ftim {
 public:
  Ftim(sim::Process& process, FtimOptions options);

  /// The FTIM previously created by OFTTInitialize on this process.
  static Ftim* find(sim::Process& process) { return process.find_attachment<Ftim>(); }

  Role role() const { return role_; }
  bool active() const { return active_; }
  std::uint32_t incarnation() const { return incarnation_; }
  const FtimOptions& options() const { return options_; }

  /// Application hooks: activation delivers whether state was restored
  /// from a received checkpoint.
  void on_activate(std::function<void(bool restored)> fn) { on_activate_ = std::move(fn); }
  void on_deactivate(std::function<void()> fn) { on_deactivate_ = std::move(fn); }
  /// Semi-active: how a follower (and the leader itself) executes one
  /// ordered decision from the leader's decision log.
  void on_apply_decision(std::function<void(const Buffer&)> fn) {
    on_decision_ = std::move(fn);
  }

  // --- the OFTT API backing (api.h wraps these) ---
  void sel_save(const std::string& region, std::uint32_t offset, std::uint32_t size);
  template <typename T>
  void sel_save(const nt::Cell<T>& cell) {
    sel_save(cell.region()->name(), static_cast<std::uint32_t>(cell.offset()),
             static_cast<std::uint32_t>(cell.size()));
  }
  HRESULT save_now();
  HRESULT distress(const std::string& reason);
  HRESULT watchdog_create(const std::string& name, sim::SimTime timeout);
  HRESULT watchdog_reset(const std::string& name, sim::SimTime timeout);
  HRESULT watchdog_delete(const std::string& name);
  /// Dynamic recovery-rule update for this component (engine-side).
  HRESULT set_recovery_rule(int max_local_restarts, int switchover_on_permanent);
  /// Semi-active leader: order one application decision — journal it,
  /// apply it locally through the registered handler, ship it to every
  /// follower on the decision traffic class.
  HRESULT propose(const Buffer& decision);
  /// Live, state-preserving replication-policy switch. On the active
  /// side the switch is journaled, announced to every replica
  /// (PolicySwitchMsg) and followed by an immediate self-contained
  /// checkpoint so both sides change discipline at the same point in
  /// the stream.
  HRESULT switch_policy(ReplicationMode to, const std::string& reason);

  // --- introspection (tests / benches / monitor) ---
  std::uint64_t checkpoints_sent() const { return checkpoints_sent_; }
  /// Highest checkpoint seq any peer has acknowledged (primary side).
  /// Backed by the transport session's per-peer ack watermark — the
  /// hand-rolled kCheckpointAck frames this used to require are gone.
  std::uint64_t peer_acked_seq() const;
  /// Checkpoints taken but not (yet) confirmed by any peer.
  std::uint64_t replication_lag() const {
    const std::uint64_t acked = peer_acked_seq();
    return ckpt_seq_ > acked ? ckpt_seq_ - acked : 0;
  }
  /// Lowest seq acknowledged across ALL fan-out peers (0 until every
  /// peer has acked something) — the cluster replication watermark.
  std::uint64_t min_acked_seq() const;
  /// Highest seq a specific peer node has acknowledged (0 if none).
  std::uint64_t acked_by(int node) const;
  /// Effective checkpoint destinations (peer_nodes, or {peer_node}).
  const std::vector<int>& checkpoint_peers() const { return ckpt_peers_; }
  std::uint64_t checkpoints_received() const { return checkpoints_received_; }
  std::uint64_t checkpoints_rejected() const { return checkpoints_rejected_; }
  std::size_t last_checkpoint_bytes() const { return last_checkpoint_bytes_; }
  // Delta-checkpoint accounting (primary side).
  std::uint64_t full_checkpoints_sent() const { return full_checkpoints_sent_; }
  std::uint64_t delta_checkpoints_sent() const { return delta_checkpoints_sent_; }
  std::uint64_t full_bytes_sent() const { return full_bytes_sent_; }
  std::uint64_t delta_bytes_sent() const { return delta_bytes_sent_; }
  std::uint64_t need_full_nacks() const { return need_full_nacks_; }
  // Backup / restart side.
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  std::uint64_t full_checkpoints_received() const { return full_checkpoints_received_; }
  /// True when the constructor rebuilt `latest_checkpoint()` from the
  /// node-local journal (the cold-restart recovery path).
  bool recovered_from_journal() const { return recovered_from_journal_; }
  std::uint64_t journal_replayed_records() const { return journal_replayed_records_; }
  // Resync-pull servicing (primary side).
  std::uint64_t pulls_served_delta() const { return pulls_served_delta_; }
  std::uint64_t pulls_served_full() const { return pulls_served_full_; }
  const store::Journal* journal() const { return journal_.get(); }
  // Replication-policy introspection.
  ReplicationMode replication_mode() const { return policy_->mode(); }
  const ReplicationPolicy& policy() const { return *policy_; }
  const ReplicationConfig& replication_config() const { return rcfg_; }
  std::uint64_t policy_switches() const { return policy_switches_; }
  std::uint64_t decisions_proposed() const { return decisions_proposed_; }
  std::uint64_t decisions_applied() const { return decisions_applied_; }
  std::uint64_t decision_gaps() const { return decision_gaps_; }
  std::uint64_t decision_bytes_sent() const { return decision_bytes_sent_; }
  /// When this replica last folded state (checkpoint or decision) into
  /// its runtime / held image. 0 = never.
  sim::SimTime last_applied_at() const { return applied_at_; }
  /// The live runtime currently holds the replicated state (warm/semi
  /// replicas after their first fold; any side after activation).
  bool runtime_current() const { return runtime_current_; }
  /// Would this replica be promoted without a fresh pull, judged
  /// against `evidence` (last moment the primary was provably alive)?
  bool promotion_ready_at(sim::SimTime evidence) const {
    return active_ || promotion_ready(*policy_, rcfg_, applied_at_, evidence);
  }
  bool has_checkpoint() const { return latest_.has_value(); }
  const CheckpointImage* latest_checkpoint() const {
    return latest_ ? &*latest_ : nullptr;
  }
  /// Tasks the checkpointer can see (static + IAT-hooked dynamic).
  std::vector<nt::Task*> discoverable_tasks() const;

 private:
  /// Outcome of offering an incoming image to the local state.
  ///   kApplied — adopted (full) or merged (delta).
  ///   kStale   — we already hold this or newer; drop silently. With
  ///              ordered session delivery this happens only when a
  ///              session reset re-delivers, or a pull reply races a
  ///              journal-recovered node that caught up another way.
  ///   kGap     — a delta whose base we do not hold: only this warrants
  ///              a need-full nack.
  enum class Accept { kApplied, kStale, kGap };

  void on_port(const sim::Datagram& d);
  /// Dispatch one application frame (session-delivered or raw local).
  void on_frame(int src_node, int network_id, const Buffer& payload);
  void register_with_engine();
  void heartbeat_tick();
  void take_checkpoint();
  void handle_set_active(const SetActive& msg);
  /// The restore (if any) is done; start the reign: checkpoint timer,
  /// activation event, application callback.
  void finish_activation(bool restored, int anomalies);
  void handle_checkpoint(int src_node, const Buffer& payload);
  void handle_checkpoint_pull(const CheckpointPull& msg);
  void handle_decision(int src_node, const DecisionMsg& msg);
  void handle_policy_switch(const PolicySwitchMsg& msg);
  Accept accept_image(CheckpointImage&& img, const Buffer& blob);
  void check_engine();
  void send_engine(const Buffer& payload);
  void publish_event(obs::EventKind kind, std::string detail, std::uint64_t a,
                     std::uint64_t b);
  /// Replay the local journal into latest_ (cold-restart recovery),
  /// then ask the peers for whatever suffix this node missed.
  void recover_from_journal();
  void journal_checkpoint(const CheckpointImage& img, const Buffer& blob);
  /// Record the active policy in the (tiny, snapshot-free) policy
  /// journal so a cold restart resumes under the switched policy.
  void persist_policy(ReplicationMode mode);
  /// Apply journal-recovered decisions that chain on decisions_applied_
  /// (runs after the runtime has been restored to the base image).
  void replay_pending_decisions();
  void governor_tick();

  sim::Process* process_;
  FtimOptions options_;
  sim::Strand* strand_;  // the FTIM thread
  nt::NtRuntime* rt_;
  std::string port_;
  Role role_ = Role::kUnknown;
  bool active_ = false;
  std::uint32_t incarnation_ = 0;
  std::uint64_t hb_seq_ = 0;
  std::uint64_t ckpt_seq_ = 0;
  std::uint64_t hb_count_ = 0;
  std::vector<CellSpec> cells_;
  std::set<std::uint32_t> hooked_tids_;
  nt::NtRuntime::CreateThreadFn original_create_thread_;
  std::optional<CheckpointImage> latest_;
  std::unique_ptr<store::Journal> journal_;
  /// Reliable ordered sessions to the peer FTIMs: checkpoints, deltas,
  /// pulls, pull replies and nacks all ride it. Each checkpoint frame is
  /// tagged with its seq, so the session's per-peer acked-tag watermark
  /// IS the replication watermark.
  std::unique_ptr<transport::Endpoint> ep_;
  std::vector<int> ckpt_peers_;               // resolved fan-out targets
  std::uint64_t checkpoints_sent_ = 0;
  std::uint64_t checkpoints_received_ = 0;
  std::uint64_t checkpoints_rejected_ = 0;
  std::size_t last_checkpoint_bytes_ = 0;
  /// The next checkpoint must be self-contained: set at start, on
  /// activation (a restore dirties everything anyway) and when a peer
  /// nacks a delta it could not apply.
  bool force_full_ = true;
  std::uint32_t ckpts_since_full_ = 0;
  std::uint64_t full_checkpoints_sent_ = 0;
  std::uint64_t delta_checkpoints_sent_ = 0;
  std::uint64_t full_bytes_sent_ = 0;
  std::uint64_t delta_bytes_sent_ = 0;
  std::uint64_t need_full_nacks_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t full_checkpoints_received_ = 0;
  bool recovered_from_journal_ = false;
  std::uint64_t journal_replayed_records_ = 0;
  std::uint64_t pulls_served_delta_ = 0;
  std::uint64_t pulls_served_full_ = 0;
  // --- replication policy state ---
  ReplicationConfig rcfg_;
  std::unique_ptr<ReplicationPolicy> policy_;
  /// Tiny snapshot-free journal (own prefix, max 2 segments) holding the
  /// newest kPolicy record. Separate from the checkpoint journal so the
  /// checkpoint compaction cycle can never retire the policy record.
  std::unique_ptr<store::Journal> policy_journal_;
  std::uint64_t policy_record_seq_ = 0;
  std::uint64_t policy_switches_ = 0;
  std::optional<PolicyGovernor> governor_;
  /// Governor sampling baselines (previous window's cumulative values).
  std::uint64_t gov_last_ckpt_bytes_ = 0;
  std::uint64_t gov_last_decision_bytes_ = 0;
  std::uint64_t gov_last_data_sent_ = 0;
  std::uint64_t gov_last_retransmits_ = 0;
  // Semi-active decision log.
  std::uint64_t decision_seq_ = 0;        // leader: last ordered
  std::uint64_t decisions_proposed_ = 0;
  std::uint64_t decisions_applied_ = 0;   // last executed locally
  std::uint64_t decision_gaps_ = 0;
  std::uint64_t decision_bytes_sent_ = 0;
  /// Journal-recovered decisions newer than the recovered image's
  /// watermark, replayed once the runtime holds the base state.
  std::map<std::uint64_t, Buffer> pending_decisions_;
  /// A resync nack is already outstanding; don't nack every further
  /// out-of-order decision (each nack costs the leader a full image).
  bool resync_pending_ = false;
  std::function<void(const Buffer&)> on_decision_;
  /// The live runtime holds the replicated state (vs. only latest_
  /// serialized). False on a fresh boot; a bulk restore or the first
  /// fold-on-receipt makes it true.
  bool runtime_current_ = false;
  /// A peer image reached latest_ while this side was active (dual
  /// primary): it was not folded, so on demotion the runtime no longer
  /// matches latest_ and the next fold must adopt the whole base.
  bool accepted_while_active_ = false;
  sim::SimTime applied_at_ = 0;
  std::function<void(bool)> on_activate_;
  std::function<void()> on_deactivate_;
  // Pre-resolved metric handles for the periodic checkpoint path.
  obs::Counter ctr_ckpt_sent_;
  obs::Counter ctr_ckpt_received_;
  obs::Counter ctr_ckpt_corrupt_;
  obs::Counter ctr_engine_restarts_;
  obs::Counter ctr_full_bytes_;
  obs::Counter ctr_delta_bytes_;
  obs::Counter ctr_journal_recoveries_;
  obs::Histogram ckpt_bytes_;
  obs::Histogram replay_records_;
  obs::Gauge gauge_ckpt_rate_;
  obs::Gauge gauge_decision_rate_;
  obs::Gauge gauge_staleness_;
  sim::PeriodicTimer hb_timer_;
  sim::PeriodicTimer ckpt_timer_;
  sim::PeriodicTimer engine_check_timer_;
  sim::PeriodicTimer governor_timer_;
};

}  // namespace oftt::core
