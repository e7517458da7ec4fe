#include "core/monitor.h"

#include <sstream>

#include "common/strings.h"
#include "sim/fault_plan.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::core {

SystemMonitor::SystemMonitor(sim::Process& process) : process_(&process) {
  process_->bind(kMonitorPort, [this](const sim::Datagram& d) { on_report(d); });
  // Role transitions come from the typed bus, not from diffing lossy
  // StatusReports: subscribe to kRoleChange only, guarded by this
  // process's main-strand life so delivery stops the instant the
  // process dies (even before the attachment destructor runs).
  auto life = process.main_strand().life();
  sub_ = process_->sim().telemetry().bus().subscribe(
      obs::mask_of(obs::EventKind::kRoleChange),
      [this](const obs::Event& e) { on_role_event(e); },
      [life] { return life->runnable(); });
}

SystemMonitor::~SystemMonitor() {
  process_->sim().telemetry().bus().unsubscribe(sub_);
}

void SystemMonitor::on_role_event(const obs::Event& e) {
  Role to = static_cast<Role>(e.a);
  auto key = std::make_pair(e.unit, e.node);
  auto it = last_roles_.find(key);
  Role from = it == last_roles_.end() ? Role::kUnknown : it->second;
  last_roles_[key] = to;
  transitions_.push_back(Transition{e.at, e.unit, e.node, from, to});
}

void SystemMonitor::on_report(const sim::Datagram& d) {
  StatusReport sr;
  if (!StatusReport::decode(d.payload, sr)) return;
  ++reports_;
  NodeView& v = views_[std::make_pair(sr.unit, sr.node)];
  v.report = std::move(sr);
  v.last_seen = process_->sim().now();
}

const SystemMonitor::NodeView* SystemMonitor::view(const std::string& unit, int node) const {
  auto it = views_.find({unit, node});
  return it == views_.end() ? nullptr : &it->second;
}

int SystemMonitor::primary_of(const std::string& unit) const {
  int best = -1;
  std::uint32_t best_inc = 0;
  for (const auto& [key, v] : views_) {
    if (key.first != unit || v.report.role != Role::kPrimary) continue;
    if (best < 0 || v.report.incarnation > best_inc) {
      best = key.second;
      best_inc = v.report.incarnation;
    }
  }
  return best;
}

const cluster::MembershipView* SystemMonitor::membership_of(const std::string& unit) const {
  const cluster::MembershipView* best = nullptr;
  for (const auto& [key, v] : views_) {
    if (key.first != unit || v.report.view.members.empty()) continue;
    if (best == nullptr || best->superseded_by(v.report.view)) best = &v.report.view;
  }
  return best;
}

std::map<int, SystemMonitor::SwimTally> SystemMonitor::swim_board_of(
    const std::string& unit) const {
  std::map<int, SwimTally> board;
  for (const auto& [key, v] : views_) {
    if (key.first != unit) continue;
    for (const auto& u : v.report.swim_members) {
      SwimTally& t = board[u.node];
      switch (u.state) {
        case swim::MemberState::kAlive: ++t.alive; break;
        case swim::MemberState::kSuspect: ++t.suspect; break;
        case swim::MemberState::kDead: ++t.dead; break;
      }
      t.incarnation = std::max(t.incarnation, u.incarnation);
    }
  }
  return board;
}

bool SystemMonitor::node_silent(const std::string& unit, int node,
                                sim::SimTime staleness) const {
  const NodeView* v = view(unit, node);
  if (v == nullptr) return true;
  return process_->sim().now() - v->last_seen > staleness;
}

std::string SystemMonitor::render() const {
  std::ostringstream os;
  os << "=== OFTT System Monitor @ " << sim::to_seconds(process_->sim().now()) << "s ===\n";
  // Cluster units first: one membership line per unit (rank order, the
  // succession plan an operator needs during an incident).
  {
    std::string last_unit;
    for (const auto& [key, v] : views_) {
      if (key.first == last_unit) continue;
      last_unit = key.first;
      if (const cluster::MembershipView* mv = membership_of(key.first)) {
        os << "unit '" << key.first << "' membership " << mv->summary() << " (quorum "
           << mv->quorum() << "/" << mv->size() << ")\n";
        for (const auto& m : mv->members) {
          os << "    rank " << m.rank << ": node " << m.node << " "
             << cluster::member_role_name(m.role) << "\n";
        }
      }
      // Swim board: what the failure detectors collectively believe —
      // per member, how many reporters call it alive/suspect/dead and
      // the highest incarnation in circulation. A member every reporter
      // calls dead is confirmed; a split (some suspect, some alive) is a
      // suspicion still in its refutation window.
      if (auto board = swim_board_of(key.first); !board.empty()) {
        os << "unit '" << key.first << "' swim board:\n";
        for (const auto& [node, t] : board) {
          const char* verdict = t.dead > t.alive + t.suspect ? "DEAD"
                                : t.suspect > t.alive        ? "SUSPECT"
                                                             : "alive";
          os << "    node " << node << ": " << verdict << "@" << t.incarnation
             << " (alive " << t.alive << ", suspect " << t.suspect << ", dead "
             << t.dead << ")\n";
        }
      }
    }
  }
  for (const auto& [key, v] : views_) {
    os << "unit '" << key.first << "' node " << key.second << ": " << role_name(v.report.role)
       << " inc=" << v.report.incarnation << (v.report.peer_visible ? "" : " [PEER LOST]")
       << (process_->sim().now() - v.last_seen > sim::seconds(3) ? " [SILENT]" : "") << "\n";
    for (const auto& c : v.report.components) {
      os << "    " << c.name << ": " << component_state_name(c.state)
         << " restarts=" << c.restarts << " heartbeats=" << c.heartbeats << " "
         << replication_mode_name(c.policy) << (c.ready ? "" : " [STALE REPLICA]") << "\n";
    }
  }
  return os.str();
}

std::string SystemMonitor::opc_board() const {
  const auto& metrics = process_->sim().telemetry().metrics();
  std::ostringstream os;
  // Groups: oftt.opc.group.<instance>.{items,notified,suppressed}. The
  // three live in separate maps, so key off the ".items" gauge and look
  // the counters up by rebuilt name.
  constexpr std::string_view kGroupPrefix = "oftt.opc.group.";
  constexpr std::string_view kItemsSuffix = ".items";
  std::size_t groups = 0;
  for (const auto& [name, cell] : metrics.gauges()) {
    if (name.compare(0, kGroupPrefix.size(), kGroupPrefix) != 0) continue;
    if (name.size() < kItemsSuffix.size() ||
        name.compare(name.size() - kItemsSuffix.size(), kItemsSuffix.size(),
                     kItemsSuffix) != 0) {
      continue;
    }
    std::string base = name.substr(0, name.size() - kItemsSuffix.size());
    std::uint64_t notified = 0, suppressed = 0;
    const auto& counters = metrics.counters();
    if (auto it = counters.find(base + ".notified"); it != counters.end()) {
      notified = it->second->value;
    }
    if (auto it = counters.find(base + ".suppressed"); it != counters.end()) {
      suppressed = it->second->value;
    }
    ++groups;
    os << "  group " << base.substr(kGroupPrefix.size()) << ": items=" << cell->value
       << " notified=" << notified << " deadband_suppressed=" << suppressed << "\n";
  }
  // Plane totals and per-client pending-batch depth.
  std::ostringstream plane;
  for (const auto& [name, cell] : metrics.gauges()) {
    if (name == "oftt.opc.notifications_per_s" || name == "oftt.opc.coalesced_bytes_per_s") {
      plane << "  " << name.substr(9) << " = " << cell->value << "\n";
    } else if (name.compare(0, 25, "oftt.opc.pending_batches.") == 0) {
      plane << "  pending batches -> " << name.substr(25) << ": " << cell->value << "\n";
    }
  }
  if (auto it = metrics.counters().find("oftt.opc.batch_drops");
      it != metrics.counters().end() && it->second->value > 0) {
    plane << "  batch_drops = " << it->second->value << " [OVERLOAD]\n";
  }
  if (groups == 0 && plane.str().empty()) return {};
  return cat("=== OPC data plane ===\n", os.str(), plane.str());
}

std::string SystemMonitor::pdes_board() const {
  const auto& metrics = process_->sim().telemetry().metrics();
  const auto& counters = metrics.counters();
  auto counter_or = [&](const char* name) -> std::uint64_t {
    auto it = counters.find(name);
    return it != counters.end() ? static_cast<std::uint64_t>(it->second->value) : 0;
  };
  const std::uint64_t windows = counter_or("oftt.pdes.windows");
  if (windows == 0) return {};  // sequential run: nothing published.

  std::ostringstream os;
  os << "  windows=" << windows << " events=" << counter_or("oftt.pdes.events") << "\n";
  // Per-worker lanes, in worker order: oftt.pdes.w<N>.events gauges.
  const auto& gauges = metrics.gauges();
  for (int w = 0;; ++w) {
    auto it = gauges.find(cat("oftt.pdes.w", w, ".events"));
    if (it == gauges.end()) break;
    os << "  worker " << w << ": events=" << it->second->value << "\n";
  }
  if (auto it = gauges.find("oftt.pdes.stall_ns"); it != gauges.end()) {
    os << "  horizon_stall_ms=" << static_cast<double>(it->second->value) / 1e6 << "\n";
  }
  os << "  cross_shard_events=" << counter_or("oftt.pdes.cross_events") << "\n";
  return cat("=== Parallel engine (PDES) ===\n", os.str());
}

std::string SystemMonitor::render_fault_plan(const sim::FaultPlan& plan) {
  std::ostringstream os;
  os << "=== Injected fault schedule (" << plan.fired_count() << "/" << plan.size()
     << " fired) ===\n";
  for (const auto& inj : plan.journal()) {
    os << "  [fired   t=" << sim::to_seconds(inj.at) << "s] " << inj.what << "\n";
  }
  for (const auto& op : plan.pending()) {
    os << "  [pending t=" << sim::to_seconds(op.at) << "s] " << op.what << "\n";
  }
  return os.str();
}

}  // namespace oftt::core
