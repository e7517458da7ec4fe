// opc_plant: one OPC server over a 10^6-tag TagStore. Every 100 ms scan
// the benchmark changes 1 % of the tags through TagStore::set; ten
// client nodes hold batched subscriptions to overlapping slices (every
// subscribed tag has exactly two subscribers); HMI writes arrive
// open-loop at a fixed simulated rate. Exercises the opc hub/group/
// notify plane and the transport's many-small-frames path over a
// working set (~24 MB of slots) larger than the caches.
#include <memory>

#include "bench.h"
#include "chaos/coverage.h"
#include "com/object.h"
#include "dcom/scm.h"
#include "opc/client.h"
#include "opc/device.h"
#include "opc/notify.h"
#include "opc/server.h"

namespace perfbench {

namespace {

namespace opc = oftt::opc;

const oftt::Clsid kPlantClsid = oftt::Guid::from_name("CLSID_PerfbenchOpcPlant");

struct Shape {
  int tags = 1'000'000;
  int clients = 10;
  int slice = 20'000;          // tags per client subscription
  int changes_per_scan = 10'000;
  int setpoints = 1'000;       // write targets, never subscribed
  sim::SimTime scan = sim::milliseconds(100);
  sim::SimTime write_period = sim::milliseconds(50);  // 20 writes per sim second
  sim::SimTime measured = sim::seconds(20);
};

Shape shape_for(bool short_mode) {
  Shape s;
  if (short_mode) {
    s.tags = 20'000;
    s.slice = 1'000;
    s.changes_per_scan = 200;
    s.setpoints = 50;
    s.measured = sim::seconds(2);
  }
  return s;
}

/// Tags covered by the subscriptions: client c takes `slice` tags
/// starting at c * slice / 2 (mod region), so each covered tag has
/// exactly two subscribers.
int region_of(const Shape& s) { return s.clients * s.slice / 2; }

std::uint64_t gcd(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::string tag_name(int i) { return std::string("t").append(std::to_string(i)); }

struct ClientState {
  std::vector<std::int32_t> last;  // last notified value per covered tag (-1 none)
  std::uint64_t initial = 0;       // initial-announce items received
  std::uint64_t received = 0;      // measured-phase notifications
  std::uint64_t bad = 0;           // duplicates or out-of-order
  std::uint64_t batches = 0;
};

}  // namespace

RepResult run_opc_plant(const RepOptions& o) {
  RepResult out;
  const Shape sh = shape_for(o.short_mode);
  const int region = region_of(sh);
  Tracer* tr = o.tracer;
  InputRng rng(o.seed ^ 0x0bc0ull);

  const std::int64_t setup0 = host_ns();
  sim::Simulation sim(o.seed);
  oftt::chaos::CoverageProbe probe(sim.telemetry());
  Runner run(sim, tr);
  if (tr != nullptr) tr->begin_run(o.run, common_probes(sim, run));
  const int root = tr != nullptr ? tr->open("rep", sim.now()) : -1;

  auto dev = std::make_shared<opc::Device>("plant");
  std::vector<opc::TagId> setpoint_ids;
  {
    Scope s(tr, "setup.tags", sim);
    for (int i = 0; i < sh.tags; ++i) {
      const opc::TagId id = dev->store().intern(tag_name(i));
      dev->store().set(id, opc::OpcValue::from_real(0.0), opc::Quality::kGood, 0);
    }
    for (int i = 0; i < sh.setpoints; ++i) {
      const opc::TagId id = dev->store().intern("sp" + std::to_string(i));
      dev->store().set(id, opc::OpcValue::from_int(0), opc::Quality::kGood, 0);
      setpoint_ids.push_back(id);
    }
  }

  sim::Node* server = nullptr;
  std::vector<std::shared_ptr<sim::Process>> hmis;
  std::vector<std::unique_ptr<opc::OpcConnection>> conns;
  std::vector<ClientState> clients(static_cast<std::size_t>(sh.clients));
  bool measuring = false;
  {
    Scope s(tr, "setup.deployment", sim);
    server = &sim.add_node("server");
    auto& net = sim.add_network("lan");
    net.attach(server->id());
    // Clean wire with latency jitter.
    net.set_latency(sim::microseconds(200), sim::microseconds(1500));
    server->set_boot_script([dev](sim::Node& node) {
      oftt::dcom::install_scm(node);
      node.start_process("opcserver", [dev](sim::Process& proc) {
        opc::install_opc_server(proc, kPlantClsid, dev, "perfbench");
      });
    });
    server->boot();
    for (int c = 0; c < sh.clients; ++c) {
      auto& cn = sim.add_node("client" + std::to_string(c));
      net.attach(cn.id());
      cn.boot();
      hmis.push_back(cn.start_process("hmi", nullptr));
    }
  }
  std::vector<std::int64_t> notify_lat;
  {
    Scope s(tr, "setup.subscriptions", sim);
    for (int c = 0; c < sh.clients; ++c) {
      ClientState& st = clients[static_cast<std::size_t>(c)];
      st.last.assign(static_cast<std::size_t>(region), -1);
      std::vector<std::string> items;
      items.reserve(static_cast<std::size_t>(sh.slice));
      for (int k = 0; k < sh.slice; ++k) {
        items.push_back(tag_name((c * sh.slice / 2 + k) % region));
      }
      opc::OpcConnection::Config cfg;
      cfg.batched_notifications = true;
      cfg.update_rate = sh.scan;
      auto conn = std::make_unique<opc::OpcConnection>(*hmis[static_cast<std::size_t>(c)],
                                                       server->id(), kPlantClsid, cfg);
      conn->subscribe(std::move(items), [&st, &sim, &measuring, &notify_lat](
                                            const std::vector<opc::ItemState>& items) {
        ++st.batches;
        const sim::SimTime now = sim.now();
        for (const opc::ItemState& it : items) {
          const auto tag = static_cast<std::size_t>(std::atoi(it.item_id.c_str() + 1));
          std::int32_t& last = st.last[tag];
          const auto v = static_cast<std::int32_t>(it.value.as_real());
          if (!measuring) {
            ++st.initial;
            last = std::max(last, v);
            continue;
          }
          if (v <= last) {
            ++st.bad;  // duplicate or out of order
            continue;
          }
          last = v;
          ++st.received;
          notify_lat.push_back(now - it.timestamp);
        }
      });
      conns.push_back(std::move(conn));
    }
    // Converged: every client holds its initial announce of every item.
    const sim::SimTime deadline = sim::seconds(60);
    auto announced = [&] {
      for (const ClientState& st : clients) {
        if (st.initial < static_cast<std::uint64_t>(sh.slice)) return false;
      }
      return true;
    };
    while (sim.now() < deadline && !announced()) run.run_for(sim::milliseconds(100), "converge");
    if (!announced()) out.violations.push_back("opc: subscriptions not announced after converge");
  }

  // Open-loop HMI writes, due at a fixed simulated rate from the armed
  // instant; each is timed from when it was due, and must be acked and
  // visible on the device.
  const sim::SimTime t0 = sim.now();
  const int writes = static_cast<int>(sh.measured / sh.write_period);
  std::uint64_t writes_acked = 0, writes_failed = 0;
  std::vector<std::int64_t> write_lat;
  {
    Scope s(tr, "setup.arm", sim);
    const std::uint64_t first = rng.below(static_cast<std::uint64_t>(sh.setpoints));
    for (int w = 0; w < writes; ++w) {
      const sim::SimTime due = t0 + sh.write_period / 2 + w * sh.write_period;
      const opc::TagId id = setpoint_ids[(first + static_cast<std::uint64_t>(w)) %
                                         setpoint_ids.size()];
      sim.schedule_at(due, [&, w, due, id] {
        Scope span(tr, "opc.write", sim);
        conns.front()->write(dev->store().name(id), opc::OpcValue::from_int(w + 1),
                             [&, w, due, id](oftt::HRESULT hr) {
                               if (oftt::SUCCEEDED(hr) &&
                                   dev->store().value(id).as_int(-1) == w + 1) {
                                 ++writes_acked;
                                 write_lat.push_back(sim.now() - due);
                               } else {
                                 ++writes_failed;
                               }
                             });
      });
    }
  }
  out.setup_s = static_cast<double>(host_ns() - setup0) / 1e9;
  if (o.setup_only) return out;

  // Measured phase: one scan of changes per 100 ms, then a drain.
  measuring = true;
  opc::NotifyPlane* server_plane = nullptr;
  if (auto proc = server->find_process("opcserver")) {
    server_plane = proc->find_attachment<opc::NotifyPlane>();
  }
  const std::int64_t notifications0 = counter(sim, "oftt.opc.notifications");
  const std::int64_t frames0 = counter(sim, "oftt.opc.frames");
  const std::int64_t bytes0 = counter(sim, "oftt.opc.coalesced_bytes");
  const std::uint64_t routed0 = dev->hub().routed();
  std::uint64_t batches0 = 0;
  for (const ClientState& st : clients) batches0 += st.batches;
  const std::int64_t host0 = host_ns();
  std::uint64_t sets = 0, expected = 0;
  const int scans = static_cast<int>(sh.measured / sh.scan);
  const auto tags = static_cast<std::uint64_t>(sh.tags);
  for (int scan = 1; scan <= scans; ++scan) {
    // This scan's changes: `changes_per_scan` distinct tags from a seeded
    // offset and a seeded stride coprime with the tag count, so the
    // accesses scatter over the whole store.
    std::uint64_t stride = 1 + 2 * rng.below(tags / 2);
    while (gcd(stride, tags) != 1) stride += 2;
    const std::uint64_t offset = rng.below(tags);
    {
      Scope span(tr, "opc.tick", sim);
      const sim::SimTime now = sim.now();
      for (int i = 0; i < sh.changes_per_scan; ++i) {
        const auto tag = static_cast<opc::TagId>((offset + static_cast<std::uint64_t>(i) * stride) % tags);
        dev->store().set(tag, opc::OpcValue::from_real(scan), opc::Quality::kGood, now);
        if (tag < static_cast<opc::TagId>(region)) expected += 2;
      }
      sets += static_cast<std::uint64_t>(sh.changes_per_scan);
    }
    run.run_for(sh.scan, "steady");
  }
  run.run_for(sim::milliseconds(500), "steady");  // drain the last scan and writes
  out.measured_host_s = static_cast<double>(host_ns() - host0) / 1e9;
  out.measured_sim_s = sim::to_seconds(sim.now() - t0);

  std::uint64_t received = 0, bad = 0, batches = 0;
  for (const ClientState& st : clients) {
    received += st.received;
    bad += st.bad;
    batches += st.batches;
  }
  if (received != expected || bad != 0) {
    out.violations.push_back("opc: notified " + std::to_string(received) + " (" +
                             std::to_string(bad) + " duplicate/out-of-order) != changed x "
                             "subscribers " + std::to_string(expected) +
                             " on a clean network");
  }
  const std::uint64_t unacked = static_cast<std::uint64_t>(writes) - writes_acked - writes_failed;
  out.attempted = expected + static_cast<std::uint64_t>(writes);
  out.failed = (expected > received ? expected - received : 0) + bad + writes_failed + unacked;
  out.sim_metrics["notify_p50_ms"] = {percentile_ms(notify_lat, 0.50), notify_lat.size()};
  out.sim_metrics["notify_p99_ms"] = {percentile_ms(notify_lat, 0.99), notify_lat.size()};
  out.sim_metrics["write_ack_p99_ms"] = {percentile_ms(write_lat, 0.99), write_lat.size()};

  probe.finish();
  out.digest = probe.history_hash();
  const NetTotals net = net_totals(sim);
  fold(out.digest, net.sent);
  fold(out.digest, net.delivered);
  fold(out.digest, received);
  fold(out.digest, writes_acked);
  fold(out.digest, dev->store().mutations());

  if (tr != nullptr) {
    tr->close(root, sim.now());
    common_layers(sim, *tr, o.run, out);
    auto& L = out.layers;
    const double notifications =
        static_cast<double>(counter(sim, "oftt.opc.notifications") - notifications0);
    const double frames = static_cast<double>(counter(sim, "oftt.opc.frames") - frames0);
    double rejected = 0, queue_drops = 0;
    for (opc::NotifyPlane* p : {server_plane}) {
      if (p == nullptr) continue;
      rejected += static_cast<double>(p->frames_rejected());
      queue_drops += static_cast<double>(p->endpoint().queue_drops());
    }
    for (const auto& h : hmis) {
      if (opc::NotifyPlane* p = h->find_attachment<opc::NotifyPlane>()) {
        rejected += static_cast<double>(p->frames_rejected());
        queue_drops += static_cast<double>(p->endpoint().queue_drops());
      }
    }
    L["transport.queue_drops"] = queue_drops;
    L["opc.tag_sets"] = static_cast<double>(sets);
    L["opc.hub_routed"] = static_cast<double>(dev->hub().routed() - routed0);
    L["opc.notifications"] = notifications;
    L["opc.frames"] = frames;
    L["opc.batches_per_frame"] =
        frames > 0 ? static_cast<double>(batches - batches0) / frames : 0;
    L["opc.coalesced_bytes"] =
        static_cast<double>(counter(sim, "oftt.opc.coalesced_bytes") - bytes0);
    L["opc.frames_rejected"] = rejected;
    L["opc.batch_drops"] = static_cast<double>(counter(sim, "oftt.opc.batch_drops"));
    L["opc.writes_acked"] = static_cast<double>(writes_acked);
    L["opc.ns_per_notification"] =
        notifications > 0
            ? static_cast<double>(tr->self_ns_of(o.run, "phase.steady")) / notifications
            : 0;
    L["opc.tag_set_ns"] =
        sets > 0 ? static_cast<double>(tr->self_ns_of(o.run, "opc.tick")) / static_cast<double>(sets)
                 : 0;
    tr->end_run();
  }
  return out;
}

}  // namespace perfbench
