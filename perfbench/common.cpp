#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "bench.h"
#include "obs/telemetry.h"
#include "obs/span.h"
#include "sim/parallel_engine.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

std::int64_t Tracer::self_ns(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::int64_t covered = 0;
  // Lane-0 children nest strictly inside their parent and never overlap
  // one another (they come from one call stack), so summing is exact.
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size(); ++i) {
    const Span& c = spans_[i];
    if (c.parent == id && c.lane == 0) covered += c.duration_ns();
  }
  return s.duration_ns() - covered;
}

std::int64_t Tracer::self_ns_of(int run, const std::string& prefix) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.run == run && s.name.rfind(prefix, 0) == 0) total += self_ns(s.id);
  }
  return total;
}

std::int64_t Tracer::delta_of(int run, const std::string& prefix,
                              const std::string& probe) const {
  std::size_t idx = probes_.size();
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (probes_[i].name == probe) idx = i;
  }
  if (idx == probes_.size()) return 0;
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.run == run && s.name.rfind(prefix, 0) == 0 && idx < s.deltas.size()) {
      total += s.deltas[idx];
    }
  }
  return total;
}

namespace {

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string Tracer::chrome_json(const std::string& workload, std::uint64_t seed) const {
  // Trace-event format: complete ("X") events in microseconds. pid =
  // repetition, tid = lane, so phase slices nest on one track and the
  // overlapping fault lifetimes get their own.
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().host_start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":";
  json_string(out, workload);
  out += ",\"seed\":" + std::to_string(seed) + "},\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const Span& s : spans_) {
    if (s.host_end_ns == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    json_string(out, s.name);
    out += ",\"cat\":";
    json_string(out, s.name.substr(0, s.name.find('.')));
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  s.run, s.lane, static_cast<double>(s.host_start_ns - origin) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"span\":%d,\"parent\":%d,\"run\":%d,\"sim_start_ms\":%.3f,"
                  "\"sim_end_ms\":%.3f,\"self_us\":%.3f",
                  s.id, s.parent, s.run, static_cast<double>(s.sim_start) / 1e6,
                  static_cast<double>(s.sim_end) / 1e6,
                  static_cast<double>(self_ns(s.id)) / 1e3);
    out += buf;
    for (std::size_t i = 0; i < s.deltas.size() && i < probes_.size(); ++i) {
      if (s.deltas[i] == 0) continue;
      out += ",";
      json_string(out, "d." + probes_[i].name);
      out += ':';
      out += std::to_string(s.deltas[i]);
    }
    out += "}}";
  }
  // Process names so Perfetto labels each repetition's track.
  for (int run = 0; run <= (spans_.empty() ? -1 : spans_.back().run); ++run) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":",
                  run);
    out += buf;
    json_string(out, workload + " rep " + std::to_string(run));
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------

void Runner::run_until(sim::SimTime t, const char* phase) {
  if (t <= sim_->now()) return;
  Scope span(tracer_, std::string("phase.") + phase, *sim_);
  if (sim_->parallel_engine() != nullptr) {
    sim_->run_until(t);
  } else {
    bool reached = false;
    sim_->schedule_at(t, [&reached] { reached = true; });
    std::uint64_t n = 0;
    while (!reached && sim_->step()) ++n;
    seq_events_ += n - (reached ? 1 : 0);
  }
}

std::uint64_t Runner::events() const {
  if (sim::ParallelEngine* e = sim_->parallel_engine()) return e->events_executed();
  return seq_events_;
}

// ---------------------------------------------------------------------
// Statistics and registry reads.
// ---------------------------------------------------------------------

double percentile_ms(std::vector<std::int64_t> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  // Nearest rank.
  auto rank = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return static_cast<double>(xs[std::min(rank, xs.size() - 1)]) / 1e6;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

std::int64_t counter(const sim::Simulation& s, const std::string& name) {
  const auto& m = s.telemetry().metrics().counters();
  auto it = m.find(name);
  return it == m.end() ? 0
                       : static_cast<std::int64_t>(
                             it->second->value.load(std::memory_order_relaxed));
}

std::int64_t gauge(const sim::Simulation& s, const std::string& name) {
  const auto& m = s.telemetry().metrics().gauges();
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second->value.load(std::memory_order_relaxed);
}

double histogram_quantile(const sim::Simulation& s, const std::string& name, double q) {
  const auto& m = s.telemetry().metrics().histograms();
  auto it = m.find(name);
  if (it == m.end() || it->second->count.load() == 0) return -1;
  return static_cast<double>(it->second->quantile(q));
}

double histogram_sum(const sim::Simulation& s, const std::string& name) {
  const auto& m = s.telemetry().metrics().histograms();
  auto it = m.find(name);
  return it == m.end() ? 0 : static_cast<double>(it->second->sum.load());
}

NetTotals net_totals(sim::Simulation& s) {
  NetTotals t;
  for (std::size_t i = 0; i < s.network_count(); ++i) {
    sim::Network& n = s.network(static_cast<int>(i));
    t.sent += n.sent();
    t.delivered += n.delivered();
    t.dropped += n.dropped();
    t.bytes += n.bytes_sent();
  }
  return t;
}

std::vector<Tracer::Probe> common_probes(sim::Simulation& s, const Runner& r) {
  sim::Simulation* sp = &s;
  const Runner* rp = &r;
  auto net = [sp](std::uint64_t NetTotals::*field) {
    return [sp, field] { return static_cast<std::int64_t>(net_totals(*sp).*field); };
  };
  auto ctr = [sp](const char* name) {
    return [sp, name] { return counter(*sp, name); };
  };
  return {
      {"events", [rp] { return static_cast<std::int64_t>(rp->events()); }},
      {"net.sent", net(&NetTotals::sent)},
      {"net.delivered", net(&NetTotals::delivered)},
      {"net.dropped", net(&NetTotals::dropped)},
      {"net.bytes", net(&NetTotals::bytes)},
      {"obs.published",
       [sp] { return static_cast<std::int64_t>(sp->telemetry().bus().published()); }},
      {"transport.data_sent", ctr("transport.data_sent")},
      {"transport.retransmits", ctr("transport.retransmits")},
      {"opc.notifications", ctr("oftt.opc.notifications")},
      {"store.records", ctr("store.journal_records")},
  };
}

void common_layers(sim::Simulation& s, const Tracer& t, int run, RepResult& out) {
  auto& L = out.layers;
  const double events = static_cast<double>(t.delta_of(run, "phase.", "events"));
  const double phase_ns = static_cast<double>(t.self_ns_of(run, "phase."));
  L["sim.events"] = events;
  L["sim.ns_per_event"] = events > 0 ? phase_ns / events : 0;

  L["net.sent"] = static_cast<double>(t.delta_of(run, "phase.", "net.sent"));
  L["net.delivered"] = static_cast<double>(t.delta_of(run, "phase.", "net.delivered"));
  L["net.dropped"] = static_cast<double>(t.delta_of(run, "phase.", "net.dropped"));
  L["net.bytes"] = static_cast<double>(t.delta_of(run, "phase.", "net.bytes"));
  const double steady_dgrams =
      static_cast<double>(t.delta_of(run, "phase.steady", "net.delivered"));
  L["net.ns_per_datagram"] =
      steady_dgrams > 0 ? static_cast<double>(t.self_ns_of(run, "phase.steady")) / steady_dgrams
                        : 0;

  if (sim::ParallelEngine* e = s.parallel_engine()) {
    L["pdes.windows"] = static_cast<double>(e->windows());
    L["pdes.events_per_window"] =
        e->windows() > 0 ? static_cast<double>(e->events_executed()) /
                               static_cast<double>(e->windows())
                         : 0;
    L["pdes.stall_ms"] = static_cast<double>(e->stall_ns()) / 1e6;
    L["pdes.mailbox_spills"] = static_cast<double>(e->mailbox_spills());
    double sum = 0, mx = 0;
    for (int w = 0; w < e->workers(); ++w) {
      const double v = static_cast<double>(gauge(s, "oftt.pdes.w" + std::to_string(w) + ".events"));
      sum += v;
      mx = std::max(mx, v);
    }
    L["pdes.imbalance"] = sum > 0 ? mx / (sum / e->workers()) : 0;
  }

  const double published = static_cast<double>(t.delta_of(run, "phase.", "obs.published"));
  double sim_s = 0;
  for (const Span& sp : t.spans()) {
    if (sp.run == run && sp.name.rfind("phase.", 0) == 0) {
      sim_s += sim::to_seconds(sp.sim_end - sp.sim_start);
    }
  }
  L["obs.events_published"] = published;
  L["obs.events_per_sim_s"] = sim_s > 0 ? published / sim_s : 0;

  const double sent = static_cast<double>(counter(s, "transport.data_sent"));
  const double rtx = static_cast<double>(counter(s, "transport.retransmits"));
  L["transport.data_sent"] = sent;
  L["transport.retransmits"] = rtx;
  L["transport.retransmit_ratio"] = sent > 0 ? rtx / sent : 0;
  L["transport.session_resets"] = static_cast<double>(counter(s, "transport.session_resets"));
}

void engine_layers(sim::Simulation& s, RepResult& out) {
  auto& L = out.layers;
  L["engine.component_failures"] = static_cast<double>(counter(s, "oftt.component_failures"));
  L["engine.local_restarts"] = static_cast<double>(counter(s, "oftt.local_restarts"));
  L["engine.bad_packets"] = static_cast<double>(counter(s, "oftt.engine_bad_packet"));
  using oftt::obs::FailoverPhase;
  const auto& spans = s.telemetry().spans();
  auto p50 = [&](FailoverPhase p) { return percentile_ms(spans.durations(p, false), 0.5); };
  L["phase.detection_p50_ms"] = p50(FailoverPhase::kDetection);
  L["phase.negotiation_p50_ms"] = p50(FailoverPhase::kNegotiation);
  L["phase.promotion_p50_ms"] = p50(FailoverPhase::kPromotion);
  L["phase.replay_p50_ms"] = p50(FailoverPhase::kReplay);
}

}  // namespace perfbench
