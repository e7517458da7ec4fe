// ParallelEngine: conservative parallel discrete-event execution with a
// byte-identical determinism contract.
//
// Nodes are partitioned across worker threads (node % workers); each
// worker owns one slab-pooled EventQueue shard holding exactly its
// nodes' events. Execution alternates between
//
//   windows   — all workers run their shards' events with
//               at < window_end concurrently, and
//   barriers  — the coordinator (the thread that called run_until)
//               drains cross-partition outboxes, replays deferred
//               telemetry/log records in deterministic merge order,
//               and executes due *global* events (fault injectors,
//               harness drivers — anything scheduled outside a node
//               context) while every worker is parked, since a global
//               event may touch any node.
//
// The window end is the classic bounded-lag horizon:
//
//   window_end = min(next global event,
//                    min over all pending node events + lookahead,
//                    run limit + 1)
//
// where lookahead = min over networks of latency_min_. Every
// cross-node interaction goes through a Network link, so an event
// executing at time t can only influence another node at t + lookahead
// or later — which is >= window_end by construction. Cross-partition
// deliveries therefore never target the current window and can wait in
// the sending shard's outbox until the barrier moves them across.
// A zero latency_min_ would make windows empty and deadlock progress;
// the engine refuses to run (std::runtime_error naming the network).
//
// Determinism. Every quantity that decides *what happens* is a pure
// function of the event history, never of the partition:
//   - window boundaries derive from global minima over all nodes'
//     events — identical for any worker count;
//   - event tie-break keys are ((node + 1) << 40) | node_counter,
//     allocated from the scheduling node's own monotone counter, so a
//     shard queue's (time, key) pop order — the same key discipline
//     the sequential kernel uses — is independent of arrival order;
//   - network rng draws come from per-source-node substreams forked
//     from the seed (Network::send switches off its shared stream in
//     parallel mode), so partitioning never changes draws;
//   - telemetry publishes and log lines are buffered per worker with
//     (time, node-key) merge keys and replayed in sorted order at the
//     barrier.
// The pinned determinism contract (tests/pdes/) is: identical event
// histories, telemetry streams and logs for 1, 2 and 4 workers — with
// the one-worker engine executing in strict global timestamp order,
// i.e. sequentially.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/exec_context.h"
#include "sim/time.h"

namespace oftt::sim {

class Simulation;
struct EngineConfig;

/// One cross-partition event: the target node's shard queue re-keys
/// nothing — `key` was derived from the *sending* node's deterministic
/// counter at send time (stamped with send-time semantics), so delivery
/// order is reconstructed identically for any worker count.
struct CrossEvent {
  SimTime at = 0;
  std::uint64_t key = 0;
  std::uint32_t target = 0;  // destination node id
  EventFn fn;
};

class ParallelEngine {
 public:
  ParallelEngine(Simulation& sim, const EngineConfig& config);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int workers() const { return workers_; }
  /// Round-robin, and a pure function of node id and worker count: the
  /// determinism contract says the history is identical for any worker
  /// count, so *where* a node executes must never leak into *what* it
  /// computes. The assignment only decides load balance.
  int shard_of(int node) const { return workers_ <= 1 || node < 0 ? 0 : node % workers_; }
  SimTime lookahead() const { return lookahead_; }

  /// Simulation::add_node hook: record the node's shard.
  void on_add_node(int node);

  /// All Simulation scheduling funnels here. `node` >= 0 targets that
  /// node (strand events, reboots); -1 means "the scheduling context's
  /// node, or the global queue when called outside any node context".
  EventHandle schedule(SimTime at, LifeRef life, EventFn&& fn, int node);

  /// Cross-node delivery (Network), stamped with send-time semantics:
  /// the tie-break key comes from the *sending* node's counter, taken
  /// now, so reconstruction at the destination is order-independent.
  void post_send(int src_node, int dst_node, SimTime at, EventFn&& fn);

  bool step();
  void run_until(SimTime t);
  void run(std::uint64_t max_events);
  bool empty() const;

  // --- introspection (tests, benches, monitor board) -----------------
  std::uint64_t windows() const { return windows_; }
  std::uint64_t events_executed() const;
  std::uint64_t worker_events(int w) const;
  /// Always 0; kept because the benchmark's per-layer report reads it.
  std::uint64_t mailbox_spills() const { return 0; }
  /// Total wall-clock ns workers spent parked at barriers.
  std::uint64_t stall_ns() const;

 private:
  struct BusItem {
    std::uint64_t key = 0;
    obs::Event e;
  };

  /// One worker's world: its event queue, executed-count, and the
  /// deferred telemetry/log buffers flushed at each barrier. Plain
  /// (non-atomic) fields are fine: within a window only the owning
  /// worker touches them, and the barrier mutex orders the coordinator's
  /// reads against the worker's writes.
  struct alignas(64) Shard {
    EventQueue q;
    std::uint64_t executed = 0;
    /// Wall-clock ns this worker spent executing in the last window;
    /// the coordinator subtracts it from the window's wall time to get
    /// the horizon-stall contribution.
    std::uint64_t window_exec_ns = 0;
    std::vector<BusItem> bus_buf;
    std::vector<LogRecord> log_buf;
    /// Cross-shard deliveries posted this window, indexed by destination
    /// shard; moved into the destination queues at the barrier.
    std::vector<std::vector<CrossEvent>> outbox;
    std::thread thread;
  };

  std::uint64_t make_key(int origin_node);

  void start_run();
  /// Core loop: run events with time <= t (kNever = drain), stopping
  /// after the first window/global event when `once`, or once `budget`
  /// events have executed.
  void advance(SimTime t, std::uint64_t budget, bool once, bool& ran_any);
  void run_window(SimTime end);
  void flush_barrier();
  void worker_main(int w);
  SimTime shard_min();
  SimTime global_next();

  Simulation& sim_;
  int workers_ = 1;
  SimTime lookahead_ = kNever;
  bool started_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Barrier state (coordinator <-> workers).
  std::mutex mu_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_coord_;
  std::uint64_t round_ = 0;
  SimTime window_end_ = 0;
  int running_ = 0;
  bool shutdown_ = false;

  std::uint64_t windows_ = 0;
  std::uint64_t global_executed_ = 0;
  std::uint64_t stall_ns_ = 0;

  // Scratch for the barrier merges (reused across windows).
  std::vector<BusItem> bus_merge_;
  std::vector<LogRecord> log_merge_;

  // oftt.pdes.* metrics.
  obs::Counter ctr_windows_;
  obs::Counter ctr_events_;
  obs::Counter ctr_cross_events_;
  obs::Gauge g_stall_ns_;
  std::vector<obs::Gauge> g_worker_events_;
};

}  // namespace oftt::sim
