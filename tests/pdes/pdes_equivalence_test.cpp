// Parallel-engine determinism property tests: every pinned scenario
// family — the kernel-style lossy ring, the chaos worst-case corpus,
// the SWIM cluster, and the OPC tag plant — replays under
// EngineKind::kParallel with 1, 2 and 4 workers, and the event-history
// digest must be byte-identical across worker counts for each of five
// seeds. The worker count is the one knob the engine promises is
// unobservable; these tests are the promise, enforced in CI (the
// `pdes` ctest label, run in the OFTT_ENGINE=parallel lane and again
// under TSAN).
//
// Scenarios that draw no rng at all additionally match the sequential
// kernel exactly (covered in pdes_test.cpp); the lossy ones draw from
// per-source-node rng substreams in parallel mode, so their parallel
// digests are a separate (internally deterministic) universe from the
// pinned sequential hashes — which is why the pinned kernel_test /
// corpus hashes are untouched by this PR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "chaos/corpus.h"
#include "sim/simulation.h"
#include "pdes/pdes_scenarios.h"

namespace oftt::sim {
namespace {

constexpr std::uint64_t kSeeds[] = {101, 202, 303, 404, 505};

EngineConfig parallel_cfg(int workers) {
  EngineConfig cfg;
  cfg.kind = EngineKind::kParallel;
  cfg.workers = workers;
  return cfg;
}

/// Worker counts diffed against the W=1 reference. The CI parallel lane
/// (OFTT_ENGINE=parallel, OFTT_ENGINE_WORKERS=N) pushes one extra count
/// through the whole suite on top of the standard {2, 4}.
std::vector<int> worker_matrix() {
  std::vector<int> ws = {2, 4};
  EngineConfig env = engine_config_from_env();
  if (env.kind == EngineKind::kParallel && env.workers > 1 &&
      std::find(ws.begin(), ws.end(), env.workers) == ws.end()) {
    ws.push_back(env.workers);
  }
  return ws;
}

/// Run `hash_fn(engine_cfg*)` under W=1 and assert every other worker
/// count in the matrix agrees.
template <typename HashFn>
void expect_worker_invariant(HashFn&& hash_fn, const char* what, std::uint64_t seed) {
  EngineConfig w1 = parallel_cfg(1);
  const std::uint64_t reference = hash_fn(&w1);
  for (int workers : worker_matrix()) {
    EngineConfig cfg = parallel_cfg(workers);
    EXPECT_EQ(hash_fn(&cfg), reference)
        << what << ": history diverged at seed " << seed << ", workers " << workers;
  }
}

TEST(PdesEquivalence, LossyKernelRingInvariantAcrossWorkers) {
  for (std::uint64_t seed : kSeeds) {
    expect_worker_invariant(
        [seed](const EngineConfig* cfg) {
          return pdestest::ring_hash(seed, 5, /*lossy=*/true, cfg);
        },
        "lossy ring", seed);
  }
}

TEST(PdesEquivalence, CleanRingMatchesSequentialForEverySeed) {
  std::vector<int> all_workers = worker_matrix();
  all_workers.insert(all_workers.begin(), 1);
  for (std::uint64_t seed : kSeeds) {
    const std::uint64_t seq = pdestest::ring_hash(seed, 5, /*lossy=*/false, nullptr);
    for (int workers : all_workers) {
      EngineConfig cfg = parallel_cfg(workers);
      EXPECT_EQ(pdestest::ring_hash(seed, 5, /*lossy=*/false, &cfg), seq)
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(PdesEquivalence, SwimClusterInvariantAcrossWorkers) {
  for (std::uint64_t seed : kSeeds) {
    expect_worker_invariant(
        [seed](const EngineConfig* cfg) {
          return pdestest::swim_cluster_hash(seed, core::DetectionMode::kSwim, /*replicas=*/9,
                                              seconds(20), cfg);
        },
        "swim cluster", seed);
  }
}

TEST(PdesEquivalence, OpcTagFarmInvariantAcrossWorkers) {
  for (std::uint64_t seed : kSeeds) {
    expect_worker_invariant(
        [seed](const EngineConfig* cfg) {
          return pdestest::opc_farm_hash(seed, /*producers=*/6, /*tags_per_node=*/2000,
                                         seconds(2), cfg);
        },
        "opc tag farm", seed);
  }
}

// The checked-in worst-case chaos corpus: every entry replays under the
// parallel engine with an invariant hash across worker counts. (The
// pinned entry.history_hash stays the property of the sequential
// replay, asserted by tests/chaos/corpus_test.cpp.)
TEST(PdesEquivalence, ChaosWorstCaseCorpusInvariantAcrossWorkers) {
  std::ifstream in(OFTT_CHAOS_CORPUS_FILE);
  ASSERT_TRUE(in.good()) << "missing corpus: " << OFTT_CHAOS_CORPUS_FILE;
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<chaos::CorpusEntry> corpus = chaos::parse_corpus(text.str());
  ASSERT_FALSE(corpus.empty());

  for (const chaos::CorpusEntry& entry : corpus) {
    EngineConfig w1 = parallel_cfg(1);
    const chaos::EvalResult reference = chaos::replay(entry, w1);
    EXPECT_GT(reference.events, 0u) << entry.name;
    for (int workers : worker_matrix()) {
      EngineConfig cfg = parallel_cfg(workers);
      const chaos::EvalResult r = chaos::replay(entry, cfg);
      EXPECT_EQ(r.history_hash, reference.history_hash)
          << "corpus entry " << entry.name << " diverged at workers " << workers;
      EXPECT_EQ(r.events, reference.events) << entry.name << " workers " << workers;
      EXPECT_EQ(r.failover_p99, reference.failover_p99) << entry.name << " workers " << workers;
    }
  }
}

}  // namespace
}  // namespace oftt::sim
