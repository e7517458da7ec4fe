// Absolute history hashes for the two cluster detection paths under the
// sequential kernel: gossip (all-to-all heartbeats) at N=5 and SWIM at
// N=9, two seeds each, through the same crash-and-reboot scenario the
// parallel-engine suite replays. The pair path is pinned by the chaos
// corpus; these pins do the same for the engine's cluster role logic,
// so a refactor of it is checked against fixed values, not only
// run-against-run.
#include <gtest/gtest.h>

#include <cstdint>

#include "pdes/pdes_scenarios.h"

namespace oftt::sim {
namespace {

struct ClusterPin {
  core::DetectionMode detection;
  int replicas;
  std::uint64_t seed;
  std::uint64_t history_hash;
};

constexpr ClusterPin kPins[] = {
    {core::DetectionMode::kGossip, 5, 101, 8071440583718318596ull},
    {core::DetectionMode::kGossip, 5, 202, 5825906470362272216ull},
    {core::DetectionMode::kSwim, 9, 101, 5964076561805825688ull},
    {core::DetectionMode::kSwim, 9, 202, 17009655813082411096ull},
};

TEST(ClusterPin, SequentialHistoriesMatchPinnedHashes) {
  for (const ClusterPin& pin : kPins) {
    EXPECT_EQ(pdestest::swim_cluster_hash(pin.seed, pin.detection, pin.replicas, seconds(20),
                                          /*engine=*/nullptr),
              pin.history_hash)
        << core::detection_mode_name(pin.detection) << " N=" << pin.replicas << " seed "
        << pin.seed;
  }
}

}  // namespace
}  // namespace oftt::sim
