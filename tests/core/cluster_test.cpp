// N-replica cluster mode (src/cluster/): ranked succession, membership
// view gossip, and quorum-gated promotion, driven through full
// ClusterDeployments. Covers the acceptance scenarios: rank-1 promotion
// within one detection+negotiation cycle, minority partitions that must
// never promote, cascading double failures, deterministic failover
// traces including the ack-collection phase, checkpoint fan-out, and
// rejoin-as-backup.
#include <gtest/gtest.h>

#include "cluster/membership.h"
#include "cluster/quorum.h"
#include "cluster/succession.h"
#include "core/deployment.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/fault_plan.h"
#include "support/counter_app.h"

namespace oftt::core {
namespace {

using testsupport::CounterApp;

ClusterDeploymentOptions standard_options(int replicas) {
  ClusterDeploymentOptions opts;
  opts.replicas = replicas;
  opts.app_factory = [](sim::Process& proc) { proc.attachment<CounterApp>(proc); };
  return opts;
}

// ---------------------------------------------------------------------
// Pure cluster-module unit coverage.
// ---------------------------------------------------------------------

TEST(Membership, QuorumIsMajorityOfFullViewAndPairDegradesToOne) {
  EXPECT_EQ(cluster::quorum_required(2), 1);  // pair mode: survivor alone
  EXPECT_EQ(cluster::quorum_required(3), 2);
  EXPECT_EQ(cluster::quorum_required(5), 3);
  EXPECT_EQ(cluster::quorum_required(9), 5);
}

TEST(Membership, MergeAdoptsOnlyNewerViewsAndKeepsFresherHeartbeats) {
  cluster::MembershipView a = cluster::MembershipView::initial({10, 11, 12});
  a.incarnation = 1;
  a.version = 3;
  a.find(11)->last_heartbeat = 900;

  cluster::MembershipView b = a;
  b.version = 4;
  b.find(10)->role = cluster::MemberRole::kDead;
  b.find(11)->last_heartbeat = 500;  // staler observation than ours

  cluster::MembershipView mine = a;
  EXPECT_TRUE(mine.merge(b));
  EXPECT_EQ(mine.version, 4u);
  EXPECT_EQ(mine.find(10)->role, cluster::MemberRole::kDead);
  EXPECT_EQ(mine.find(11)->last_heartbeat, 900) << "merge must not lose fresher local obs";

  // Older view: no adoption.
  cluster::MembershipView old = a;
  old.version = 2;
  EXPECT_FALSE(mine.merge(old));
  EXPECT_EQ(mine.version, 4u);
}

TEST(Succession, PromotionReranksSurvivorsAndMarksDeadLast) {
  cluster::MembershipView v = cluster::MembershipView::initial({10, 11, 12, 13, 14});
  cluster::SuccessionPlanner::promote(v, 10, 1, {10, 11, 12, 13, 14});
  // Primary dies; 12 was lost with it.
  EXPECT_EQ(cluster::SuccessionPlanner::successor(v, {11, 13, 14}), 11);
  cluster::SuccessionPlanner::promote(v, 11, 2, {11, 13, 14});
  EXPECT_EQ(v.primary()->node, 11);
  EXPECT_EQ(v.find(11)->rank, 0);
  EXPECT_EQ(v.find(13)->rank, 1);
  EXPECT_EQ(v.find(14)->rank, 2);
  EXPECT_EQ(v.find(10)->role, cluster::MemberRole::kDead);
  EXPECT_EQ(v.find(12)->role, cluster::MemberRole::kDead);
  EXPECT_GT(v.find(10)->rank, v.find(14)->rank);
  EXPECT_EQ(v.size(), 5u) << "dead members stay in the view (static quorum)";

  // Rejoin goes to the back of the whole line — behind even still-dead
  // members, so repeated rejoins readmit in FIFO order. successor()
  // skips dead members, so the dead one ahead never outranks it.
  EXPECT_TRUE(cluster::SuccessionPlanner::rejoin(v, 10));
  EXPECT_EQ(v.find(10)->role, cluster::MemberRole::kBackup);
  EXPECT_EQ(v.find(10)->rank, 4);
  EXPECT_EQ(v.find(12)->rank, 3);
  EXPECT_EQ(cluster::SuccessionPlanner::successor(v, {10}), 10);
  EXPECT_FALSE(cluster::SuccessionPlanner::rejoin(v, 10)) << "idempotent";
}

TEST(VoteLedger, OneCandidatePerIncarnation) {
  cluster::VoteLedger ledger;
  EXPECT_TRUE(ledger.grant(2, 10));
  EXPECT_TRUE(ledger.grant(2, 10)) << "retransmit from same candidate is idempotent";
  EXPECT_FALSE(ledger.grant(2, 11)) << "rival at same incarnation must be refused";
  EXPECT_FALSE(ledger.grant(1, 12)) << "stale incarnation must be refused";
  EXPECT_TRUE(ledger.grant(3, 11)) << "higher incarnation opens a new round";
}

// ---------------------------------------------------------------------
// Deployment-level behaviour.
// ---------------------------------------------------------------------

TEST(Cluster, StartupElectsRankZeroPrimaryWithQuorum) {
  sim::Simulation sim(7001);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));

  EXPECT_EQ(dep.primary_count(), 1);
  EXPECT_EQ(dep.primary_node(), dep.node(0).id()) << "rank 0 must win the startup election";
  for (int i = 1; i < 3; ++i) {
    ASSERT_NE(dep.engine(i), nullptr);
    EXPECT_EQ(dep.engine(i)->role(), Role::kBackup);
  }
  const cluster::MembershipView& view = dep.engine(0)->view();
  ASSERT_NE(view.primary(), nullptr);
  EXPECT_EQ(view.primary()->node, dep.node(0).id());
  EXPECT_GE(sim.counter_value("oftt.takeovers"), 1u);
  // The startup election is not a failure: no failover trace opened.
  EXPECT_TRUE(sim.telemetry().spans().traces().empty());
}

TEST(Cluster, KillingPrimaryPromotesRankOneWithinOneDetectionCycle) {
  sim::Simulation sim(7002);
  ClusterDeploymentOptions opts = standard_options(5);
  ClusterDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  sim::SimTime injected = sim.now();
  dep.node(0).crash();

  // One detection cycle (peer_timeout) + one negotiation cycle (a few
  // heartbeat periods for the PromoteRequest/Ack round trip).
  sim::SimTime bound = opts.engine.peer_timeout + 10 * opts.engine.heartbeat_period;
  while (sim.now() - injected < bound && dep.primary_node() < 0) {
    sim.run_for(sim::milliseconds(1));
  }
  EXPECT_EQ(dep.primary_node(), dep.node(1).id())
      << "rank-1 backup must take over within detection + negotiation";
  EXPECT_EQ(dep.primary_count(), 1);

  // The promotion was quorum-gated and traced, ack-collection included.
  sim.run_for(sim::seconds(2));
  ASSERT_FALSE(sim.telemetry().spans().traces().empty());
  const obs::FailoverTrace& t = sim.telemetry().spans().traces().front();
  EXPECT_EQ(t.node, dep.node(1).id());
  ASSERT_GE(t.quorum_at, 0) << "cluster failover must record the quorum milestone";
  EXPECT_GE(t.phase(obs::FailoverPhase::kAckCollection), 0);
  EXPECT_EQ(t.quorum_needed, 3u);
  EXPECT_GE(t.quorum_votes, 3u);
  // Survivors re-ranked deterministically behind the new primary.
  const cluster::MembershipView& view = dep.engine(1)->view();
  EXPECT_EQ(view.find(dep.node(1).id())->rank, 0);
  EXPECT_EQ(view.find(dep.node(2).id())->rank, 1);
  EXPECT_EQ(view.find(dep.node(0).id())->role, cluster::MemberRole::kDead);
}

TEST(Cluster, MinorityPartitionNeverPromotes) {
  sim::Simulation sim(7003);
  ClusterDeployment dep(sim, standard_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  // 2/5 minority {node3, node4}; majority keeps the primary and the
  // monitor PC.
  sim.network(0).partition(
      {{dep.node(0).id(), dep.node(1).id(), dep.node(2).id(), dep.monitor_node().id()},
       {dep.node(3).id(), dep.node(4).id()}});

  for (int step = 0; step < 20; ++step) {
    sim.run_for(sim::milliseconds(500));
    EXPECT_EQ(dep.primary_node(), dep.node(0).id());
    EXPECT_EQ(dep.primary_count(), 1);
    EXPECT_NE(dep.engine(3)->role(), Role::kPrimary) << "minority member promoted";
    EXPECT_NE(dep.engine(4)->role(), Role::kPrimary) << "minority member promoted";
  }
  EXPECT_EQ(dep.engine(3)->takeovers(), 0u);
  EXPECT_EQ(dep.engine(4)->takeovers(), 0u);

  sim.network(0).heal();
  sim.run_for(sim::seconds(3));
  EXPECT_EQ(dep.primary_node(), dep.node(0).id());
  EXPECT_EQ(dep.primary_count(), 1);
}

TEST(Cluster, PrimaryInMinorityStepsDownAndMajorityElects) {
  sim::Simulation sim(7004);
  ClusterDeployment dep(sim, standard_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  // Primary trapped with one backup; the three-member majority side
  // must elect its lowest-ranked member (node2).
  sim.network(0).partition(
      {{dep.node(0).id(), dep.node(1).id()},
       {dep.node(2).id(), dep.node(3).id(), dep.node(4).id(), dep.monitor_node().id()}});
  sim.run_for(sim::seconds(3));

  EXPECT_EQ(dep.engine(2)->role(), Role::kPrimary) << "majority must elect node2";
  EXPECT_NE(dep.engine(0)->role(), Role::kPrimary)
      << "minority primary must step down on quorum loss";
  EXPECT_NE(dep.engine(1)->role(), Role::kPrimary);

  sim.network(0).heal();
  sim.run_for(sim::seconds(3));
  EXPECT_EQ(dep.primary_node(), dep.node(2).id()) << "heal converges on the new incarnation";
  EXPECT_EQ(dep.primary_count(), 1);
}

TEST(Cluster, CascadingDoubleFailureConvergesToSinglePrimary) {
  sim::Simulation sim(7005);
  ClusterDeployment dep(sim, standard_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  sim::FaultPlan plan(sim);
  plan.crash_node(sim.now() + sim::milliseconds(10), dep.node(0).id());
  // Kill the successor right as its campaign should be in flight
  // (detection at +510ms, promotion shortly after).
  plan.crash_node(sim.now() + sim::milliseconds(560), dep.node(1).id());
  plan.arm();
  sim.run_for(sim::seconds(5));

  EXPECT_EQ(dep.primary_node(), dep.node(2).id())
      << "survivors must converge on the next-ranked member";
  EXPECT_EQ(dep.primary_count(), 1);
  const cluster::MembershipView& view = dep.engine(2)->view();
  EXPECT_EQ(view.find(dep.node(0).id())->role, cluster::MemberRole::kDead);
  EXPECT_EQ(view.find(dep.node(1).id())->role, cluster::MemberRole::kDead);
  // Still quorate: 3 live of 5.
  EXPECT_EQ(dep.engine(2)->role(), Role::kPrimary);
}

TEST(Cluster, CheckpointsFanOutToAllBackupsAndStateSurvivesFailover) {
  sim::Simulation sim(7006);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  Ftim* primary_ftim = dep.ftim_on(dep.node(0));
  ASSERT_NE(primary_ftim, nullptr);
  ASSERT_EQ(primary_ftim->checkpoint_peers().size(), 2u)
      << "cluster FTIM must target every other replica";
  EXPECT_GT(primary_ftim->acked_by(dep.node(1).id()), 0u);
  EXPECT_GT(primary_ftim->acked_by(dep.node(2).id()), 0u);
  EXPECT_GT(primary_ftim->min_acked_seq(), 0u);

  std::int64_t count_before = CounterApp::find(dep.node(0))->count();
  EXPECT_GT(count_before, 0);
  dep.node(0).crash();
  sim.run_for(sim::seconds(3));

  int primary = dep.primary_node();
  ASSERT_EQ(primary, dep.node(1).id());
  CounterApp* app = CounterApp::find(*dep.node_by_id(primary));
  ASSERT_NE(app, nullptr);
  EXPECT_GT(app->count(), count_before - 15)
      << "restored state must be within ~one checkpoint period of the lost primary";

  // The remaining backup keeps receiving checkpoints from the NEW
  // primary (ack path follows the sender, not a static peer).
  std::uint64_t acked = dep.ftim_on(*dep.node_by_id(primary))->acked_by(dep.node(2).id());
  EXPECT_GT(acked, 0u);
}

TEST(Cluster, RebootedPrimaryRejoinsAsLowestRankedBackup) {
  sim::Simulation sim(7007);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  dep.node(0).crash();
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node(1).id());

  dep.node(0).boot();
  sim.run_for(sim::seconds(3));
  EXPECT_EQ(dep.primary_node(), dep.node(1).id()) << "rejoin must not disturb the primary";
  EXPECT_EQ(dep.engine(0)->role(), Role::kBackup);
  const cluster::MembershipView& view = dep.engine(1)->view();
  EXPECT_EQ(view.find(dep.node(0).id())->role, cluster::MemberRole::kBackup);
  EXPECT_EQ(view.find(dep.node(0).id())->rank, 2) << "readmitted at the back of the line";
}

TEST(Cluster, TwoReplicaClusterDegradesToPairBehaviour) {
  sim::Simulation sim(7008);
  ClusterDeployment dep(sim, standard_options(2));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  dep.node(0).crash();
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(dep.primary_node(), dep.node(1).id())
      << "N=2 quorum is 1: the survivor promotes on its own vote";
  EXPECT_EQ(dep.primary_count(), 1);
}

TEST(Cluster, OperatorSwitchoverHandsOffToRankOne) {
  sim::Simulation sim(7009);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  EXPECT_EQ(dep.engine(0)->request_switchover("maintenance"), S_OK);
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(dep.primary_node(), dep.node(1).id());
  EXPECT_EQ(dep.primary_count(), 1);
  EXPECT_EQ(dep.engine(0)->role(), Role::kBackup);
}

TEST(Cluster, MonitorRendersMembershipView) {
  sim::Simulation sim(7010);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));

  SystemMonitor* mon = dep.monitor();
  ASSERT_NE(mon, nullptr);
  const cluster::MembershipView* view = mon->membership_of("unit");
  ASSERT_NE(view, nullptr) << "StatusReports must carry the view to the monitor";
  ASSERT_NE(view->primary(), nullptr);
  EXPECT_EQ(view->primary()->node, dep.node(0).id());
  std::string board = mon->render();
  EXPECT_NE(board.find("membership"), std::string::npos) << board;
  EXPECT_NE(board.find("rank 0"), std::string::npos) << board;
  EXPECT_EQ(mon->primary_of("unit"), dep.node(0).id());
}

// ---------------------------------------------------------------------
// Determinism: identical seeds must yield byte-identical telemetry,
// ack-collection phase included.
// ---------------------------------------------------------------------

std::string run_failover_and_export(std::uint64_t seed) {
  sim::Simulation sim(seed);
  ClusterDeploymentOptions opts = standard_options(5);
  opts.with_diverter = true;
  ClusterDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  dep.node(0).crash();
  sim.run_for(sim::seconds(10));
  return obs::export_json(sim.telemetry(), /*include_history=*/true);
}

TEST(Cluster, IdenticalSeedsYieldByteIdenticalFailoverTraces) {
  std::string a = run_failover_and_export(4242);
  std::string b = run_failover_and_export(4242);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"quorum_at_ns\""), std::string::npos)
      << "exported traces must include the quorum milestone";
  EXPECT_NE(a.find("\"ack_collection\""), std::string::npos)
      << "exported traces must include the ack-collection phase";
  std::string c = run_failover_and_export(4243);
  EXPECT_NE(a, c) << "different seeds should differ somewhere";
}

// ---------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------

// The cluster twin of Engine.NeverHeardPeerIsNotVisible: a gossip
// member whose peers are all down sees none of them before the run is
// peer_timeout old. Two replicas, so the lone member's own vote is a
// quorum and it elects itself.
TEST(Cluster, NeverHeardMembersAreNotVisible) {
  sim::Simulation sim(83);
  ClusterDeploymentOptions opts;
  opts.replicas = 2;
  opts.autostart = false;
  opts.engine.startup_probe_timeout = sim::milliseconds(100);
  ClusterDeployment dep(sim, opts);
  dep.node(0).boot();
  sim.run_for(sim::milliseconds(300));
  ASSERT_LT(sim.now(), opts.engine.peer_timeout);
  Engine* e = dep.engine(0);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->role(), Role::kPrimary);
  EXPECT_FALSE(e->peer_visible());
  EXPECT_EQ(e->request_switchover("maintenance"), OFTT_E_NO_PEER);
}

TEST(ClusterValidation, RejectsNonsensicalConfigs) {
  sim::Simulation sim(7011);
  {
    ClusterDeploymentOptions opts;
    opts.replicas = 1;
    EXPECT_THROW(ClusterDeployment(sim, opts), std::invalid_argument);
  }
  {
    ClusterDeploymentOptions opts;
    opts.engine.heartbeat_period = 0;
    EXPECT_THROW(ClusterDeployment(sim, opts), std::invalid_argument);
  }
  {
    sim::Node& lone = sim.add_node("lone");
    lone.boot();
    OfttConfig cfg;
    cfg.peer_node = lone.id();  // its own backup
    EXPECT_THROW(Engine::install(lone, cfg), std::invalid_argument);
    OfttConfig dup;
    dup.cluster_nodes = {lone.id(), lone.id()};
    EXPECT_THROW(Engine::install(lone, dup), std::invalid_argument);
    OfttConfig absent;
    absent.cluster_nodes = {lone.id() + 1, lone.id() + 2};
    EXPECT_THROW(Engine::install(lone, absent), std::invalid_argument);
  }
}

}  // namespace
}  // namespace oftt::core
