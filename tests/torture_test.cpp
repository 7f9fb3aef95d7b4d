// Randomized torture tests: seeded FaultPlan schedules (crashes, recoveries,
// Byzantine modes, message loss) hammer both protocols while the online
// InvariantMonitor checks, at every executed block, the invariants that must
// never break:
//   SAFETY    no two honest replicas ever execute different blocks at the
//             same height (continuous, not just at the end);
//   VALIDITY  every committed client transaction was actually submitted and
//             executes at most once per replica;
//   LIVENESS  with at most f concurrent faults, submitted transactions
//             eventually commit once every injected fault has healed.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "sim/chaos.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {
namespace {

void expect_prefix_consistency(PbftCluster& cluster) {
  // End-of-run backstop on top of the monitor's continuous check: compare
  // every pair of replicas block-by-block over the shared prefix.
  for (std::size_t a = 0; a < cluster.replica_count(); ++a) {
    for (std::size_t b = a + 1; b < cluster.replica_count(); ++b) {
      const auto& chain_a = cluster.replica(a).chain();
      const auto& chain_b = cluster.replica(b).chain();
      const Height shared = std::min(chain_a.height(), chain_b.height());
      for (Height h = 0; h <= shared; ++h) {
        ASSERT_EQ(chain_a.at(h).hash(), chain_b.at(h).hash())
            << "divergence at height " << h << " between replicas " << a << " and " << b;
      }
    }
  }
}

void schedule_monitored_workload(PbftCluster& cluster, const WorkloadConfig& workload,
                                 InvariantMonitor& monitor) {
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    schedule_workload(cluster.simulator(), cluster.client(i), cluster.placement().position(i),
                      workload, i, nullptr,
                      [&monitor](const ledger::Transaction& tx) { monitor.expect_submission(tx); });
  }
}

class PbftTorture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbftTorture, RandomCrashRecoverScheduleNeverDiverges) {
  const std::uint64_t seed = GetParam();

  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 7;  // f = 2
  spec.clients = 3;
  spec.seed = seed;
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  spec.net.drop_rate = 0.02;  // constant background loss
  PbftCluster cluster(spec);

  InvariantMonitor monitor(cluster.simulator());
  cluster.watch(monitor);
  cluster.start();

  WorkloadConfig workload;
  workload.period = Duration::seconds(2);
  workload.count = 15;
  schedule_monitored_workload(cluster, workload, monitor);

  // Crash-only intensity profile: one decision round every 5 simulated
  // seconds over a 120 s horizon, never more than f = 2 replicas down at
  // once, every crash paired with a recovery.
  ChaosProfile profile;
  profile.crash_chance = 0.35;
  profile.link_fault_chance = 0.0;
  profile.brownout_chance = 0.0;
  profile.max_faulty = 2;
  const Duration horizon = Duration::seconds(120);
  const FaultPlan plan = FaultPlan::random(seed, profile, cluster.committee(), horizon);
  plan.schedule(cluster.simulator(), cluster.network(),
                {.hook = [&monitor](const ChaosEvent& event) {
                  monitor.note_fault(event.describe());
                }});

  cluster.run_for(horizon);

  // Everyone has recovered by all_healed_at(): liveness must return.
  const TimePoint deadline{std::max(horizon.ns, plan.all_healed_at().ns) +
                           Duration::seconds(600).ns};
  cluster.run_until_committed(workload.count, deadline);

  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    committed += cluster.client(i).committed_count();
  }
  monitor.check_bounded_liveness(committed, workload.count * cluster.client_count(),
                                 plan.all_healed_at(), Duration::seconds(600));

  EXPECT_TRUE(monitor.clean()) << monitor.report();
  EXPECT_GT(monitor.blocks_checked(), 0u);
  EXPECT_EQ(committed, workload.count * cluster.client_count());
  expect_prefix_consistency(cluster);

  // VALIDITY backstop: every committed transaction was a workload submission
  // (all workload txs come from known client ids with our payload size).
  const auto& chain = cluster.replica(0).chain();
  for (Height h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions) {
      EXPECT_GT(tx.sender.value, kClientIdBase);
      EXPECT_EQ(tx.payload.size(), 32u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbftTorture, ::testing::Values(1, 2, 3, 4, 5, 6));

class ByzantineTorture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ByzantineTorture, FByzantineReplicasCannotBreakSafety) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xbeef);

  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 7;  // f = 2
  spec.clients = 2;
  spec.seed = seed;
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  PbftCluster cluster(spec);

  InvariantMonitor monitor(cluster.simulator());
  cluster.watch(monitor);
  cluster.start();

  // Two Byzantine replicas with random attack modes (possibly the primary),
  // faulty for the whole run — a literal FaultPlan pins the exact scenario.
  const pbft::FaultMode modes[] = {pbft::FaultMode::Silent, pbft::FaultMode::EquivocateDigest,
                                   pbft::FaultMode::CorruptProposals};
  const std::size_t bad_a = rng.uniform(0, 6);
  std::size_t bad_b = rng.uniform(0, 6);
  while (bad_b == bad_a) bad_b = rng.uniform(0, 6);

  FaultPlan plan;
  plan.add(ChaosEvent::byzantine(TimePoint{Duration::millis(500).ns}, cluster.replica(bad_a).id(),
                                 modes[rng.uniform(0, 2)]));
  plan.add(ChaosEvent::byzantine(TimePoint{Duration::millis(500).ns}, cluster.replica(bad_b).id(),
                                 modes[rng.uniform(0, 2)]));
  plan.schedule(cluster.simulator(), cluster.network(),
                {.set_byzantine =
                     [&cluster, &monitor](NodeId id, pbft::FaultMode mode) {
                       for (std::size_t i = 0; i < cluster.replica_count(); ++i) {
                         if (cluster.replica(i).id() == id) cluster.replica(i).set_fault_mode(mode);
                       }
                       monitor.set_faulty(id, mode != pbft::FaultMode::None);
                     },
                 .hook = [&monitor](const ChaosEvent& event) {
                   monitor.note_fault(event.describe());
                 }});

  WorkloadConfig workload;
  workload.period = Duration::seconds(3);
  workload.count = 8;
  schedule_monitored_workload(cluster, workload, monitor);

  cluster.run_until_committed(workload.count, TimePoint{Duration::seconds(600).ns});

  // SAFETY among honest replicas, regardless of what the Byzantine pair did:
  // the monitor checked agreement + validity at every honest execution.
  EXPECT_TRUE(monitor.clean()) << monitor.report();
  EXPECT_GT(monitor.blocks_checked(), 0u);

  // End-of-run backstop over the honest replicas' full chains.
  Height max_height = 0;
  std::map<Height, crypto::Hash256> canonical;
  for (std::size_t i = 0; i < cluster.replica_count(); ++i) {
    if (i == bad_a || i == bad_b) continue;
    const auto& chain = cluster.replica(i).chain();
    max_height = std::max(max_height, chain.height());
    for (Height h = 0; h <= chain.height(); ++h) {
      const auto [it, inserted] = canonical.emplace(h, chain.at(h).hash());
      ASSERT_EQ(it->second, chain.at(h).hash()) << "honest divergence at height " << h;
    }
  }

  // LIVENESS with exactly f faulty.
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    committed += cluster.client(i).committed_count();
  }
  EXPECT_EQ(committed, workload.count * cluster.client_count());
  EXPECT_GT(max_height, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByzantineTorture, ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

class GpbftTorture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GpbftTorture, ChurnPlusFaultsKeepCommitteeChainsConsistent) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xfeed);

  ScenarioSpec spec;
  spec.nodes = 10;
  spec.committee.initial = 6;
  spec.clients = 3;
  spec.seed = seed;
  spec.committee.era_period = Duration::seconds(8);
  spec.geo.report_period = Duration::seconds(2);
  spec.geo.window = Duration::seconds(8);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(12);
  spec.committee.min = 4;
  spec.committee.max = 8;
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  GpbftCluster cluster(spec);

  InvariantMonitor monitor(cluster.simulator());
  cluster.watch(monitor);
  cluster.start();

  WorkloadConfig workload;
  workload.period = Duration::seconds(3);
  workload.count = 10;
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    schedule_workload(cluster.simulator(), cluster.client(i), cluster.placement().position(i),
                      workload, i, nullptr,
                      [&monitor](const ledger::Transaction& tx) { monitor.expect_submission(tx); });
  }

  // Churn: one random crash (a literal FaultPlan event at t = 12 s) plus one
  // random relocation mid-run.
  const std::size_t crashed = rng.uniform(0, 5);
  FaultPlan plan;
  plan.add(ChaosEvent::crash(TimePoint{Duration::seconds(12).ns}, cluster.endorser(crashed).id()));
  plan.schedule(cluster.simulator(), cluster.network(),
                {.hook = [&monitor](const ChaosEvent& event) {
                  monitor.note_fault(event.describe());
                }});

  cluster.run_for(Duration::seconds(24));
  const std::size_t moved = 6 + rng.uniform(0, 3);
  const geo::GeoPoint new_home = cluster.placement().position(60 + moved);
  cluster.endorser(moved).set_location(new_home);
  cluster.area().place(cluster.endorser(moved).id(), new_home);

  cluster.run_until_committed(workload.count, TimePoint{Duration::seconds(600).ns});

  // The monitor checked committee agreement, era-roster consistency, and
  // validity at every executed block.
  EXPECT_TRUE(monitor.clean()) << monitor.report();
  EXPECT_GT(monitor.blocks_checked(), 0u);

  // End-of-run backstop: committee members' chains agree over the prefix.
  std::map<Height, crypto::Hash256> canonical;
  for (const NodeId member : cluster.roster()) {
    for (std::size_t i = 0; i < cluster.endorser_count(); ++i) {
      if (cluster.endorser(i).id() != member) continue;
      const auto& chain = cluster.endorser(i).chain();
      for (Height h = 0; h <= chain.height(); ++h) {
        const auto [it, inserted] = canonical.emplace(h, chain.at(h).hash());
        ASSERT_EQ(it->second, chain.at(h).hash())
            << "committee divergence at height " << h << " (member " << member.str() << ")";
      }
    }
  }

  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    committed += cluster.client(i).committed_count();
  }
  EXPECT_EQ(committed, workload.count * cluster.client_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpbftTorture, ::testing::Values(7, 17, 27, 37, 47, 57));

}  // namespace
}  // namespace gpbft::sim
