// Simulation-harness tests: boxplot statistics, device placement, workload
// generation, and cluster plumbing.
#include <gtest/gtest.h>

#include "sim/deployment.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/mobility.hpp"
#include "sim/placement.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {
namespace {

// --- metrics -------------------------------------------------------------------

TEST(Metrics, BoxplotOfKnownSamples) {
  const BoxplotStats stats = BoxplotStats::from_samples({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(stats.min, 1);
  EXPECT_DOUBLE_EQ(stats.q1, 2);
  EXPECT_DOUBLE_EQ(stats.median, 3);
  EXPECT_DOUBLE_EQ(stats.q3, 4);
  EXPECT_DOUBLE_EQ(stats.max, 5);
  EXPECT_DOUBLE_EQ(stats.mean, 3);
  EXPECT_EQ(stats.count, 5u);
}

TEST(Metrics, BoxplotInterpolatesQuartiles) {
  const BoxplotStats stats = BoxplotStats::from_samples({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(stats.median, 2.5);
  EXPECT_DOUBLE_EQ(stats.q1, 1.75);
  EXPECT_DOUBLE_EQ(stats.q3, 3.25);
}

TEST(Metrics, BoxplotHandlesEdgeCases) {
  EXPECT_EQ(BoxplotStats::from_samples({}).count, 0u);
  const BoxplotStats one = BoxplotStats::from_samples({7});
  EXPECT_DOUBLE_EQ(one.min, 7);
  EXPECT_DOUBLE_EQ(one.max, 7);
  EXPECT_DOUBLE_EQ(one.median, 7);
}

TEST(Metrics, BoxplotUnsortedInput) {
  const BoxplotStats stats = BoxplotStats::from_samples({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(stats.median, 3);
  EXPECT_DOUBLE_EQ(stats.min, 1);
  EXPECT_DOUBLE_EQ(stats.max, 5);
}

TEST(Metrics, RecorderMeanAndPercentiles) {
  LatencyRecorder recorder;
  for (int i = 1; i <= 100; ++i) recorder.record(Duration::seconds(i));
  EXPECT_DOUBLE_EQ(recorder.mean(), 50.5);
  EXPECT_NEAR(recorder.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(recorder.percentile(99), 99.01, 0.1);
  EXPECT_EQ(recorder.count(), 100u);
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_DOUBLE_EQ(recorder.mean(), 0.0);
}

// --- placement ---------------------------------------------------------------------

TEST(Placement, AllPositionsInsideArea) {
  Placement placement;
  const std::string area = placement.area_prefix();
  for (std::size_t i = 0; i < 300; ++i) {
    const std::string cell = geo::geohash_encode(placement.position(i), 12);
    EXPECT_EQ(cell.substr(0, area.size()), area) << "device " << i;
  }
}

TEST(Placement, PositionsAreDistinctCells) {
  Placement placement;
  std::set<std::string> cells;
  for (std::size_t i = 0; i < 300; ++i) {
    cells.insert(geo::geohash_encode(placement.position(i), 12));
  }
  EXPECT_EQ(cells.size(), 300u);
}

TEST(Placement, NeighboursAreMetersApart) {
  Placement placement;
  const double d = geo::haversine_meters(placement.position(0), placement.position(1));
  EXPECT_NEAR(d, 10.0, 1.0);
}

TEST(Placement, OutsidePositionIsOutside) {
  Placement placement;
  const std::string area = placement.area_prefix();
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string cell = geo::geohash_encode(placement.outside_position(i), 12);
    EXPECT_NE(cell.substr(0, area.size()), area);
  }
}

TEST(Placement, Deterministic) {
  Placement a, b;
  EXPECT_EQ(a.position(17), b.position(17));
  EXPECT_EQ(a.area_prefix(), b.area_prefix());
}

// --- workload -----------------------------------------------------------------------

TEST(Workload, MakesDeterministicTransactions) {
  const geo::GeoPoint spot{22.39, 114.10};
  const auto a = make_workload_tx(NodeId{5}, 3, spot, TimePoint{100}, 32, 10, 7);
  const auto b = make_workload_tx(NodeId{5}, 3, spot, TimePoint{100}, 32, 10, 7);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.payload.size(), 32u);
  EXPECT_EQ(a.fee, 10u);
  EXPECT_EQ(a.geo.point, spot);

  const auto c = make_workload_tx(NodeId{5}, 4, spot, TimePoint{100}, 32, 10, 7);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Workload, SubmitsExactlyCountTransactions) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 4;
  spec.clients = 1;
  spec.seed = 3;
  PbftCluster cluster(spec);
  cluster.start();

  LatencyRecorder recorder;
  WorkloadSpec workload;
  workload.period = Duration::seconds(1);
  workload.txs_per_client = 5;
  schedule_workload(cluster.simulator(), cluster.client(0), cluster.placement().position(0),
                    workload, 0, &recorder);
  cluster.run_for(Duration::seconds(30));

  EXPECT_EQ(cluster.client(0).committed_count(), 5u);
  EXPECT_EQ(recorder.count(), 5u);
  EXPECT_EQ(cluster.replica(0).state().applied_transactions(), 5u);
}

TEST(Workload, StaggerSeparatesClients) {
  WorkloadSpec config;
  config.stagger = Duration::millis(25);
  // Client 0 starts at config.start, client 10 starts 250 ms later: encoded
  // in schedule_workload; verify indirectly through distinct first-commit
  // deltas in a cluster run would be flaky, so check the arithmetic.
  const TimePoint first0{config.start.ns + config.stagger.ns * 0};
  const TimePoint first10{config.start.ns + config.stagger.ns * 10};
  EXPECT_EQ((first10 - first0).ns, Duration::millis(250).ns);
}

// --- cluster plumbing ----------------------------------------------------------------

TEST(Cluster, PbftCommitteeIsAllReplicas) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 7;
  PbftCluster cluster(spec);
  EXPECT_EQ(cluster.committee().size(), 7u);
  EXPECT_EQ(cluster.replica_count(), 7u);
}

TEST(Cluster, GpbftInitialCommitteeClamped) {
  ScenarioSpec spec;
  spec.nodes = 3;
  spec.committee.initial = 10;  // more than nodes: clamp
  GpbftCluster cluster(spec);
  EXPECT_EQ(cluster.committee_size(), 3u);
}

TEST(Cluster, ClientIdsDisjointFromNodeIds) {
  ScenarioSpec spec;
  spec.nodes = 5;
  spec.clients = 3;
  GpbftCluster cluster(spec);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(cluster.client(i).id().value, kClientIdBase);
  }
  EXPECT_EQ(cluster.endorser(4).id().value, 5u);
}

TEST(Cluster, AreaRegistryPopulated) {
  ScenarioSpec spec;
  spec.nodes = 5;
  spec.clients = 2;
  GpbftCluster cluster(spec);
  EXPECT_EQ(cluster.area().size(), 7u);  // nodes + clients
}

// --- mobility -----------------------------------------------------------------------

TEST(Mobility, RandomHopKeepsDeviceMobileAndHonest) {
  ScenarioSpec spec;
  spec.nodes = 5;
  spec.committee.initial = 4;
  spec.seed = 4;
  spec.committee.era_period = Duration::seconds(1000);  // isolate mobility
  GpbftCluster cluster(spec);
  Mobility mobility(cluster.simulator(), cluster.area(), cluster.placement());
  mobility.random_hop(cluster.endorser(4), Duration::seconds(3), 200, 10);
  cluster.start();

  const geo::GeoPoint before = cluster.endorser(4).location();
  cluster.run_for(Duration::seconds(10));
  const geo::GeoPoint after = cluster.endorser(4).location();
  EXPECT_GT(geo::haversine_meters(before, after), 1.0);
  // Ground truth follows: the registry agrees with the claimed location.
  EXPECT_TRUE(cluster.area().claim_is_truthful(cluster.endorser(4).id(), after));
}

TEST(Mobility, MobileDeviceNeverPromoted) {
  ScenarioSpec spec;
  spec.nodes = 6;
  spec.committee.initial = 4;
  spec.seed = 4;
  spec.committee.era_period = Duration::seconds(8);
  spec.geo.report_period = Duration::seconds(2);
  spec.geo.window = Duration::seconds(8);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(10);
  GpbftCluster cluster(spec);
  Mobility mobility(cluster.simulator(), cluster.area(), cluster.placement());
  // Device 6 hops faster than the promotion threshold; device 5 is fixed.
  mobility.random_hop(cluster.endorser(5), Duration::seconds(4), 300, 12);
  cluster.start();
  cluster.run_for(Duration::seconds(40));

  EXPECT_EQ(cluster.endorser(4).role(), ::gpbft::gpbft::Role::Active);     // fixed: in
  EXPECT_EQ(cluster.endorser(5).role(), ::gpbft::gpbft::Role::Candidate);  // mobile: out
}

TEST(Mobility, RelocateAtMovesOnce) {
  ScenarioSpec spec;
  spec.nodes = 4;
  spec.committee.initial = 4;
  GpbftCluster cluster(spec);
  Mobility mobility(cluster.simulator(), cluster.area(), cluster.placement());
  const geo::GeoPoint target = cluster.placement().position(77);
  mobility.relocate_at(cluster.endorser(0), Duration::seconds(5), target);
  cluster.start();

  cluster.run_for(Duration::seconds(4));
  EXPECT_GT(geo::haversine_meters(cluster.endorser(0).location(), target), 1.0);
  cluster.run_for(Duration::seconds(2));
  EXPECT_LT(geo::haversine_meters(cluster.endorser(0).location(), target), 0.1);
}

TEST(Mobility, StopHaltsDrivers) {
  ScenarioSpec spec;
  spec.nodes = 4;
  spec.committee.initial = 4;
  GpbftCluster cluster(spec);
  Mobility mobility(cluster.simulator(), cluster.area(), cluster.placement());
  mobility.random_hop(cluster.endorser(0), Duration::seconds(1), 100, 5);
  cluster.start();
  cluster.run_for(Duration::seconds(3));
  mobility.stop();
  const geo::GeoPoint frozen = cluster.endorser(0).location();
  cluster.run_for(Duration::seconds(5));
  EXPECT_LT(geo::haversine_meters(cluster.endorser(0).location(), frozen), 0.1);
}

// --- experiment helpers ---------------------------------------------------------------

TEST(Experiment, ConsensusBytesExcludeGeoTraffic) {
  net::NetStats stats;
  stats.by_type.resize(pbft::msg_type::kGeoReport + 1);
  stats.by_type[pbft::msg_type::kPrepare].bytes = 2048;
  stats.by_type[pbft::msg_type::kGeoReport].bytes = 4096;  // excluded
  stats.by_type[pbft::msg_type::kCommit].bytes = 1024;
  EXPECT_DOUBLE_EQ(consensus_kilobytes(stats), 3.0);
}

TEST(Experiment, RepeatRunsMergesSamples) {
  ScenarioSpec options = default_options();
  options.workload.txs_per_client = 1;
  options.workload.period = Duration::seconds(1);
  options.deadline = Duration::seconds(120);
  const ExperimentResult merged = repeat_runs(run_pbft_latency, 4, options, 3);
  EXPECT_EQ(merged.committed, merged.expected);
  EXPECT_EQ(merged.latency_samples.size(), 3u * 4u);  // 3 runs x 4 clients x 1 tx
  EXPECT_EQ(merged.latency.count, merged.latency_samples.size());
}

TEST(Experiment, DeterministicForSameSeed) {
  ScenarioSpec options = default_options();
  options.workload.txs_per_client = 2;
  options.workload.period = Duration::seconds(1);
  options.deadline = Duration::seconds(120);
  options.seed = 99;
  const ExperimentResult a = run_pbft_latency(4, options);
  const ExperimentResult b = run_pbft_latency(4, options);
  EXPECT_EQ(a.latency_samples, b.latency_samples);
  EXPECT_DOUBLE_EQ(a.consensus_kb, b.consensus_kb);
}

}  // namespace
}  // namespace gpbft::sim
