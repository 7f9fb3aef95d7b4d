// G-PBFT endorser integration tests: era switches, candidate promotion,
// demotion on movement, admittance policy enforcement, Sybil exclusion,
// penalties, state transfer, and incentive accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/deployment.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {
namespace {

using ::gpbft::gpbft::Role;

/// A deployment tuned so the era machinery is observable within seconds:
/// reports every 2 s, eras every 10 s, promotion after 15 s stationary.
ScenarioSpec fast_spec(std::size_t nodes, std::size_t committee, std::size_t max_endorsers = 40) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Gpbft;
  spec.nodes = nodes;
  spec.committee.initial = committee;
  spec.clients = 1;
  spec.seed = 7;
  spec.committee.era_period = Duration::seconds(10);
  spec.geo.report_period = Duration::seconds(2);
  spec.geo.window = Duration::seconds(10);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(15);
  spec.committee.min = 4;
  spec.committee.max = max_endorsers;
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  return spec;
}

ledger::Transaction tx_from(GpbftCluster& cluster, RequestId request) {
  return make_workload_tx(cluster.client(0).id(), request, cluster.placement().position(0),
                          cluster.simulator().now(), 16, 10, request);
}

TEST(Endorser, InitialRolesFromGenesis) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(cluster.endorser(i).role(), Role::Active);
  for (std::size_t i = 4; i < 6; ++i) EXPECT_EQ(cluster.endorser(i).role(), Role::Candidate);
  EXPECT_EQ(cluster.committee_size(), 4u);
}

TEST(Endorser, StationaryCandidatesGetPromoted) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  cluster.run_for(Duration::seconds(35));  // a few era periods

  EXPECT_EQ(cluster.committee_size(), 6u);
  EXPECT_EQ(cluster.endorser(4).role(), Role::Active);
  EXPECT_EQ(cluster.endorser(5).role(), Role::Active);
  EXPECT_GE(cluster.era(), 1u);
}

TEST(Endorser, PromotedNewcomerReceivesStateTransfer) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();

  // Commit some blocks before the candidates qualify.
  for (RequestId r = 1; r <= 3; ++r) {
    cluster.client(0).submit(tx_from(cluster, r));
    cluster.run_for(Duration::seconds(2));
  }
  const Height before = cluster.endorser(0).chain().height();
  EXPECT_GE(before, 1u);
  EXPECT_EQ(cluster.endorser(5).chain().height(), 0u);  // candidate: genesis only

  cluster.run_for(Duration::seconds(35));
  ASSERT_EQ(cluster.endorser(5).role(), Role::Active);
  // The newcomer adopted the whole chain, including pre-promotion blocks.
  EXPECT_EQ(cluster.endorser(5).chain().height(), cluster.endorser(0).chain().height());
  EXPECT_EQ(cluster.endorser(5).chain().tip().hash(), cluster.endorser(0).chain().tip().hash());
  EXPECT_EQ(cluster.endorser(5).era(), cluster.endorser(0).era());
}

TEST(Endorser, MaxEndorsersEnforced) {
  GpbftCluster cluster(fast_spec(8, 4, /*max=*/5));
  cluster.start();
  cluster.run_for(Duration::seconds(40));
  EXPECT_EQ(cluster.committee_size(), 5u);
  // Every committee member is Active, everyone else Candidate.
  std::size_t active = 0;
  for (std::size_t i = 0; i < cluster.endorser_count(); ++i) {
    if (cluster.endorser(i).role() == Role::Active) ++active;
  }
  EXPECT_EQ(active, 5u);
}

TEST(Endorser, MovedEndorserDemotedNextEra) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  cluster.run_for(Duration::seconds(25));  // promotions happen
  ASSERT_EQ(cluster.committee_size(), 6u);

  // Device 2 physically relocates within the area: honest reports from a
  // new cell -> Algorithm 1 sees differing locations -> demotion.
  const geo::GeoPoint new_spot = cluster.placement().position(30);
  cluster.endorser(1).set_location(new_spot);
  cluster.area().place(cluster.endorser(1).id(), new_spot);

  cluster.run_for(Duration::seconds(25));
  EXPECT_EQ(cluster.endorser(1).role(), Role::Candidate);
  const auto& roster = cluster.roster();
  EXPECT_TRUE(std::find(roster.begin(), roster.end(), cluster.endorser(1).id()) == roster.end());
  EXPECT_EQ(cluster.committee_size(), 5u);
}

TEST(Endorser, MinimumAbortsShrinkingSwitch) {
  // 4 members at the minimum; one moves. Dropping it would violate the
  // minimum, so the switch is aborted and the roster stays intact (§III-C).
  ScenarioSpec spec = fast_spec(4, 4);
  GpbftCluster cluster(spec);
  cluster.start();
  cluster.run_for(Duration::seconds(5));

  const geo::GeoPoint new_spot = cluster.placement().position(30);
  cluster.endorser(3).set_location(new_spot);
  cluster.area().place(cluster.endorser(3).id(), new_spot);

  cluster.run_for(Duration::seconds(30));
  EXPECT_EQ(cluster.committee_size(), 4u);
  EXPECT_EQ(cluster.endorser(3).role(), Role::Active);  // still in (switch aborted)

  // The system must still commit transactions.
  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(5));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(Endorser, LyingCandidateNeverPromoted) {
  GpbftCluster cluster(fast_spec(6, 4));
  // Device 6 claims the area center while the registry knows it is absent
  // from that spot (it is at its own grid position): untruthful claims.
  cluster.endorser(5).set_location(cluster.placement().position(50));
  cluster.start();
  cluster.run_for(Duration::seconds(40));

  EXPECT_EQ(cluster.endorser(5).role(), Role::Candidate);
  EXPECT_EQ(cluster.committee_size(), 5u);  // only the honest candidate joined
  EXPECT_TRUE(cluster.endorser(0).sybil_filter().is_flagged(cluster.endorser(5).id()));
}

TEST(Endorser, OutOfAreaCandidateNeverPromoted) {
  GpbftCluster cluster(fast_spec(6, 4));
  const geo::GeoPoint outside = cluster.placement().outside_position(0);
  cluster.endorser(5).set_location(outside);
  cluster.area().place(cluster.endorser(5).id(), outside);  // truthfully outside
  cluster.start();
  cluster.run_for(Duration::seconds(40));

  EXPECT_EQ(cluster.endorser(5).role(), Role::Candidate);
  EXPECT_EQ(cluster.committee_size(), 5u);
}

TEST(Endorser, CrashedPrimaryPenalizedAndExpelled) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  cluster.run_for(Duration::seconds(1));

  // Crash the era-0 lead (first in producer order), then submit: the view
  // change marks it as having missed its block (§III-B5).
  const NodeId lead = cluster.endorser(0).producer_order().front();
  cluster.network().crash(lead);
  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(45));

  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  // Some surviving endorser recorded the penalty and the next era excluded
  // the crashed lead.
  const auto& roster = cluster.roster();
  EXPECT_TRUE(std::find(roster.begin(), roster.end(), lead) == roster.end());
  EXPECT_GE(cluster.era(), 1u);
}

TEST(Endorser, ProducerOrderDrivesPrimarySchedule) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  cluster.run_for(Duration::seconds(35));
  ASSERT_EQ(cluster.committee_size(), 6u);

  // The configuration-roster order (computed by timer at switch time,
  // Roster.OrderedByGeographicTimer unit-tests the sort) IS the primary
  // schedule, and every member derives the same one.
  const auto& order = cluster.endorser(0).producer_order();
  ASSERT_EQ(order.size(), 6u);
  for (ViewId v = 0; v < 12; ++v) {
    EXPECT_EQ(cluster.endorser(0).primary_of(v), order[v % order.size()]);
    EXPECT_EQ(cluster.endorser(3).primary_of(v), order[v % order.size()]);
  }
  // The order is a permutation of the roster.
  std::vector<NodeId> sorted_order = order;
  std::vector<NodeId> sorted_roster = cluster.roster();
  std::sort(sorted_order.begin(), sorted_order.end());
  std::sort(sorted_roster.begin(), sorted_roster.end());
  EXPECT_EQ(sorted_order, sorted_roster);
}

TEST(Endorser, ProducerTimerResetsAfterBlock) {
  GpbftCluster cluster(fast_spec(4, 4));
  cluster.start();
  cluster.run_for(Duration::seconds(5));

  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(3));
  ASSERT_GE(cluster.endorser(1).chain().height(), 1u);

  const NodeId producer = cluster.endorser(1).chain().tip().header.producer;
  const auto& table = cluster.endorser(1).election_table();
  const TimePoint now = cluster.simulator().now();
  // The producer's timer restarted at execution; everyone else's did not.
  for (const NodeId peer : cluster.roster()) {
    if (peer == producer) continue;
    EXPECT_GT(table.timer_at(peer, now), table.timer_at(producer, now));
  }
}

TEST(Endorser, ClientsFollowRosterAcrossEras) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  cluster.run_for(Duration::seconds(35));
  ASSERT_EQ(cluster.committee_size(), 6u);

  // A transaction submitted after the switch commits under the new roster.
  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(5));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(Endorser, CommitsDuringEraSwitchResume) {
  // Transactions arriving while the committee is halted are queued and
  // commit after the switch period (§III-E).
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  // Submit right before the first era boundary (t = 10 s).
  cluster.run_for(Duration::millis(9950));
  for (RequestId r = 1; r <= 3; ++r) cluster.client(0).submit(tx_from(cluster, r));
  cluster.run_for(Duration::seconds(10));
  EXPECT_EQ(cluster.client(0).committed_count(), 3u);
}

TEST(Endorser, ForkEvidencePenalizesProducer) {
  GpbftCluster cluster(fast_spec(4, 4));
  cluster.start();
  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(3));
  ASSERT_GE(cluster.endorser(0).chain().height(), 1u);

  // Fabricate a conflicting block at the committed height.
  const ledger::Block committed = cluster.endorser(0).chain().at(1);
  ledger::Block conflicting = committed;
  conflicting.header.timestamp = TimePoint{conflicting.header.timestamp.ns + 1};
  conflicting.header.producer = cluster.endorser(2).id();

  const auto evidence = cluster.endorser(0).chain().observe_header(conflicting.header);
  ASSERT_TRUE(evidence.has_value());
  // chain() is const on purpose; feed the evidence through the endorser API.
  cluster.endorser(0).report_fork(*evidence);
  EXPECT_TRUE(cluster.endorser(0).penalized().contains(cluster.endorser(2).id()));
}

TEST(Endorser, FeesDistributedSeventyThirty) {
  ScenarioSpec spec = fast_spec(4, 4);
  spec.committee.era_period = Duration::seconds(1000);  // no switches
  GpbftCluster cluster(spec);
  cluster.start();

  cluster.client(0).submit(tx_from(cluster, 1));  // fee 10
  cluster.run_for(Duration::seconds(3));
  ASSERT_GE(cluster.endorser(0).chain().height(), 1u);

  const NodeId producer = cluster.endorser(0).chain().at(1).header.producer;
  const auto& state = cluster.endorser(0).state();
  EXPECT_EQ(state.balance_of_node(producer), 7);  // 70% of fee 10
  std::int64_t peers_total = 0;
  for (const NodeId peer : cluster.roster()) {
    if (peer != producer) peers_total += state.balance_of_node(peer);
  }
  EXPECT_EQ(peers_total, 3);  // 30% shared
  EXPECT_EQ(state.balance_of_node(cluster.client(0).id()), -10);
}

TEST(Endorser, EraSwitchDurationIsShort) {
  GpbftCluster cluster(fast_spec(6, 4));
  cluster.start();
  cluster.run_for(Duration::seconds(35));
  ASSERT_GE(cluster.era(), 1u);

  // The observable switch period is well under a second (the paper reports
  // ~0.25 s outliers from switches in Fig. 3b).
  const Duration switch_duration = cluster.endorser(0).last_switch_duration();
  EXPECT_GT(switch_duration.ns, 0);
  EXPECT_LT(switch_duration.to_seconds(), 1.0);
}

TEST(Endorser, BlacklistedDeviceNeverJoins) {
  ScenarioSpec spec = fast_spec(6, 4);
  spec.committee.blacklist = {NodeId{6}};
  GpbftCluster cluster(spec);
  cluster.start();
  cluster.run_for(Duration::seconds(40));

  // Device 5 (honest candidate) joined; device 6 is blacklisted out despite
  // identical behaviour.
  EXPECT_EQ(cluster.committee_size(), 5u);
  EXPECT_EQ(cluster.endorser(4).role(), Role::Active);
  EXPECT_EQ(cluster.endorser(5).role(), Role::Candidate);
}

TEST(Endorser, WhitelistedDeviceSkipsQualification) {
  // A whitelisted device joins at the first era switch even though its
  // geographic timer is far below the promotion threshold (§III-C).
  ScenarioSpec spec = fast_spec(6, 4);
  spec.geo.promotion_threshold = Duration::seconds(3600);  // unreachable
  spec.committee.whitelist = {NodeId{5}};
  GpbftCluster cluster(spec);
  cluster.start();
  cluster.run_for(Duration::seconds(25));

  EXPECT_EQ(cluster.endorser(4).role(), Role::Active);   // whitelisted: in
  EXPECT_EQ(cluster.endorser(5).role(), Role::Candidate);  // normal path: threshold unreachable
  EXPECT_EQ(cluster.committee_size(), 5u);
}

TEST(Endorser, OnChainGeoReportsPromoteCandidates) {
  // Full-fidelity mode: location reports are zero-fee transactions, so the
  // election table is derived from committed blocks (chain-based G(v, t)).
  ScenarioSpec spec = fast_spec(6, 4);
  spec.geo.reports_on_chain = true;
  GpbftCluster cluster(spec);
  cluster.start();
  cluster.run_for(Duration::seconds(40));

  EXPECT_EQ(cluster.committee_size(), 6u);
  EXPECT_EQ(cluster.endorser(4).role(), Role::Active);
  EXPECT_EQ(cluster.endorser(5).role(), Role::Active);
  // The reports are on the chain: blocks contain geo-report transactions.
  const auto& chain = cluster.endorser(0).chain();
  std::size_t report_txs = 0;
  for (Height h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions) {
      if (ledger::is_geo_report_tx(tx)) ++report_txs;
    }
  }
  EXPECT_GT(report_txs, 10u);
}

TEST(Endorser, OnChainModeNewcomerRebuildsTableFromChain) {
  ScenarioSpec spec = fast_spec(6, 4);
  spec.geo.reports_on_chain = true;
  GpbftCluster cluster(spec);
  cluster.start();
  cluster.run_for(Duration::seconds(40));
  ASSERT_EQ(cluster.endorser(5).role(), Role::Active);

  // The newcomer's election table knows the other devices' histories even
  // though it joined late — it replayed the chain's geo trailers.
  const auto& table = cluster.endorser(5).election_table();
  EXPECT_GE(table.devices().size(), 4u);
  EXPECT_TRUE(table.latest(cluster.endorser(0).id()).has_value());
}

TEST(Endorser, LyingTransactionTrailersNotRecorded) {
  // A client whose transactions claim a location the registry contradicts
  // never enters any endorser's election table.
  ScenarioSpec spec = fast_spec(4, 4);
  GpbftCluster cluster(spec);
  cluster.start();

  // The client is physically at position 0 (the cluster placed it there),
  // but its transactions claim position 50.
  auto lie = make_workload_tx(cluster.client(0).id(), 1, cluster.placement().position(50),
                              cluster.simulator().now(), 16, 10, 1);
  cluster.client(0).submit(lie);
  cluster.run_for(Duration::seconds(5));

  EXPECT_EQ(cluster.client(0).committed_count(), 1u);  // the tx itself commits
  const auto& table = cluster.endorser(0).election_table();
  EXPECT_FALSE(table.latest(cluster.client(0).id()).has_value());
  EXPECT_TRUE(cluster.endorser(0).sybil_filter().is_flagged(cluster.client(0).id()));
}

TEST(Endorser, ChainsConsistentAcrossCommittee) {
  GpbftCluster cluster(fast_spec(8, 4));
  cluster.start();
  LatencyRecorder recorder;
  WorkloadSpec workload;
  workload.period = Duration::seconds(2);
  workload.txs_per_client = 10;
  schedule_workload(cluster.simulator(), cluster.client(0), cluster.placement().position(0),
                    workload, 0, &recorder);
  cluster.run_for(Duration::seconds(45));

  EXPECT_EQ(cluster.client(0).committed_count(), 10u);
  const auto& reference = cluster.endorser(0).chain();
  for (const NodeId member : cluster.roster()) {
    for (std::size_t i = 0; i < cluster.endorser_count(); ++i) {
      if (cluster.endorser(i).id() != member) continue;
      EXPECT_EQ(cluster.endorser(i).chain().tip().hash(), reference.tip().hash())
          << "member " << member.str();
    }
  }
}

}  // namespace
}  // namespace gpbft::sim
