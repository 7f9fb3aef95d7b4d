// Scenario layer tests: the declarative spec round-trips through its text
// format exactly, spec-built clusters replay the golden runs seed-for-seed
// (golden block hashes), a cluster refuses a spec for another protocol, the
// dBFT / PoW deployments hold their invariants under a monitored smoke run,
// a spec's chaos block translates onto the fault-plan profile, and every
// checked-in chaos scenario file runs clean through the monitored driver
// `gpbft_cli run` uses.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "golden_runs.hpp"
#include "sim/chaos.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/scenario.hpp"

namespace gpbft::sim {
namespace {

ScenarioSpec exercised_spec() {
  // Touch every section with non-default values so the round-trip test
  // cannot pass by accident of defaults.
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Dbft;
  spec.seed = 987654321;
  spec.nodes = 31;
  spec.clients = 9;
  spec.deadline = Duration::seconds(777);
  spec.workload.txs_per_client = 41;
  spec.workload.period = Duration::millis(1250);
  spec.workload.payload_bytes = 48;
  spec.workload.fee = 3;
  spec.workload.start = TimePoint{Duration::millis(1500).ns};
  spec.workload.stagger = Duration::millis(7);
  spec.workload.client_retries = false;
  spec.committee.initial = 5;
  spec.committee.min = 5;
  spec.committee.max = 21;
  spec.committee.era_period = Duration::seconds(45);
  spec.committee.blacklist = {NodeId{3}, NodeId{17}};
  spec.committee.whitelist = {NodeId{29}};
  spec.geo.report_period = Duration::seconds(7);
  spec.geo.window = Duration::seconds(35);
  spec.geo.min_reports = 4;
  spec.geo.promotion_threshold = Duration::seconds(90);
  spec.geo.reports_on_chain = true;
  spec.engine.batch_size = 24;
  spec.engine.checkpoint_interval = 32;
  spec.engine.compute_macs = false;
  spec.engine.request_timeout = Duration::seconds(9);
  spec.engine.view_change_timeout = Duration::seconds(7);
  spec.net.processing_rate_msgs_per_sec = 119.5;
  spec.net.drop_rate = 0.015625;
  spec.placement.base = geo::GeoPoint{48.8566, 2.3522};
  spec.placement.area_precision = 6;
  spec.placement.spacing_meters = 12.5;
  spec.dbft.block_interval = Duration::seconds(11);
  spec.dbft.delegates = 9;
  spec.dbft.epoch_blocks = 8;
  spec.pow.block_interval = Duration::seconds(13);
  spec.pow.confirmations = 4;
  spec.pow.hashrate = 2.5e5;
  spec.chaos.intensity = "medium";
  spec.chaos.horizon = Duration::seconds(55);
  spec.chaos.liveness_grace = Duration::seconds(111);
  spec.chaos.restart_chance = 0.125;
  spec.chaos.disk_fault_chance = 0.0625;
  spec.chaos.sybil_burst_chance = 0.25;
  spec.chaos.targeted_crash_chance = 0.1875;
  spec.chaos.oscillate_chance = 0.09375;
  spec.reputation.enabled = true;
  spec.reputation.half_life = Duration::seconds(3600);
  spec.reputation.quarantine_enter = 350;
  spec.reputation.quarantine_exit = 800;
  spec.reputation.sybil_rate_factor = 5;
  return spec;
}

// --- text format ---------------------------------------------------------------------

TEST(Scenario, PrintParseRoundTripIdentity) {
  const ScenarioSpec spec = exercised_spec();
  const std::string text = print_scenario(spec);
  const Result<ScenarioSpec> parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value() == spec);
  // And the rendering is a fixed point: print(parse(print(s))) == print(s).
  EXPECT_EQ(print_scenario(parsed.value()), text);
}

TEST(Scenario, DefaultsRoundTripToo) {
  const ScenarioSpec spec;
  const Result<ScenarioSpec> parsed = parse_scenario(print_scenario(spec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(Scenario, OmittedKeysKeepDefaults) {
  const Result<ScenarioSpec> parsed = parse_scenario(
      "protocol=pow\nnodes=12\n# a comment\n\nseed=5\ncommittee.whitelist=5,7\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().protocol, ProtocolKind::Pow);
  EXPECT_EQ(parsed.value().nodes, 12u);
  EXPECT_EQ(parsed.value().seed, 5u);
  EXPECT_EQ(parsed.value().committee.whitelist, (std::vector<NodeId>{NodeId{5}, NodeId{7}}));
  EXPECT_TRUE(parsed.value().committee.blacklist.empty());
  EXPECT_TRUE(parsed.value().workload == WorkloadSpec{});
}

TEST(Scenario, StrictParseRejectsGarbage) {
  EXPECT_FALSE(parse_scenario("nonsense_key=1\n").ok());       // unknown key
  EXPECT_FALSE(parse_scenario("nodes=5x\n").ok());             // trailing junk
  EXPECT_FALSE(parse_scenario("protocol=raft\n").ok());        // unknown protocol
  EXPECT_FALSE(parse_scenario("nodes\n").ok());                // no '='
  EXPECT_FALSE(parse_scenario("placement.area_precision=13\n").ok());  // out of range
  EXPECT_FALSE(parse_scenario("workload.period_ns=abc\n").ok());
  // Admittance lists hold node ids (>= 1), comma-separated, nothing else.
  EXPECT_FALSE(parse_scenario("committee.blacklist=1,,2\n").ok());
  EXPECT_FALSE(parse_scenario("committee.blacklist=0\n").ok());
  EXPECT_FALSE(parse_scenario("committee.whitelist=3x\n").ok());
  EXPECT_FALSE(parse_scenario("committee.whitelist=4,\n").ok());
  // The simulator runs on one host thread; a file asking for more must
  // error, not quietly run on one.
  EXPECT_FALSE(parse_scenario("sim.threads=8\n").ok());
}

TEST(Scenario, ProtocolNamesRoundTrip) {
  for (const ProtocolKind kind :
       {ProtocolKind::Pbft, ProtocolKind::Gpbft, ProtocolKind::Dbft, ProtocolKind::Pow}) {
    const Result<ProtocolKind> back = protocol_from_name(protocol_name(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), kind);
  }
  EXPECT_FALSE(protocol_from_name("paxos").ok());
}

// --- construction --------------------------------------------------------------------
//
// A cluster built from a golden spec at its defaults must replay the exact
// event sequence: identical tip hashes, heights and commit counts.

TEST(DeploymentParity, PbftGoldenRunIsBitIdentical) {
  const ScenarioSpec spec = pbft_golden_spec();
  PbftCluster cluster(spec);
  cluster.start();
  LatencyRecorder recorder;
  cluster.schedule_workload(spec.workload, &recorder);
  const bool done = cluster.run_until_committed(spec.workload.txs_per_client,
                                                TimePoint{Duration::seconds(300).ns});
  cluster.stop();

  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.committed_count(), 8u);
  EXPECT_EQ(cluster.replica(0).chain().height(), 8u);
  EXPECT_EQ(cluster.replica(0).chain().tip().hash().hex(), kPbftGoldenTip);
}

TEST(DeploymentParity, GpbftGoldenRunIsBitIdentical) {
  const ScenarioSpec spec = gpbft_golden_spec();
  GpbftCluster cluster(spec);
  cluster.start();
  LatencyRecorder recorder;
  cluster.schedule_workload(spec.workload, &recorder);
  cluster.run_for(Duration::seconds(60));
  cluster.stop();

  EXPECT_EQ(cluster.committed_count(), 8u);
  EXPECT_EQ(cluster.total_era_switches(), 1u);
  EXPECT_EQ(cluster.committee_size(), 6u);  // both candidates promoted
  EXPECT_EQ(cluster.endorser(0).chain().height(), 9u);
  EXPECT_EQ(cluster.endorser(0).chain().tip().hash().hex(), kGpbftGoldenTip);
}

TEST(DeploymentDeathTest, ClusterAbortsOnAnotherProtocolsSpec) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Gpbft;
  EXPECT_DEATH({ PbftCluster cluster(spec); }, "a pbft cluster cannot run a gpbft scenario");
}

// --- dBFT / PoW deployments under the monitor ----------------------------------------

TEST(DeploymentSmoke, DbftCommitsCleanlyUnderCrashFault) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Dbft;
  spec.nodes = 7;
  spec.clients = 2;
  spec.seed = 3;
  spec.dbft.block_interval = Duration::seconds(2);
  spec.workload.period = Duration::seconds(1);
  spec.workload.txs_per_client = 3;

  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  InvariantMonitor monitor(deployment->simulator());
  deployment->watch(monitor);
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr,
                                [&monitor](const ledger::Transaction& tx) {
                                  monitor.expect_submission(tx);
                                });

  // One delegate drops out mid-run and comes back: f = 2 tolerates it.
  deployment->simulator().schedule(Duration::seconds(3), [&deployment]() {
    deployment->network().crash(NodeId{5});
  });
  deployment->simulator().schedule(Duration::seconds(9), [&deployment]() {
    deployment->network().recover(NodeId{5});
  });

  const bool done = deployment->run_until_committed(
      spec.workload.txs_per_client, TimePoint{Duration::seconds(300).ns});
  deployment->stop();
  deployment->finish_invariants(monitor);

  EXPECT_TRUE(done);
  EXPECT_EQ(deployment->committed_count(), 6u);
  EXPECT_EQ(deployment->committee().size(), 7u);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
}

TEST(DeploymentSmoke, PowConfirmsAndPassesChainInvariants) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pow;
  spec.nodes = 5;
  spec.clients = 2;
  spec.seed = 9;
  spec.pow.block_interval = Duration::seconds(3);
  spec.pow.confirmations = 2;
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 2;
  spec.deadline = Duration::seconds(2000);

  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  InvariantMonitor monitor(deployment->simulator());
  deployment->watch(monitor);  // no online hook for PoW: checked at the end
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr,
                                [&monitor](const ledger::Transaction& tx) {
                                  monitor.expect_submission(tx);
                                });

  const bool done = deployment->run_until_committed(spec.workload.txs_per_client,
                                                    TimePoint{spec.deadline.ns});
  deployment->stop();
  deployment->finish_invariants(monitor);

  EXPECT_TRUE(done);
  EXPECT_EQ(deployment->committed_count(), 4u);
  EXPECT_GT(deployment->hashes_computed(), 0.0);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
}

// --- chaos blocks --------------------------------------------------------------------

TEST(ChaosProfileTranslation, SpecChaosBlockMapsOntoThePlanProfile) {
  ScenarioSpec spec;  // G-PBFT, intensity "none"
  spec.chaos.restart_chance = 0.125;
  spec.chaos.disk_fault_chance = 0.0625;
  spec.chaos.sybil_burst_chance = 0.25;
  spec.chaos.targeted_crash_chance = 0.1875;
  spec.chaos.oscillate_chance = 0.09375;
  spec.chaos.tamper_chance = 0.5;
  ChaosProfile profile = chaos_profile(spec, 7);
  // "none" fires no node-fault family; only the opted-in chances remain.
  EXPECT_EQ(profile.crash_chance, 0.0);
  EXPECT_EQ(profile.partition_chance, 0.0);
  EXPECT_EQ(profile.byzantine_chance, 0.0);
  EXPECT_EQ(profile.link_fault_chance, 0.0);
  EXPECT_EQ(profile.brownout_chance, 0.0);
  EXPECT_EQ(profile.restart_chance, 0.125);
  EXPECT_EQ(profile.disk_fault_chance, 0.0625);
  EXPECT_EQ(profile.sybil_burst_chance, 0.25);
  EXPECT_EQ(profile.targeted_crash_chance, 0.1875);
  EXPECT_EQ(profile.oscillate_chance, 0.09375);
  EXPECT_EQ(profile.tamper_chance, 0.5);
  EXPECT_EQ(profile.tamper_template.mode, net::TamperRule::Mode::Replace);
  EXPECT_GT(profile.tamper_template.replay, 0.0);
  EXPECT_TRUE(profile.tamper_template.spare_types.empty());
  EXPECT_EQ(profile.max_faulty, 2u);  // f = (7 - 1) / 3

  spec.chaos.tamper_mode = "inject";
  profile = chaos_profile(spec, 10);
  EXPECT_EQ(profile.tamper_template.mode, net::TamperRule::Mode::Inject);
  EXPECT_EQ(profile.tamper_template.replay, 0.0);
  EXPECT_EQ(profile.max_faulty, 3u);
  EXPECT_EQ(chaos_profile(spec, 0).max_faulty, 0u);

  // PoW: no Byzantine toggles; client requests are never tampered, and
  // under Inject neither are blocks.
  spec.protocol = ProtocolKind::Pow;
  spec.chaos.intensity = "heavy";
  spec.chaos.tamper_mode = "replace";
  profile = chaos_profile(spec, 4);
  EXPECT_EQ(profile.crash_chance, ChaosProfile::heavy().crash_chance);
  EXPECT_EQ(profile.byzantine_chance, 0.0);
  EXPECT_EQ(profile.tamper_template.spare_types,
            (std::vector<net::MessageType>{pbft::msg_type::kClientRequest}));
  EXPECT_EQ(profile.max_faulty, 1u);
  spec.chaos.tamper_mode = "inject";
  EXPECT_EQ(chaos_profile(spec, 4).tamper_template.spare_types,
            (std::vector<net::MessageType>{pbft::msg_type::kClientRequest, pow::kPowBlock}));
}

/// Each checked-in chaos scenario file, run the way `gpbft_cli run` runs it:
/// the shared monitored driver with the file's seed drawing the fault plan.
class ChaosScenarioFile : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosScenarioFile, RunsCleanAndCommitsEveryTransaction) {
  const std::filesystem::path path = std::filesystem::path(GPBFT_SOURCE_DIR) / "scenarios" /
                                     (std::string(GetParam()) + ".scenario");
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const Result<ScenarioSpec> parsed = parse_scenario(text.str());
  ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.error();
  const ScenarioSpec& spec = parsed.value();
  ASSERT_TRUE(spec.chaos.enabled());

  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  InvariantMonitor monitor(deployment->simulator());
  const ChaosRunResult run = run_chaos_scenario(*deployment, monitor, spec.seed);
  EXPECT_TRUE(run.passed()) << monitor.report();
  EXPECT_EQ(run.committed, run.expected);
  EXPECT_GT(run.expected, 0u);
  EXPECT_GT(run.blocks_checked, 0u);
  EXPECT_GT(run.fault_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(CheckedIn, ChaosScenarioFile,
                         ::testing::Values("election_boundary_oscillation", "election_churn_long",
                                           "election_sybil_burst", "election_targeted_crash",
                                           "restart_dbft", "restart_pbft", "restart_pow",
                                           "tamper_storm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace gpbft::sim
