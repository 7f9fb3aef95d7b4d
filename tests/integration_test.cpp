// Cross-protocol integration tests asserting the *shapes* the paper reports:
// G-PBFT's committee cap keeps latency and communication cost flat while
// PBFT's grow with the network (Figs. 3-6, Table III in miniature).
#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace gpbft::sim {
namespace {

ScenarioSpec quick_options() {
  ScenarioSpec options = default_options();
  options.workload.txs_per_client = 3;
  options.workload.period = Duration::seconds(2);
  options.committee.max = 10;  // small cap so the effect shows at small n
  options.committee.min = 4;
  options.committee.era_period = Duration::seconds(15);
  options.geo.window = options.committee.era_period;
  options.deadline = Duration::seconds(600);
  return options;
}

TEST(Integration, GpbftCommitteeCapsAtMaximum) {
  const ScenarioSpec options = quick_options();
  EXPECT_EQ(run_gpbft_latency(6, options).committee, 6u);
  EXPECT_EQ(run_gpbft_latency(10, options).committee, 10u);
  EXPECT_EQ(run_gpbft_latency(25, options).committee, 10u);  // capped
}

TEST(Integration, SmallNetworksBehaveAlike) {
  // Below the cap, G-PBFT *is* PBFT over the same committee (Fig. 3b:
  // "the consensus latency increases just like that in the PBFT").
  ScenarioSpec options = quick_options();
  const ExperimentResult pbft = run_pbft_latency(7, options);
  const ExperimentResult gpbft = run_gpbft_latency(7, options);
  ASSERT_EQ(pbft.committed, pbft.expected);
  ASSERT_EQ(gpbft.committed, gpbft.expected);
  // Same committee size, latencies within 3x of each other (era-switch
  // pauses and geo traffic add some noise to G-PBFT).
  EXPECT_EQ(pbft.committee, gpbft.committee);
  EXPECT_LT(gpbft.latency.mean, pbft.latency.mean * 3.0);
}

TEST(Integration, GpbftLatencyFlatBeyondCap) {
  ScenarioSpec options = quick_options();
  const ExperimentResult at_cap = run_gpbft_latency(10, options);
  const ExperimentResult beyond = run_gpbft_latency(30, options);
  ASSERT_EQ(beyond.committed, beyond.expected);
  // 3x the nodes, same committee: mean latency grows by far less than the
  // node ratio (it may grow a little: more clients share the committee).
  EXPECT_LT(beyond.latency.mean, at_cap.latency.mean * 2.5);
}

TEST(Integration, PbftLatencyGrowsWithNetwork) {
  ScenarioSpec options = quick_options();
  const ExperimentResult small = run_pbft_latency(7, options);
  const ExperimentResult large = run_pbft_latency(28, options);
  ASSERT_EQ(small.committed, small.expected);
  ASSERT_EQ(large.committed, large.expected);
  EXPECT_GT(large.latency.mean, small.latency.mean * 1.5);
}

TEST(Integration, GpbftBeatsPbftBeyondCap) {
  // The headline claim at miniature scale.
  ScenarioSpec options = quick_options();
  const ExperimentResult pbft = run_pbft_latency(30, options);
  const ExperimentResult gpbft = run_gpbft_latency(30, options);
  ASSERT_EQ(gpbft.committed, gpbft.expected);
  EXPECT_LT(gpbft.latency.mean, pbft.latency.mean);
}

TEST(Integration, CommCostFlatForGpbftGrowingForPbft) {
  ScenarioSpec options = quick_options();
  const ExperimentResult pbft_small = run_pbft_single_tx(8, options);
  const ExperimentResult pbft_large = run_pbft_single_tx(32, options);
  const ExperimentResult gpbft_small = run_gpbft_single_tx(8, options);
  const ExperimentResult gpbft_large = run_gpbft_single_tx(32, options);

  // PBFT per-transaction bytes grow ~quadratically: 4x nodes -> ~16x bytes.
  EXPECT_GT(pbft_large.consensus_kb, pbft_small.consensus_kb * 8);
  // G-PBFT hits the committee ceiling: 4x nodes -> far less than 4x bytes.
  EXPECT_LT(gpbft_large.consensus_kb, gpbft_small.consensus_kb * 3);
  // And beyond the cap, G-PBFT is much cheaper than PBFT.
  EXPECT_LT(gpbft_large.consensus_kb, pbft_large.consensus_kb / 4);
}

TEST(Integration, CommCostQuadraticFactorMatchesTheory) {
  // §IV-C: cost reduction ~ c^2/n^2. With n = 32, c = 10 the predicted
  // ratio is ~9.8%; allow generous tolerance for client traffic and the
  // small-committee constant terms.
  ScenarioSpec options = quick_options();
  const ExperimentResult pbft = run_pbft_single_tx(32, options);
  const ExperimentResult gpbft = run_gpbft_single_tx(32, options);
  const double ratio = gpbft.consensus_kb / pbft.consensus_kb;
  const double predicted = (10.0 * 10.0) / (32.0 * 32.0);
  EXPECT_GT(ratio, predicted * 0.4);
  EXPECT_LT(ratio, predicted * 3.0);
}

TEST(Integration, AllTransactionsCommitUnderChurnLoad) {
  // Era switches during a loaded run never lose transactions.
  ScenarioSpec options = quick_options();
  options.committee.era_period = Duration::seconds(8);
  options.geo.window = options.committee.era_period;
  options.workload.txs_per_client = 4;
  const ExperimentResult result = run_gpbft_latency(12, options);
  EXPECT_EQ(result.committed, result.expected);
}

TEST(Integration, DbftCommitsWithBlockPacingLatency) {
  ScenarioSpec options = quick_options();
  options.workload.txs_per_client = 2;
  options.dbft.block_interval = Duration::seconds(5);
  const ExperimentResult result = run_dbft_latency(10, options);
  EXPECT_EQ(result.committed, result.expected);
  EXPECT_EQ(result.committee, 7u);  // NEO-style delegate count
  // Latency is dominated by the pacing interval, far above PBFT's
  // sub-second commits at this scale — the §VI-A critique made measurable.
  EXPECT_GT(result.latency.mean, 1.0);
}

TEST(Integration, PowConfirmsWithProbabilisticLatency) {
  ScenarioSpec options = quick_options();
  options.workload.txs_per_client = 1;
  options.pow.block_interval = Duration::seconds(5);
  options.pow.confirmations = 2;
  options.deadline = Duration::seconds(2000);
  const ExperimentResult result = run_pow_latency(8, options);
  EXPECT_EQ(result.committed, result.expected);
  // Multiple block intervals to confirmation, and real hash work spent.
  EXPECT_GT(result.latency.mean, 5.0);
  EXPECT_GT(result.hashes_computed, 1e6);
}

TEST(Integration, GpbftFasterThanBothBaselines) {
  ScenarioSpec options = quick_options();
  options.workload.txs_per_client = 2;
  options.pow.block_interval = Duration::seconds(5);
  options.pow.confirmations = 2;
  options.dbft.block_interval = Duration::seconds(5);
  options.deadline = Duration::seconds(2000);

  const double gpbft = run_gpbft_latency(12, options).latency.mean;
  const double dbft = run_dbft_latency(12, options).latency.mean;
  const double pow = run_pow_latency(12, options).latency.mean;
  EXPECT_LT(gpbft, dbft);
  EXPECT_LT(gpbft, pow);
}

TEST(Integration, ProcessingRateScalesLatency) {
  // §IV-B: consensus time ~ O(n/s). Halving s should roughly double the
  // queue-free consensus latency.
  ScenarioSpec options = quick_options();
  options.workload.txs_per_client = 1;
  ScenarioSpec slow = options;
  slow.net.processing_rate_msgs_per_sec = options.net.processing_rate_msgs_per_sec / 2;
  const ExperimentResult fast_run = run_pbft_latency(10, options);
  const ExperimentResult slow_run = run_pbft_latency(10, slow);
  EXPECT_GT(slow_run.latency.mean, fast_run.latency.mean * 1.4);
  EXPECT_LT(slow_run.latency.mean, fast_run.latency.mean * 3.0);
}

}  // namespace
}  // namespace gpbft::sim
