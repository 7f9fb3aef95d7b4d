// End-to-end smoke: both protocols commit transactions in a small network.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace gpbft::sim {
namespace {

ScenarioSpec small_options() {
  ScenarioSpec options = default_options();
  options.workload.txs_per_client = 2;
  options.workload.period = Duration::seconds(1);
  options.engine.compute_macs = true;
  options.deadline = Duration::seconds(300);
  return options;
}

TEST(Smoke, PbftCommitsTransactions) {
  const ExperimentResult result = run_pbft_latency(4, small_options());
  EXPECT_EQ(result.committed, result.expected);
  EXPECT_GT(result.latency.mean, 0.0);
}

TEST(Smoke, GpbftCommitsTransactions) {
  const ExperimentResult result = run_gpbft_latency(8, small_options());
  EXPECT_EQ(result.committed, result.expected);
  EXPECT_EQ(result.committee, 8u);
}

TEST(Smoke, SingleTransactionCostAccounted) {
  const ExperimentResult result = run_pbft_single_tx(7, small_options());
  EXPECT_EQ(result.committed, 1u);
  EXPECT_GT(result.consensus_kb, 0.0);
}

}  // namespace
}  // namespace gpbft::sim
