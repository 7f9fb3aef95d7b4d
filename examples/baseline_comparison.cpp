// Baseline shoot-out: the same IoT workload on all four implemented
// consensus protocols — PBFT (whole-network committee), dBFT (7 delegates,
// 15 s block pacing), PoW (Nakamoto mining, 3-confirmation finality) and
// G-PBFT (geographic endorser committee).
//
// This is the paper's §I argument as a single runnable program: PoW burns
// energy and waits for confirmations, dBFT waits for block slots, plain
// PBFT drowns in quadratic traffic as the network grows, and G-PBFT commits
// in milliseconds at bounded cost.
//
//   ./build/examples/baseline_comparison
#include <cstdio>

#include "sim/experiment.hpp"

int main() {
  using namespace gpbft;
  constexpr std::size_t kNodes = 30;

  sim::ScenarioSpec options = sim::default_options();
  options.workload.txs_per_client = 2;
  options.workload.period = Duration::seconds(4);
  options.committee.max = 10;
  options.dbft.block_interval = Duration::seconds(15);
  options.pow.block_interval = Duration::seconds(10);
  options.pow.confirmations = 3;
  options.deadline = Duration::seconds(3000);

  std::printf("IoT workload on %zu nodes: %llu devices x %llu transactions each\n\n", kNodes,
              static_cast<unsigned long long>(kNodes),
              static_cast<unsigned long long>(options.workload.txs_per_client));
  std::printf("%-8s %10s %12s %12s %14s %s\n", "protocol", "committee", "mean lat(s)",
              "max lat(s)", "traffic (KB)", "notes");

  const sim::ExperimentResult pbft = sim::run_pbft_latency(kNodes, options);
  std::printf("%-8s %10zu %12.2f %12.2f %14.1f %s\n", "PBFT", pbft.committee,
              pbft.latency.mean, pbft.latency.max, pbft.total_kb, "whole network votes");

  const sim::ExperimentResult gpbft = sim::run_gpbft_latency(kNodes, options);
  std::printf("%-8s %10zu %12.2f %12.2f %14.1f %s\n", "G-PBFT", gpbft.committee,
              gpbft.latency.mean, gpbft.latency.max, gpbft.total_kb,
              "geographic endorser committee");

  const sim::ExperimentResult dbft = sim::run_dbft_latency(kNodes, options);
  std::printf("%-8s %10zu %12.2f %12.2f %14.1f %s\n", "dBFT", dbft.committee,
              dbft.latency.mean, dbft.latency.max, dbft.total_kb, "15 s block slots");

  const sim::ExperimentResult pow = sim::run_pow_latency(kNodes, options);
  std::printf("%-8s %10s %12.2f %12.2f %14.1f %.2e hashes burned\n", "PoW", "-",
              pow.latency.mean, pow.latency.max, pow.total_kb, pow.hashes_computed);

  std::printf("\nG-PBFT vs PBFT:  %5.1fx faster, %5.1fx less traffic\n",
              pbft.latency.mean / gpbft.latency.mean, pbft.total_kb / gpbft.total_kb);
  std::printf("G-PBFT vs dBFT:  %5.1fx faster\n", dbft.latency.mean / gpbft.latency.mean);
  std::printf("G-PBFT vs PoW:   %5.1fx faster, zero mining energy\n",
              pow.latency.mean / gpbft.latency.mean);
  return 0;
}
