// Table III of the paper: PBFT vs G-PBFT at 202 nodes.
//
//   | Consensus | Average latency (s) | Average costs (KB) |
//   | PBFT      | 251.47              | 8571.32            |
//   | G-PBFT    | 5.64                | 380.29             |
//
// Latency comes from the constant-frequency workload (as in Fig. 3/4);
// costs from the single-transaction experiment (as in Fig. 5/6). Absolute
// numbers depend on the simulated node model (DESIGN.md §4); the paper's
// claims are the *ratios*: G-PBFT reduces latency to ~2.24% and costs to
// ~4.43% of PBFT.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  using namespace ::gpbft::sim;
  constexpr std::size_t kNodes = 202;

  ScenarioSpec options = default_options();

  std::printf("Table III: experimental results when number of nodes is %zu\n\n", kNodes);

  const ExperimentResult pbft_latency = run_pbft_latency(kNodes, options);
  const ExperimentResult gpbft_latency = run_gpbft_latency(kNodes, options);
  const ExperimentResult pbft_cost = run_pbft_single_tx(kNodes, options);
  const ExperimentResult gpbft_cost = run_gpbft_single_tx(kNodes, options);
  bench::append_json_record("table3.pbft.latency", pbft_latency, options.seed);
  bench::append_json_record("table3.gpbft.latency", gpbft_latency, options.seed);
  bench::append_json_record("table3.pbft.cost", pbft_cost, options.seed);
  bench::append_json_record("table3.gpbft.cost", gpbft_cost, options.seed);

  std::printf("| Consensus | Average latency (s) | Average costs (KB) |\n");
  std::printf("|-----------|---------------------|--------------------|\n");
  std::printf("| PBFT      | %19.2f | %18.2f |\n", pbft_latency.latency.mean,
              pbft_cost.consensus_kb);
  std::printf("| G-PBFT    | %19.2f | %18.2f |\n", gpbft_latency.latency.mean,
              gpbft_cost.consensus_kb);
  std::printf("\n");
  std::printf("latency ratio G-PBFT/PBFT: %.2f%%  (paper: 2.24%%)\n",
              100.0 * gpbft_latency.latency.mean / pbft_latency.latency.mean);
  std::printf("cost ratio    G-PBFT/PBFT: %.2f%%  (paper: 4.43%%)\n",
              100.0 * gpbft_cost.consensus_kb / pbft_cost.consensus_kb);
  std::printf("\ncommitted: pbft %llu/%llu, gpbft %llu/%llu; committee %zu; era switches %llu\n",
              static_cast<unsigned long long>(pbft_latency.committed),
              static_cast<unsigned long long>(pbft_latency.expected),
              static_cast<unsigned long long>(gpbft_latency.committed),
              static_cast<unsigned long long>(gpbft_latency.expected),
              gpbft_latency.committee,
              static_cast<unsigned long long>(gpbft_latency.era_switches));
  return 0;
}
