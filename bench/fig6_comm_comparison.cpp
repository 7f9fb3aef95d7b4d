// Fig. 6 of the paper: communication-cost comparison over the extended node
// range. The PBFT line breaks after 202 nodes; G-PBFT stays bounded.
#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  sim::ScenarioSpec options = sim::default_options();

  std::printf("Fig. 6: communication cost comparison, single transaction (consensus KB)\n");
  std::printf("%6s %14s %14s %8s\n", "nodes", "PBFT(KB)", "G-PBFT(KB)", "ratio");
  for (const std::size_t nodes : bench::extended_grid()) {
    double pbft_kb = -1.0;
    if (nodes <= 202) {
      const sim::ExperimentResult pbft = sim::run_pbft_single_tx(nodes, options);
      bench::append_json_record("fig6.pbft", pbft, options.seed);
      pbft_kb = pbft.consensus_kb;
    }
    const sim::ExperimentResult gpbft = sim::run_gpbft_single_tx(nodes, options);
    bench::append_json_record("fig6.gpbft", gpbft, options.seed);
    const double gpbft_kb = gpbft.consensus_kb;
    if (pbft_kb >= 0) {
      std::printf("%6zu %14.2f %14.2f %7.2f%%\n", nodes, pbft_kb, gpbft_kb,
                  100.0 * gpbft_kb / pbft_kb);
    } else {
      std::printf("%6zu %14s %14.2f %8s\n", nodes, "-", gpbft_kb, "-");
    }
    std::fflush(stdout);
  }
  return 0;
}
