// Fig. 5 of the paper: communication cost of a single transaction.
//
//   5a) PBFT — cost keeps rising, and rises faster the larger the network
//       (quadratic message complexity, §IV-C).
//   5b) G-PBFT — cost reaches an upper boundary (~400 KB in the paper) once
//       the committee is capped, even past 100 nodes.
//
// Only one transaction is proposed per run; "consensus KB" counts REQUEST,
// PRE-PREPARE, PREPARE, COMMIT and REPLY bytes (geo reports and era control
// accounted separately under "total KB").
#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  sim::ScenarioSpec options = sim::default_options();

  std::printf("Fig. 5a: PBFT communication costs per transaction\n");
  std::printf("%6s %14s %14s\n", "nodes", "consensus(KB)", "total(KB)");
  for (const std::size_t nodes : bench::node_grid()) {
    const sim::ExperimentResult result = sim::run_pbft_single_tx(nodes, options);
    std::printf("%6zu %14.2f %14.2f\n", nodes, result.consensus_kb, result.total_kb);
    bench::append_json_record("fig5a.pbft", result, options.seed);
    std::fflush(stdout);
  }

  std::printf("\nFig. 5b: G-PBFT communication costs per transaction (max committee %zu)\n",
              options.committee.max);
  std::printf("%6s %6s %14s %14s\n", "nodes", "cmte", "consensus(KB)", "total(KB)");
  for (const std::size_t nodes : bench::node_grid()) {
    const sim::ExperimentResult result = sim::run_gpbft_single_tx(nodes, options);
    std::printf("%6zu %6zu %14.2f %14.2f\n", nodes, result.committee, result.consensus_kb,
                result.total_kb);
    bench::append_json_record("fig5b.gpbft", result, options.seed);
    std::fflush(stdout);
  }
  return 0;
}
