// Fig. 3a of the paper: PBFT consensus latency vs number of nodes.
//
// Every node proposes transactions at a constant frequency; each point is a
// boxplot over GPBFT_BENCH_RUNS seeded runs. Expected shape: latency grows
// superlinearly ("at an exponential speed") with growing variance, because
// the all-node committee saturates each replica's processing rate.
#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  const std::size_t runs = bench::runs_per_point();
  sim::ScenarioSpec options = sim::default_options();

  std::printf("Fig. 3a: PBFT consensus latency, %zu runs per point\n", runs);
  bench::print_boxplot_header("(boxplot of per-transaction latency, seconds)");
  for (const std::size_t nodes : bench::node_grid()) {
    const sim::ExperimentResult result =
        sim::repeat_runs(sim::run_pbft_latency, nodes, options, runs);
    bench::print_boxplot_row(result);
    bench::append_json_record("fig3a.pbft", result, options.seed);
    std::fflush(stdout);
  }
  return 0;
}
