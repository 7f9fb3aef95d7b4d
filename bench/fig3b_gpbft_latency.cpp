// Fig. 3b of the paper: G-PBFT consensus latency vs number of nodes.
//
// Same workload as Fig. 3a. Expected shape: latency tracks PBFT up to the
// maximum committee size (40), then flattens — no more endorsers join, so
// the consensus cost stops growing. Era switches during the runs produce
// occasional latency outliers (the paper's circles, ~0.25 s switch period).
#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  const std::size_t runs = bench::runs_per_point();
  sim::ScenarioSpec options = sim::default_options();

  std::printf("Fig. 3b: G-PBFT consensus latency, %zu runs per point (max committee %zu)\n",
              runs, options.committee.max);
  bench::print_boxplot_header("(boxplot of per-transaction latency, seconds)");
  std::uint64_t switches = 0;
  for (const std::size_t nodes : bench::node_grid()) {
    const sim::ExperimentResult result =
        sim::repeat_runs(sim::run_gpbft_latency, nodes, options, runs);
    bench::print_boxplot_row(result);
    bench::append_json_record("fig3b.gpbft", result, options.seed);
    switches += result.era_switches;
    std::fflush(stdout);
  }
  std::printf("(era switches observed across all runs: %llu)\n",
              static_cast<unsigned long long>(switches));
  return 0;
}
