// Fig. 4 of the paper: average consensus latency, PBFT vs G-PBFT, with the
// node count increased beyond the Fig. 3 range. The PBFT series stops at
// 202 nodes (the paper: "PBFT network cannot work at all when the number of
// nodes is larger than 202"); G-PBFT stays flat through the extended range.
#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  sim::ScenarioSpec options = sim::default_options();

  std::printf("Fig. 4: average consensus latency comparison (seconds)\n");
  std::printf("%6s %12s %12s %8s\n", "nodes", "PBFT(s)", "G-PBFT(s)", "ratio");
  for (const std::size_t nodes : bench::extended_grid()) {
    double pbft_mean = -1.0;
    if (nodes <= 202) {
      const sim::ExperimentResult pbft = sim::run_pbft_latency(nodes, options);
      bench::append_json_record("fig4.pbft", pbft, options.seed);
      pbft_mean = pbft.latency.mean;
    }
    const sim::ExperimentResult gpbft = sim::run_gpbft_latency(nodes, options);
    bench::append_json_record("fig4.gpbft", gpbft, options.seed);
    const double gpbft_mean = gpbft.latency.mean;
    if (pbft_mean >= 0) {
      std::printf("%6zu %12.3f %12.3f %7.2f%%\n", nodes, pbft_mean, gpbft_mean,
                  100.0 * gpbft_mean / pbft_mean);
    } else {
      std::printf("%6zu %12s %12.3f %8s\n", nodes, "-", gpbft_mean, "-");
    }
    std::fflush(stdout);
  }
  return 0;
}
