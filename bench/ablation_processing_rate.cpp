// Ablation A4 (DESIGN.md): sensitivity to the node processing rate s.
//
// §IV-B models consensus time as O(n/s). At fixed n = 40 and light load
// (no queueing), doubling s should roughly halve the mean latency; this
// bench validates that the simulator's node model follows the paper's
// analysis (and therefore that the calibration knob behaves predictably).
#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  constexpr std::size_t kNodes = 40;

  std::printf("Ablation A4: processing rate s at n = %zu (light load)\n", kNodes);
  std::printf("%10s %14s %16s\n", "s(msg/s)", "mean lat(s)", "lat x s (~const)");
  for (const double rate : {40.0, 80.0, 160.0, 320.0, 640.0}) {
    sim::ScenarioSpec options = sim::default_options();
    options.net.processing_rate_msgs_per_sec = rate;
    options.workload.txs_per_client = 1;  // no backlog: pure O(n/s) regime
    options.workload.period = Duration::seconds(5);
    const sim::ExperimentResult result = sim::run_pbft_latency(kNodes, options);
    std::printf("%10.0f %14.3f %16.1f\n", rate, result.latency.mean,
                result.latency.mean * rate);
    std::fflush(stdout);
  }
  std::printf("(constant product confirms the O(n/s) phase-switch model of SIV-B)\n");
  return 0;
}
