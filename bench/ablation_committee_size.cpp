// Ablation A2 (DESIGN.md): the maximum committee size.
//
// The paper fixes max = 40 without exploring alternatives. At a fixed
// network of 100 nodes, sweep the cap: latency and per-transaction bytes
// grow with the committee, fault tolerance (f = (c-1)/3) grows too — the
// knob trades performance against resilience.
#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  constexpr std::size_t kNodes = 100;

  std::printf("Ablation A2: committee size cap at %zu nodes\n", kNodes);
  std::printf("%6s %6s %14s %14s %4s\n", "max", "cmte", "mean lat(s)", "KB/tx", "f");
  for (const std::size_t cap : {4u, 10u, 20u, 40u, 70u}) {
    sim::ScenarioSpec options = sim::default_options();
    options.workload.txs_per_client = 6;
    options.committee.max = cap;
    options.committee.min = std::min<std::size_t>(4, cap);

    const sim::ExperimentResult latency = sim::run_gpbft_latency(kNodes, options);
    const sim::ExperimentResult cost = sim::run_gpbft_single_tx(kNodes, options);
    std::printf("%6zu %6zu %14.3f %14.2f %4zu\n", cap, latency.committee, latency.latency.mean,
                cost.consensus_kb, (latency.committee - 1) / 3);
    std::fflush(stdout);
  }
  return 0;
}
