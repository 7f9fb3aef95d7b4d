// Ablation A5 (DESIGN.md): consensus batch size.
//
// The paper does not state its batching. Since the batched request pipeline
// landed (docs/protocol.md §11), the swept knob is the *batch close size*:
// how many client requests the primary accumulates before running one
// three-phase instance over them (batch.size=1 is the unbatched seed
// behaviour). The engine's per-block ceiling is swept in lockstep with the
// close size, so each point's blocks are exactly close-sized under
// saturation — otherwise the engine would pack fat blocks from the backlog
// regardless of the knob and flatten the curve. Under the saturating
// workload the close size then sets the service rate: tiny batches drown in
// per-instance quorum overhead, huge ones add little once the backlog
// clears between proposals.
// Committed-requests/sec is the headline column; BENCH_scale.json tracks
// the batched points' trajectory.
//
// Environment: GPBFT_BENCH_JSON appends one "ablation.batch_size" record
// per point; GPBFT_BENCH_QUICK shrinks the cluster for CI smoke runs.
#include <algorithm>

#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  const std::size_t nodes = bench::quick_mode() ? 40 : 130;

  std::printf("Ablation A5: consensus batch close size at %zu PBFT nodes (saturating workload)\n",
              nodes);
  std::printf("%8s %14s %14s %12s %14s\n", "batch", "mean lat(s)", "p95 lat(s)", "sim time(s)",
              "committed/s");
  for (const std::size_t batch : {1u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    sim::ScenarioSpec options = sim::default_options();
    options.batch.size = batch;
    // The ceiling moves with the close size: blocks are exactly the batch
    // the close policy formed (see header comment).
    options.engine.batch_size = batch;
    options.workload.txs_per_client = 6;
    const sim::ExperimentResult result = sim::run_pbft_latency(nodes, options);
    // p95 from the merged samples.
    std::vector<double> sorted = result.latency_samples;
    std::sort(sorted.begin(), sorted.end());
    const double p95 =
        sorted.empty() ? 0.0 : sorted[static_cast<std::size_t>(0.95 * (sorted.size() - 1))];
    const double committed_per_sec =
        result.sim_seconds <= 0 ? 0.0
                                : static_cast<double>(result.committed) / result.sim_seconds;
    std::printf("%8zu %14.3f %14.3f %12.1f %14.3f\n", batch, result.latency.mean, p95,
                result.sim_seconds, committed_per_sec);
    std::fflush(stdout);
    bench::append_json_record("ablation.batch_size", result, options.seed);
  }
  return 0;
}
