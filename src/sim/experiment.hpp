// Experiment runners for the paper's evaluation section.
//
// Each runner builds a fresh, seeded deployment from a declarative
// ScenarioSpec (see scenario.hpp / deployment.hpp), drives the paper's
// workload and returns the measured quantities:
//
//   * latency experiments (Figs. 3a/3b/4, Tables III-IV): every node
//     proposes transactions at a constant frequency; per-transaction
//     consensus latency = submission to (f+1)-th matching reply (PoW:
//     submission to confirmation depth);
//   * communication-cost experiments (Figs. 5a/5b/6, Table III): a single
//     transaction is proposed and the bytes on the wire are accounted,
//     split into consensus traffic (REQUEST + three phases + REPLY) and
//     total (including geo reports and era control).
//
// Calibration is centralised in default_options() — see DESIGN.md §4.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {

/// Experiment calibration, decomposed into the same spec pieces a
/// ScenarioSpec carries. latency_scenario() translates options into the
/// spec the deployment factory consumes.
struct ExperimentOptions {
  std::uint64_t seed{1};

  /// Workload (§V-B: constant-frequency proposals per node). Measurement
  /// runs keep client_retries off — loss-free testbed semantics.
  WorkloadSpec workload;

  /// PBFT engine shared by the PBFT / G-PBFT / dBFT deployments.
  EngineSpec engine;

  /// Consensus batching (batch.size=1 keeps the unbatched seed behaviour).
  BatchSpec batch;

  /// Network model (the paper's s = processing_rate, §IV-B).
  net::NetConfig net;

  /// G-PBFT committee bounds (§V-A: min 4, max 40) and era cadence.
  CommitteeSpec committee;

  /// Geographic-promotion machinery, scaled into simulation range.
  GeoSpec geo;

  // Simulation guard rail.
  Duration hard_deadline = Duration::seconds(4000);

  // Baseline protocols (Table IV rows).
  DbftSpec dbft;
  PowSpec pow;
};

/// Calibrated defaults shared by every bench (single source of truth).
[[nodiscard]] ExperimentOptions default_options();

/// Per-phase consensus time, read back from the telemetry registry's
/// pbft.phase.* histograms (summed seconds over all executed blocks on all
/// replicas, so means weight every block equally when runs are merged).
struct PhaseBreakdown {
  double prepare_s{0};   // pre-prepare accepted -> prepared
  double commit_s{0};    // prepared -> committed
  double execute_s{0};   // committed -> executed
  std::uint64_t blocks{0};  // block executions observed (all replicas)

  [[nodiscard]] double prepare_mean() const {
    return blocks == 0 ? 0.0 : prepare_s / static_cast<double>(blocks);
  }
  [[nodiscard]] double commit_mean() const {
    return blocks == 0 ? 0.0 : commit_s / static_cast<double>(blocks);
  }
  [[nodiscard]] double execute_mean() const {
    return blocks == 0 ? 0.0 : execute_s / static_cast<double>(blocks);
  }
};

struct ExperimentResult {
  std::size_t nodes{0};
  std::size_t committee{0};
  BoxplotStats latency;              // seconds, over latency_samples
  std::vector<double> latency_samples;  // per-transaction latencies (s)
  std::uint64_t committed{0};
  std::uint64_t expected{0};
  double consensus_kb{0};            // REQUEST + 3 phases + REPLY bytes
  double total_kb{0};                // everything on the wire
  double sim_seconds{0};             // simulated time consumed
  std::uint64_t era_switches{0};     // G-PBFT only
  double hashes_computed{0};         // PoW only: total network hash work
  PhaseBreakdown phases;             // PBFT-engine protocols; empty for PoW
};

/// Consensus-traffic bytes from network stats (KB).
[[nodiscard]] double consensus_kilobytes(const net::NetStats& stats);

/// Commits a run on `deployment` should reach: what the open-loop plane
/// actually submitted in Plane mode, the per-client quota of its spec
/// otherwise.
[[nodiscard]] std::uint64_t expected_commits(const Deployment& deployment);

/// Collects the measured quantities of a finished run: committee, latency
/// distribution, commits against expected_commits(), wire bytes, simulated
/// time so far, era switches, hash work and the per-phase breakdown. The one
/// collector behind every runner, bench and the CLI.
[[nodiscard]] ExperimentResult finish_result(Deployment& deployment,
                                             const LatencyRecorder& recorder);

/// The ScenarioSpec a latency experiment deploys: `nodes` protocol nodes,
/// one proposing client per node, calibrated engine/net/committee pieces.
/// (G-PBFT seeds the genesis roster at min(nodes, committee.max): the
/// paper's Fig. 3b steady state, with era switches still running.)
[[nodiscard]] ScenarioSpec latency_scenario(ProtocolKind protocol, std::size_t nodes,
                                            const ExperimentOptions& options);

// --- latency (Figs. 3a, 3b, 4; Tables III-IV) ---------------------------------------

/// Runs the constant-frequency workload against the protocol's deployment
/// and measures per-transaction consensus latency.
[[nodiscard]] ExperimentResult run_latency(ProtocolKind protocol, std::size_t nodes,
                                           const ExperimentOptions& options);

[[nodiscard]] ExperimentResult run_pbft_latency(std::size_t nodes,
                                                const ExperimentOptions& options);
[[nodiscard]] ExperimentResult run_gpbft_latency(std::size_t nodes,
                                                 const ExperimentOptions& options);
/// dBFT: min(nodes, dbft.delegates) genesis delegates, NEO-style pacing.
[[nodiscard]] ExperimentResult run_dbft_latency(std::size_t nodes,
                                                const ExperimentOptions& options);
/// PoW: a transaction counts once it reaches pow.confirmations depth on any
/// miner's best chain. hashes_computed reports total mining work.
[[nodiscard]] ExperimentResult run_pow_latency(std::size_t nodes,
                                               const ExperimentOptions& options);

// --- communication cost (Figs. 5a, 5b, 6; Table III) -------------------------------

[[nodiscard]] ExperimentResult run_pbft_single_tx(std::size_t nodes,
                                                  const ExperimentOptions& options);
[[nodiscard]] ExperimentResult run_gpbft_single_tx(std::size_t nodes,
                                                   const ExperimentOptions& options);

/// Repeats a runner over `runs` seeds and merges all per-transaction
/// latency samples into one distribution (Fig. 3 draws boxplots over ten
/// runs per node count). Byte costs are averaged across runs.
template <typename Runner>
[[nodiscard]] ExperimentResult repeat_runs(Runner&& runner, std::size_t nodes,
                                           const ExperimentOptions& base_options,
                                           std::size_t runs) {
  ExperimentResult merged{};
  for (std::size_t r = 0; r < runs; ++r) {
    ExperimentOptions options = base_options;
    options.seed = base_options.seed * 7919 + r + 1;
    ExperimentResult result = runner(nodes, options);
    merged.nodes = result.nodes;
    merged.committee = result.committee;
    merged.latency_samples.insert(merged.latency_samples.end(), result.latency_samples.begin(),
                                  result.latency_samples.end());
    merged.committed += result.committed;
    merged.expected += result.expected;
    merged.era_switches += result.era_switches;
    merged.consensus_kb += result.consensus_kb;
    merged.total_kb += result.total_kb;
    merged.sim_seconds += result.sim_seconds;
    merged.hashes_computed += result.hashes_computed;
    merged.phases.prepare_s += result.phases.prepare_s;
    merged.phases.commit_s += result.phases.commit_s;
    merged.phases.execute_s += result.phases.execute_s;
    merged.phases.blocks += result.phases.blocks;
  }
  merged.consensus_kb /= static_cast<double>(runs);
  merged.total_kb /= static_cast<double>(runs);
  merged.latency = BoxplotStats::from_samples(merged.latency_samples);
  return merged;
}

}  // namespace gpbft::sim
