#include "sim/experiment.hpp"

#include <algorithm>

#include "pbft/messages.hpp"
#include "sim/workload_plane.hpp"

namespace gpbft::sim {

ExperimentOptions default_options() {
  ExperimentOptions options;
  // Loss-free measurement runs: retransmission off so REQUEST traffic
  // matches the paper's testbed (retries are for faulty networks).
  options.workload.client_retries = false;
  options.engine.batch_size = 32;
  // Large sweeps skip recomputing HMAC tags (bytes unchanged); see
  // pbft::PbftConfig::compute_macs.
  options.engine.compute_macs = false;
  // Under the saturating workload of the latency experiments, requests can
  // legitimately queue for hundreds of simulated seconds (that queueing is
  // the measurement); the timeout must not fire view changes meanwhile.
  options.engine.request_timeout = options.hard_deadline;
  options.committee.era_period = Duration::seconds(30);
  // Promotion machinery parameters: reports every 10 s, Algorithm 1 window
  // of one era period, at least 2 reports; the 72 h stationarity rule is
  // scaled into simulation range so candidate promotion is observable.
  options.geo.window = options.committee.era_period;
  options.geo.min_reports = 2;
  options.geo.promotion_threshold = Duration::seconds(20);
  return options;
}

double consensus_kilobytes(const net::NetStats& stats) {
  std::uint64_t bytes = 0;
  for (const auto type :
       {pbft::msg_type::kClientRequest, pbft::msg_type::kPrePrepare, pbft::msg_type::kPrepare,
        pbft::msg_type::kCommit, pbft::msg_type::kReply}) {
    const auto it = stats.bytes_by_type.find(type);
    if (it != stats.bytes_by_type.end()) bytes += it->second;
  }
  return static_cast<double>(bytes) / 1024.0;
}

namespace {

ScenarioSpec scenario_for(ProtocolKind protocol, std::size_t nodes, std::size_t clients,
                          const ExperimentOptions& options) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.seed = options.seed;
  spec.nodes = nodes;
  spec.clients = clients;
  spec.deadline = options.hard_deadline;
  spec.workload = options.workload;
  spec.engine = options.engine;
  spec.batch = options.batch;
  spec.net = options.net;
  spec.committee = options.committee;
  spec.geo = options.geo;
  spec.dbft = options.dbft;
  spec.pow = options.pow;
  if (protocol == ProtocolKind::Gpbft) {
    // Steady state of the paper's Fig. 3b: all eligible nodes join until
    // the maximum; the genesis roster holds them directly so the
    // measurement is of the steady committee (era switches still run).
    spec.committee.initial = std::min(nodes, options.committee.max);
  }
  return spec;
}

/// Reads the per-phase histograms the replicas populated back out of the
/// deployment's registry (sums in seconds; zero family -> empty breakdown).
PhaseBreakdown phase_breakdown(Deployment& deployment) {
  PhaseBreakdown phases;
  const obs::Registry& reg = deployment.telemetry().metrics();
  const obs::Histogram prepare = reg.histogram_total("pbft.phase.prepare_seconds");
  const obs::Histogram commit = reg.histogram_total("pbft.phase.commit_seconds");
  const obs::Histogram execute = reg.histogram_total("pbft.phase.execute_seconds");
  phases.prepare_s = prepare.sum;
  phases.commit_s = commit.sum;
  phases.execute_s = execute.sum;
  phases.blocks = execute.count;
  return phases;
}

}  // namespace

std::uint64_t expected_commits(const Deployment& deployment) {
  const ScenarioSpec& spec = deployment.spec();
  return deployment.plane() != nullptr ? deployment.plane()->submitted()
                                       : spec.workload.txs_per_client * spec.clients;
}

ExperimentResult finish_result(Deployment& deployment, const LatencyRecorder& recorder) {
  ExperimentResult result;
  result.nodes = deployment.spec().nodes;
  result.committee = deployment.committee_size();
  result.latency_samples = recorder.samples();
  result.latency = recorder.boxplot();
  result.committed = deployment.committed_count();
  result.expected = expected_commits(deployment);
  result.consensus_kb = consensus_kilobytes(deployment.stats());
  result.total_kb = deployment.stats().total_kilobytes();
  result.sim_seconds = deployment.simulator().now().to_seconds();
  result.era_switches = deployment.era_switches();
  result.hashes_computed = deployment.hashes_computed();
  result.phases = phase_breakdown(deployment);
  return result;
}

ScenarioSpec latency_scenario(ProtocolKind protocol, std::size_t nodes,
                              const ExperimentOptions& options) {
  // One proposing device per node (§V-B).
  return scenario_for(protocol, nodes, nodes, options);
}

// --- latency experiments ------------------------------------------------------------

ExperimentResult run_latency(ProtocolKind protocol, std::size_t nodes,
                             const ExperimentOptions& options) {
  const ScenarioSpec spec = latency_scenario(protocol, nodes, options);
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->start();

  LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
  deployment->stop();
  deployment->finalize_telemetry();
  return finish_result(*deployment, recorder);
}

ExperimentResult run_pbft_latency(std::size_t nodes, const ExperimentOptions& options) {
  return run_latency(ProtocolKind::Pbft, nodes, options);
}

ExperimentResult run_gpbft_latency(std::size_t nodes, const ExperimentOptions& options) {
  return run_latency(ProtocolKind::Gpbft, nodes, options);
}

ExperimentResult run_dbft_latency(std::size_t nodes, const ExperimentOptions& options) {
  return run_latency(ProtocolKind::Dbft, nodes, options);
}

ExperimentResult run_pow_latency(std::size_t nodes, const ExperimentOptions& options) {
  return run_latency(ProtocolKind::Pow, nodes, options);
}

// --- communication-cost experiments ---------------------------------------------------

namespace {

/// One client proposing exactly one transaction.
ExperimentResult run_single_tx(ProtocolKind protocol, std::size_t nodes,
                               const ExperimentOptions& options) {
  ScenarioSpec spec = scenario_for(protocol, nodes, 1, options);
  spec.workload.txs_per_client = 1;
  const std::unique_ptr<Deployment> cluster = make_deployment(spec);
  cluster->start();
  cluster->run_for(Duration::millis(100));  // settle attachments
  cluster->network().reset_stats();

  LatencyRecorder recorder;
  cluster->client(0).set_retry_interval(Duration{0});
  cluster->client(0).set_commit_callback(
      [&recorder](const crypto::Hash256&, Height, Duration latency) {
        recorder.record(latency);
      });
  const ledger::Transaction tx = make_workload_tx(
      cluster->client(0).id(), 1, cluster->placement().position(0),
      cluster->simulator().now(), 32, 10, spec.seed);
  cluster->client(0).submit(tx);

  cluster->run_until_committed(1, TimePoint{spec.deadline.ns});
  cluster->stop();
  cluster->finalize_telemetry();
  return finish_result(*cluster, recorder);
}

}  // namespace

ExperimentResult run_pbft_single_tx(std::size_t nodes, const ExperimentOptions& options) {
  return run_single_tx(ProtocolKind::Pbft, nodes, options);
}

ExperimentResult run_gpbft_single_tx(std::size_t nodes, const ExperimentOptions& options) {
  return run_single_tx(ProtocolKind::Gpbft, nodes, options);
}

}  // namespace gpbft::sim
