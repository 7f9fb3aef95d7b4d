// The two seeded golden runs several suites pin. Their digests are the
// `parity/pbft.*` and `parity/gpbft.*` entries of tests/goldens.sha256.
//
// perf_parity_test digests each run's full exports (tip, metrics, trace);
// scenario_test replays them at their defaults and checks the tips plus
// heights, era switches and committee size; batch_pipeline_test replays them
// at batch.size=1 with tracing off and checks the same tips. If a change
// moves a tip, it changed behaviour: fix the change, don't re-pin, unless
// the behaviour change is itself the point (EXPERIMENTS.md, "Goldens").
#pragma once

#include "sim/scenario.hpp"

namespace gpbft::sim {

/// Five PBFT replicas, two clients, four transactions each: eight blocks.
inline ScenarioSpec pbft_golden_spec() {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 5;
  spec.clients = 2;
  spec.seed = 42;
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 4;
  // Explicit, not left to the EngineSpec default: these goldens are the
  // byte-level pin on the MACs-on seal/open path.
  spec.engine.compute_macs = true;
  return spec;
}

/// Four genesis endorsers and two candidates; run for 60 s it covers an era
/// switch, both candidates' promotion and the roster fan-out path.
inline ScenarioSpec gpbft_golden_spec() {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Gpbft;
  spec.nodes = 6;
  spec.clients = 2;
  spec.seed = 7;
  spec.committee.initial = 4;
  spec.committee.min = 4;
  spec.committee.max = 6;
  spec.committee.era_period = Duration::seconds(15);
  spec.geo.report_period = Duration::seconds(3);
  spec.geo.window = Duration::seconds(12);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 4;
  spec.engine.compute_macs = true;  // see pbft_golden_spec()
  return spec;
}

}  // namespace gpbft::sim
