// Message-plane parity goldens (label: tier1-perf).
//
// The hot-path rewrite (shared payloads, single-hop delivery, cached stats
// handles — see docs/performance.md) must not change observable behaviour.
// These tests pin that promise for fixed seeds as SHA-256 digests over the
// full observable surface of a seeded run:
//
//   * the chain tip hash (consensus outcome),
//   * the metrics JSONL snapshot (every counter/gauge/histogram, including
//     the net.* accounting the rewrite touches),
//   * the Perfetto trace export (event-by-event causal order).
//
// The digests are the `parity/` entries of tests/goldens.sha256, recorded
// from the pre-refactor message plane. If a net/sim change breaks one of
// them, it changed behaviour: fix the change, don't re-pin, unless the
// behaviour change is itself the point (EXPERIMENTS.md, "Goldens").
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "crypto/sha256.hpp"
#include "golden_runs.hpp"
#include "goldens.hpp"
#include "sim/deployment.hpp"

namespace gpbft::sim {
namespace {

struct RunDigests {
  std::string tip;
  std::string metrics_sha256;
  std::string trace_sha256;
  std::uint64_t committed{0};
};

/// Runs one seeded deployment with tracing on and digests the exports.
RunDigests run_and_digest(const ScenarioSpec& spec, Duration horizon) {
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->telemetry().set_trace_enabled(true);
  deployment->start();
  LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  if (horizon.ns > 0) {
    deployment->run_for(horizon);
  } else {
    deployment->run_until_committed(spec.workload.txs_per_client,
                                    TimePoint{Duration::seconds(300).ns});
  }
  deployment->stop();
  deployment->finalize_telemetry();

  RunDigests digests;
  digests.committed = deployment->committed_count();
  digests.tip = deployment->tip_hex();
  digests.metrics_sha256 = crypto::sha256(deployment->telemetry().metrics().to_jsonl()).hex();
  digests.trace_sha256 =
      crypto::sha256(deployment->telemetry().trace().to_perfetto_json()).hex();
  EXPECT_EQ(deployment->telemetry().trace().dropped(), 0u)
      << "trace overflowed its capacity; digests would under-cover the run";
  return digests;
}

TEST(PerfParity, PbftMetricsAndTraceAreBitIdentical) {
  const RunDigests digests = run_and_digest(pbft_golden_spec(), Duration{});
  EXPECT_EQ(digests.committed, 8u);
  EXPECT_EQ(digests.tip, goldens::pinned("parity/pbft.tip"));
  EXPECT_EQ(digests.metrics_sha256, goldens::pinned("parity/pbft.metrics"));
  EXPECT_EQ(digests.trace_sha256, goldens::pinned("parity/pbft.trace"));
}

TEST(PerfParity, GpbftMetricsAndTraceAreBitIdentical) {
  const RunDigests digests = run_and_digest(gpbft_golden_spec(), Duration::seconds(60));
  EXPECT_EQ(digests.committed, 8u);
  EXPECT_EQ(digests.tip, goldens::pinned("parity/gpbft.tip"));
  EXPECT_EQ(digests.metrics_sha256, goldens::pinned("parity/gpbft.metrics"));
  EXPECT_EQ(digests.trace_sha256, goldens::pinned("parity/gpbft.trace"));
}

// A fault-heavy run: drops, a crash/recover window and a brownout exercise
// exactly the delivery-time branches the rewrite restructures (receiver
// down at arrival vs at processing-done, serial-queue folding across a
// rate override). Pinned separately because the clean goldens above never
// reach those branches.
TEST(PerfParity, FaultyNetworkRunIsBitIdentical) {
  ScenarioSpec spec = pbft_golden_spec();
  spec.seed = 1337;
  spec.net.drop_rate = 0.02;

  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->telemetry().set_trace_enabled(true);
  deployment->start();
  LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  deployment->simulator().schedule(Duration::seconds(3), [&deployment]() {
    deployment->network().crash(NodeId{4});
    deployment->network().set_processing_rate(NodeId{3}, 40.0);
  });
  deployment->simulator().schedule(Duration::seconds(9), [&deployment]() {
    deployment->network().recover(NodeId{4});
    deployment->network().set_processing_rate(NodeId{3}, 0.0);  // restore default
  });
  deployment->run_for(Duration::seconds(40));
  deployment->stop();
  deployment->finalize_telemetry();

  const std::string metrics_sha =
      crypto::sha256(deployment->telemetry().metrics().to_jsonl()).hex();
  const std::string trace_sha =
      crypto::sha256(deployment->telemetry().trace().to_perfetto_json()).hex();
  EXPECT_EQ(deployment->tip_hex(), goldens::pinned("parity/pbft-faulty.tip"));
  // The tip and trace digests match the pre-refactor run exactly. The
  // metrics digest was re-recorded once, deliberately, in the same PR that
  // rewrote the hot path: delivery-time drops (receiver crashed/detached
  // between send and processing) used to bump NetStats::dropped_messages
  // but not the `net.msgs_dropped` counter, so the old snapshot undercounts
  // drops. The counter is now written from NetStats at export, and
  // Network.PublishedMetricsEqualTheCounts pins every drop point.
  EXPECT_EQ(metrics_sha, goldens::pinned("parity/pbft-faulty.metrics"));
  EXPECT_EQ(trace_sha, goldens::pinned("parity/pbft-faulty.trace"));
}

}  // namespace
}  // namespace gpbft::sim
