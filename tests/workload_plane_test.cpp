// WorkloadPlane: the open-loop million-device workload multiplexer
// (label: tier1-batch).
//
// Covers the plane's three contracts (docs/protocol.md §11):
//   * the arrival-rate profiles (constant / poisson / burst / diurnal) are
//     pure functions of simulated time — checked analytically;
//   * a 10^6-device plane over O(1) concrete endpoints is deterministic
//     and open-loop complete (every submission commits);
//   * Deployment::stop() quiesces pending workload events for both the
//     plane and the per-client drivers (the liveness-token regression).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "net/simulator.hpp"
#include "obs/telemetry.hpp"
#include "sim/deployment.hpp"
#include "sim/scenario.hpp"
#include "sim/workload_plane.hpp"

namespace gpbft::sim {
namespace {

WorkloadSpec plane_spec(ArrivalProcess arrival) {
  WorkloadSpec spec;
  spec.mode = WorkloadMode::Plane;
  spec.arrival = arrival;
  spec.devices = 1000;
  spec.rate_hz = 0.01;  // per-device; aggregate peak = 10 req/s
  spec.start = TimePoint{Duration::seconds(2).ns};
  spec.horizon = Duration::seconds(20);
  spec.burst_on = Duration::seconds(1);
  spec.burst_off = Duration::seconds(4);
  spec.diurnal_period = Duration::seconds(10);
  spec.diurnal_trough = 0.2;
  return spec;
}

TimePoint at_seconds(double s) {
  return TimePoint{static_cast<std::int64_t>(s * 1e9)};
}

TEST(WorkloadPlane, RateProfilesArePureFunctionsOfTime) {
  net::Simulator sim(1);
  // Profile checks never start the plane, so no endpoints are needed.
  {
    WorkloadPlane plane(sim, plane_spec(ArrivalProcess::Poisson), {}, {},
                        obs::Telemetry::noop());
    EXPECT_DOUBLE_EQ(plane.peak_rate(), 10.0);
    EXPECT_DOUBLE_EQ(plane.rate_at(at_seconds(1.9)), 0.0);   // before start
    EXPECT_DOUBLE_EQ(plane.rate_at(at_seconds(5.0)), 10.0);  // inside window
    EXPECT_DOUBLE_EQ(plane.rate_at(at_seconds(22.0)), 0.0);  // past horizon
  }
  {
    WorkloadPlane plane(sim, plane_spec(ArrivalProcess::Burst), {}, {},
                        obs::Telemetry::noop());
    EXPECT_DOUBLE_EQ(plane.rate_at(at_seconds(2.5)), 10.0);  // 0.5 s in: on-window
    EXPECT_DOUBLE_EQ(plane.rate_at(at_seconds(4.0)), 0.0);   // 2 s in: off-window
    EXPECT_DOUBLE_EQ(plane.rate_at(at_seconds(7.5)), 10.0);  // next cycle's on-window
  }
  {
    WorkloadPlane plane(sim, plane_spec(ArrivalProcess::Diurnal), {}, {},
                        obs::Telemetry::noop());
    // Raised cosine: trough at phase 0, peak at phase 1/2.
    EXPECT_NEAR(plane.rate_at(at_seconds(2.0)), 10.0 * 0.2, 1e-9);
    EXPECT_NEAR(plane.rate_at(at_seconds(7.0)), 10.0, 1e-9);
    // Quarter period sits halfway up the ramp.
    EXPECT_NEAR(plane.rate_at(at_seconds(4.5)), 10.0 * (0.2 + 0.8 * 0.5), 1e-9);
  }
}

struct PlaneRun {
  std::string tip;
  std::uint64_t committed{0};
  std::uint64_t submitted{0};
  std::uint64_t thinned{0};
  bool generation_done{false};
};

ScenarioSpec plane_deployment_spec(ArrivalProcess arrival) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 4;
  spec.clients = 2;
  spec.seed = 33;
  spec.batch.size = 8;
  spec.workload = plane_spec(arrival);
  spec.workload.client_retries = false;
  return spec;
}

PlaneRun run_plane(const ScenarioSpec& spec) {
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr);
  deployment->run_until_committed(0, TimePoint{Duration::seconds(300).ns});
  PlaneRun run;
  const WorkloadPlane* plane = deployment->plane();
  run.submitted = plane->submitted();
  run.thinned = deployment->telemetry().metrics().counter_total("plane.thinned");
  run.generation_done = plane->generation_done();
  run.committed = deployment->committed_count();
  deployment->stop();
  run.tip = deployment->tip_hex();
  return run;
}

TEST(WorkloadPlane, MillionDevicePlaneIsDeterministicAndOpenLoopComplete) {
  ScenarioSpec spec = plane_deployment_spec(ArrivalProcess::Poisson);
  spec.workload.devices = 1'000'000;
  spec.workload.rate_hz = 2e-5;  // aggregate peak 20 req/s over 2 concrete endpoints
  spec.workload.horizon = Duration::seconds(10);

  const PlaneRun first = run_plane(spec);
  const PlaneRun second = run_plane(spec);

  EXPECT_GT(first.submitted, 0u);
  EXPECT_TRUE(first.generation_done);
  // Open-loop completeness: every virtual-device submission committed.
  EXPECT_EQ(first.committed, first.submitted);
  // Determinism: a re-run from the same seed is byte-identical.
  EXPECT_EQ(first.tip, second.tip);
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_EQ(first.committed, second.committed);
}

TEST(WorkloadPlane, BurstThinningSuppressesOffWindowArrivals) {
  // Burst 1 s on / 4 s off: only ~20% of candidate arrivals fall in an
  // on-window, so thinning must discard the bulk of the candidate stream.
  const ScenarioSpec spec = plane_deployment_spec(ArrivalProcess::Burst);
  const PlaneRun run = run_plane(spec);
  EXPECT_GT(run.submitted, 0u);
  EXPECT_GT(run.thinned, run.submitted);
  EXPECT_EQ(run.committed, run.submitted);
}

TEST(WorkloadPlane, StopQuiescesPlaneArrivals) {
  const ScenarioSpec spec = plane_deployment_spec(ArrivalProcess::Poisson);
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr);
  deployment->run_for(Duration::seconds(8));  // mid-generation
  const std::uint64_t submitted_before = deployment->plane()->submitted();
  EXPECT_GT(submitted_before, 0u);
  EXPECT_FALSE(deployment->plane()->generation_done());

  deployment->stop();
  deployment->simulator().run();  // drain: pending arrivals must no-op

  EXPECT_EQ(deployment->plane()->submitted(), submitted_before);
}

TEST(WorkloadPlane, StopQuiescesPerClientDrivers) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 4;
  spec.clients = 2;
  spec.seed = 9;
  spec.workload.txs_per_client = 10;
  spec.workload.period = Duration::seconds(1);
  spec.workload.start = TimePoint{Duration::seconds(1).ns};

  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->start();
  std::uint64_t submissions = 0;
  deployment->schedule_workload(spec.workload, nullptr,
                                [&submissions](const ledger::Transaction&) { ++submissions; });
  deployment->run_for(Duration::seconds(4));  // a few periods in, far from done
  const std::uint64_t submitted_before = submissions;
  EXPECT_GT(submitted_before, 0u);
  EXPECT_LT(submitted_before, 20u);

  deployment->stop();
  deployment->simulator().run();  // drain: queued driver steps must no-op

  EXPECT_EQ(submissions, submitted_before);
}

}  // namespace
}  // namespace gpbft::sim
