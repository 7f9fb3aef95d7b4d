// Wall-clock profiler tests (ctest label tier1-profile).
//
// Units: site registration dedup, hierarchical accounting (inclusive vs
// exclusive, per-parent tree nodes), disabled probes record nothing, export
// formats (JSON call tree, collapsed stacks, hotspot table), clear().
//
// Guard: the profiler must be invisible to the deterministic simulation —
// a profiled PBFT run's chain tip, metrics JSONL and Perfetto trace are
// byte-identical to an unprofiled same-seed run. This is the contract that
// lets `gpbft_cli profile` run against golden-hash workloads.
//
// The critical-path analyzer is covered here too: a hand-built trace with
// known phase spans must resolve to the exact per-phase attribution.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace gpbft {
namespace {

/// The profiler is a process-global singleton; every test starts from a
/// clean slate and leaves the profiler disabled for its neighbours.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::instance().set_enabled(false);
    obs::Profiler::instance().clear();
  }
  void TearDown() override {
    obs::Profiler::instance().set_enabled(false);
    obs::Profiler::instance().clear();
  }
};

TEST_F(ProfilerTest, SiteRegistrationDeduplicatesByName) {
  obs::Profiler& prof = obs::Profiler::instance();
  const auto a = prof.register_site("test.dedup.a");
  const auto b = prof.register_site("test.dedup.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(prof.register_site("test.dedup.a"), a);
  EXPECT_EQ(prof.site_name(a), "test.dedup.a");
}

TEST_F(ProfilerTest, DisabledProbesRecordNothing) {
  obs::Profiler& prof = obs::Profiler::instance();
  ASSERT_FALSE(prof.enabled());
  {
    GPBFT_PROFILE_SCOPE("test.disabled");
  }
  EXPECT_TRUE(prof.empty());
  EXPECT_EQ(prof.total_wall_ns(), 0u);
}

TEST_F(ProfilerTest, NestedProbesBuildACallTree) {
  obs::Profiler& prof = obs::Profiler::instance();
  const auto outer = prof.register_site("test.outer");
  const auto inner = prof.register_site("test.inner");
  prof.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    obs::ScopedProbe o(outer);
    obs::ScopedProbe in1(inner);
  }
  {
    // The same site under a different parent (here: the root) gets its own
    // tree node — per-path attribution, like a flamegraph.
    obs::ScopedProbe in2(inner);
  }
  prof.set_enabled(false);

  const std::string json = prof.to_json();
  EXPECT_NE(json.find("\"name\":\"test.outer\",\"calls\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"test.inner\",\"calls\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"test.inner\",\"calls\":1"), std::string::npos) << json;

  const std::string collapsed = prof.to_collapsed();
  EXPECT_NE(collapsed.find("test.outer;test.inner "), std::string::npos) << collapsed;
  // Inclusive >= sum of children: the outer frame's wall time contains the
  // inner frame's.
  EXPECT_GT(prof.total_wall_ns(), 0u);
}

TEST_F(ProfilerTest, ExclusiveTimeIsInclusiveMinusChildren) {
  obs::Profiler& prof = obs::Profiler::instance();
  const auto outer = prof.register_site("test.excl.outer");
  const auto inner = prof.register_site("test.excl.inner");
  prof.set_enabled(true);
  {
    obs::ScopedProbe o(outer);
    // Burn a little time outside the child so exclusive > 0 is plausible,
    // then a child frame.
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 10000; ++i) sink = sink + i;
    obs::ScopedProbe in1(inner);
  }
  prof.set_enabled(false);
  // The hotspot rollup must carry both sites and account outer's exclusive
  // time separately from inner's.
  const std::string table = prof.hotspot_table(10);
  EXPECT_NE(table.find("test.excl.outer"), std::string::npos) << table;
  EXPECT_NE(table.find("test.excl.inner"), std::string::npos) << table;
}

TEST_F(ProfilerTest, ClearDropsSamplesButKeepsSites) {
  obs::Profiler& prof = obs::Profiler::instance();
  const auto site = prof.register_site("test.clear");
  prof.set_enabled(true);
  { obs::ScopedProbe p(site); }
  prof.set_enabled(false);
  EXPECT_FALSE(prof.empty());
  const std::size_t sites = prof.site_count();
  prof.clear();
  EXPECT_TRUE(prof.empty());
  EXPECT_EQ(prof.site_count(), sites);
  EXPECT_EQ(prof.site_name(site), "test.clear");
}

TEST_F(ProfilerTest, HotspotTableReportsEmptyWhenNothingRan) {
  const std::string table = obs::Profiler::instance().hotspot_table(5);
  EXPECT_NE(table.find("no samples"), std::string::npos);
}

// --- profiling must not perturb the deterministic simulation -------------------

sim::ScenarioSpec pbft_scenario() {
  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Pbft;
  spec.seed = 7;
  spec.nodes = 4;
  spec.clients = 2;
  spec.workload.txs_per_client = 3;
  spec.workload.period = Duration::seconds(2);
  spec.deadline = Duration::seconds(200);
  return spec;
}

struct RunArtifacts {
  std::string tip;
  std::string metrics;
  std::string trace;
};

RunArtifacts run_pbft(bool profiled) {
  obs::Profiler::instance().clear();
  obs::Profiler::instance().set_enabled(profiled);
  const sim::ScenarioSpec spec = pbft_scenario();
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  deployment->telemetry().set_trace_enabled(true);
  deployment->start();
  sim::LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
  deployment->stop();
  deployment->finalize_telemetry();
  obs::Profiler::instance().set_enabled(false);

  RunArtifacts artifacts;
  artifacts.tip = deployment->tip_hex();
  artifacts.metrics = deployment->telemetry().metrics().to_jsonl();
  artifacts.trace = deployment->telemetry().trace().to_perfetto_json();
  return artifacts;
}

TEST_F(ProfilerTest, ProfiledRunIsByteIdenticalToUnprofiledRun) {
  const RunArtifacts plain = run_pbft(/*profiled=*/false);
  const RunArtifacts profiled = run_pbft(/*profiled=*/true);
  EXPECT_FALSE(plain.tip.empty());
  EXPECT_FALSE(plain.metrics.empty());
  EXPECT_GT(plain.trace.size(), 100u);
  // Identical bytes everywhere the determinism contract reaches: the
  // profiler only read the host's steady clock.
  EXPECT_EQ(plain.tip, profiled.tip);
  EXPECT_EQ(plain.metrics, profiled.metrics);
  EXPECT_EQ(plain.trace, profiled.trace);
  // And the profiled run actually recorded something.
  EXPECT_GT(obs::Profiler::instance().total_wall_ns(), 0u);
  const std::string table = obs::Profiler::instance().hotspot_table(20);
  EXPECT_NE(table.find("sim.event"), std::string::npos) << table;
  EXPECT_NE(table.find("crypto.seal"), std::string::npos) << table;
  EXPECT_NE(table.find("net.deliver."), std::string::npos) << table;
}

TEST_F(ProfilerTest, ProfiledRunResolvesCommitCriticalPath) {
  obs::Profiler::instance().set_enabled(true);
  const sim::ScenarioSpec spec = pbft_scenario();
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  deployment->telemetry().set_trace_enabled(true);
  deployment->start();
  sim::LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
  deployment->stop();
  deployment->finalize_telemetry();
  obs::Profiler::instance().set_enabled(false);

  const auto report = obs::CriticalPathReport::analyze(deployment->telemetry().trace());
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.requests().size(), 6u);  // 2 clients x 3 txs
  EXPECT_EQ(report.unresolved(), 0u);
  for (const obs::RequestBreakdown& r : report.requests()) {
    EXPECT_GT(r.total_ns(), 0);
    // The five phases partition the end-to-end latency exactly: the causal
    // chain submit -> pre-prepare -> prepare -> commit -> execute -> reply
    // has no unaccounted gap at the proposing primary.
    EXPECT_EQ(r.preprepare_wait + r.prepare + r.commit + r.execute + r.reply, r.total_ns());
  }
  const std::string table = report.phase_table();
  EXPECT_NE(table.find("prepare"), std::string::npos);
  EXPECT_NE(table.find("end_to_end"), std::string::npos);
}

// --- critical-path analyzer on a synthetic trace -------------------------------

TEST(CriticalPath, SyntheticTraceResolvesExactPhases) {
  obs::TraceRecorder trace;
  const NodeId client{100};
  const NodeId primary{1};
  // Request 7 submitted at t=10us, carried by height 3, replied at t=100us.
  trace.async_begin(7, TimePoint{10'000}, client, "request", "client", {{"tx", "ab"}});
  trace.instant(TimePoint{20'000}, primary, "propose", "pbft", {{"seq", "3"}, {"txs", "1"}});
  trace.complete_span(TimePoint{20'000}, TimePoint{40'000}, primary, "phase.prepare", "pbft",
                      {{"height", "3"}});
  trace.complete_span(TimePoint{40'000}, TimePoint{70'000}, primary, "phase.commit", "pbft",
                      {{"height", "3"}});
  trace.complete_span(TimePoint{70'000}, TimePoint{80'000}, primary, "phase.execute", "pbft",
                      {{"height", "3"}});
  // A backup's spans for the same height must not shadow the primary's.
  trace.complete_span(TimePoint{25'000}, TimePoint{90'000}, NodeId{2}, "phase.prepare", "pbft",
                      {{"height", "3"}});
  trace.async_end(7, TimePoint{100'000}, client, "request", "client", {{"height", "3"}});

  const auto report = obs::CriticalPathReport::analyze(trace);
  ASSERT_EQ(report.requests().size(), 1u);
  const obs::RequestBreakdown& r = report.requests().front();
  EXPECT_EQ(r.trace_id, 7u);
  EXPECT_EQ(r.height, 3u);
  EXPECT_EQ(r.primary, 1u);
  EXPECT_EQ(r.preprepare_wait, 10'000);
  EXPECT_EQ(r.prepare, 20'000);
  EXPECT_EQ(r.commit, 30'000);
  EXPECT_EQ(r.execute, 10'000);
  EXPECT_EQ(r.reply, 20'000);
  EXPECT_EQ(r.total_ns(), 90'000);
}

TEST(CriticalPath, UnresolvableRequestsAreCountedNotDropped) {
  obs::TraceRecorder trace;
  // A reply with no matching propose/phase spans (trace-capacity drop).
  trace.async_begin(9, TimePoint{1'000}, NodeId{100}, "request", "client", {});
  trace.async_end(9, TimePoint{5'000}, NodeId{100}, "request", "client", {{"height", "4"}});
  const auto report = obs::CriticalPathReport::analyze(trace);
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(report.unresolved(), 1u);
  // Tables still render (empty-safe).
  EXPECT_FALSE(report.phase_table().empty());
  EXPECT_NE(report.slowest_table().find("no resolved requests"), std::string::npos);
}

}  // namespace
}  // namespace gpbft
