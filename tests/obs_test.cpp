// Telemetry tests: registry/trace units, exporter determinism (same seed
// twice -> byte-identical artifacts), protocol neutrality (telemetry off ->
// identical chains), plus the satellite regressions (percentile clamping,
// Logger sim-time scope/teardown).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "net/simulator.hpp"
#include "obs/telemetry.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace gpbft {
namespace {

// --- metrics registry ----------------------------------------------------------

TEST(ObsRegistry, CountersAreKeyedByNameAndNode) {
  obs::Registry reg;
  reg.counter("msgs", NodeId{1}).add(3);
  reg.counter("msgs", NodeId{2}).add();
  reg.counter("other").add(10);
  EXPECT_EQ(reg.counter("msgs", NodeId{1}).value, 3u);
  EXPECT_EQ(reg.counter("msgs", NodeId{2}).value, 1u);
  EXPECT_EQ(reg.counter_total("msgs"), 4u);
  EXPECT_EQ(reg.counter_total("other"), 10u);
  EXPECT_EQ(reg.counter_total("absent"), 0u);
  EXPECT_EQ(reg.find_counter("msgs", NodeId{3}), nullptr);
}

TEST(ObsRegistry, HistogramBucketsAndTotals) {
  obs::Registry reg;
  obs::Histogram& h1 = reg.histogram("lat", NodeId{1});
  obs::Histogram& h2 = reg.histogram("lat", NodeId{2});
  h1.observe(0.5);
  h1.observe(2.0);
  h2.observe(1000.0);  // lands in the +inf bucket
  const obs::Histogram total = reg.histogram_total("lat");
  EXPECT_EQ(total.count, 3u);
  EXPECT_DOUBLE_EQ(total.sum, 1002.5);
  EXPECT_EQ(total.counts.size(), total.bounds.size() + 1);
  EXPECT_EQ(total.counts.back(), 1u);  // the 1000 s observation
  EXPECT_DOUBLE_EQ(h1.mean(), 1.25);
}

TEST(ObsRegistry, JsonlIsSortedAndStable) {
  obs::Registry reg;
  reg.counter("b.metric", NodeId{2}).add();
  reg.counter("b.metric", NodeId{1}).add();
  reg.counter("a.metric").add();
  reg.gauge("z.gauge").set(1.5);
  const std::string jsonl = reg.to_jsonl();
  // Counters first, sorted by (name, node); gauges after.
  const std::size_t a = jsonl.find("a.metric");
  const std::size_t b1 = jsonl.find("\"b.metric\",\"node\":1");
  const std::size_t b2 = jsonl.find("\"b.metric\",\"node\":2");
  const std::size_t z = jsonl.find("z.gauge");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b1, std::string::npos);
  ASSERT_NE(b2, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, b1);
  EXPECT_LT(b1, b2);
  EXPECT_LT(b2, z);
  EXPECT_EQ(jsonl, reg.to_jsonl());  // stable across calls
}

// --- trace recorder ------------------------------------------------------------

TEST(ObsTrace, PerfettoJsonRendersNsAsMicrosExactly) {
  obs::TraceRecorder trace;
  trace.instant(TimePoint{1'234'567'891}, NodeId{3}, "tick", "test", {{"k", "v"}});
  const std::string json = trace.to_perfetto_json();
  // 1'234'567'891 ns == 1234567.891 us, rendered without floating point.
  EXPECT_NE(json.find("\"ts\":1234567.891"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsTrace, AsyncSpansCarryCorrelationIds) {
  obs::TraceRecorder trace;
  trace.async_begin(42, TimePoint{0}, NodeId{1}, "request", "client");
  trace.async_end(42, TimePoint{1000}, NodeId{2}, "request", "client");
  const std::string json = trace.to_perfetto_json();
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"42\""), std::string::npos);
}

TEST(ObsTrace, BoundedCapacityCountsDrops) {
  obs::TraceRecorder trace;
  trace.set_capacity(2);
  for (int i = 0; i < 5; ++i) trace.instant(TimePoint{i}, NodeId{1}, "e", "t");
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 3u);
  EXPECT_NE(trace.to_perfetto_json().find("\"dropped_events\":\"3\""), std::string::npos);
}

// --- telemetry facade ----------------------------------------------------------

TEST(ObsTelemetry, NoopInstanceStaysDisabled) {
  obs::Telemetry& noop = obs::Telemetry::noop();
  EXPECT_FALSE(noop.enabled());
  EXPECT_FALSE(noop.trace_enabled());
  noop.count("ignored");
  noop.observe("ignored", 1.0);
  EXPECT_TRUE(noop.metrics().empty());
}

TEST(ObsTelemetry, GatesAndNamersWork) {
  obs::Telemetry tel;
  tel.count("a");  // metrics on by default
  EXPECT_EQ(tel.metrics().counter_total("a"), 1u);
  tel.instant("i", "c", NodeId{1});  // tracing off by default
  EXPECT_TRUE(tel.trace().empty());
  tel.set_trace_enabled(true);
  tel.instant("i", "c", NodeId{1});
  EXPECT_EQ(tel.trace().size(), 1u);
  EXPECT_EQ(tel.message_name(7), "type-7");  // fallback namer
  tel.set_enabled(false);
  tel.count("a");
  EXPECT_EQ(tel.metrics().counter_total("a"), 1u);  // gate closed
}

// --- satellite: percentile clamping --------------------------------------------

TEST(LatencyRecorder, PercentileGuardsEmptyAndOutOfRange) {
  sim::LatencyRecorder recorder;
  EXPECT_DOUBLE_EQ(recorder.percentile(50), 0.0);  // empty: no UB, just 0
  recorder.record(Duration::seconds(1));
  recorder.record(Duration::seconds(2));
  EXPECT_DOUBLE_EQ(recorder.percentile(-10), 1.0);   // clamped to p0
  EXPECT_DOUBLE_EQ(recorder.percentile(250), 2.0);   // clamped to p100
  const sim::BoxplotStats empty = sim::LatencyRecorder{}.boxplot();
  EXPECT_EQ(empty.count, 0u);
}

TEST(LatencyRecorder, PercentileClampsAtBothExtremesExactly) {
  sim::LatencyRecorder recorder;
  recorder.record(Duration::seconds(1));
  recorder.record(Duration::seconds(2));
  recorder.record(Duration::seconds(3));
  // Exactly at the boundaries, not just past them.
  EXPECT_DOUBLE_EQ(recorder.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(recorder.percentile(100), 3.0);
  // Far past them: infinities must clamp too, not index out of range.
  EXPECT_DOUBLE_EQ(recorder.percentile(-1e300), 1.0);
  EXPECT_DOUBLE_EQ(recorder.percentile(1e300), 3.0);
  EXPECT_DOUBLE_EQ(recorder.percentile(50), 2.0);  // sanity: the median
}

TEST(LatencyRecorder, SingleSamplePercentilesAreThatSample) {
  sim::LatencyRecorder recorder;
  recorder.record(Duration::millis(250));
  for (const double p : {0.0, 25.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(recorder.percentile(p), 0.25) << "p" << p;
  }
  const sim::BoxplotStats box = recorder.boxplot();
  EXPECT_DOUBLE_EQ(box.min, 0.25);
  EXPECT_DOUBLE_EQ(box.median, 0.25);
  EXPECT_DOUBLE_EQ(box.max, 0.25);
  EXPECT_EQ(box.count, 1u);
}

// --- satellite: histogram edge cases -------------------------------------------

TEST(ObsRegistry, EmptyHistogramExportsZeroRow) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("never.observed");
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.counts.size(), h.bounds.size() + 1);  // shaped at creation
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);                  // no division by zero
  const std::string jsonl = reg.to_jsonl();
  // The row exists (a created series is a fact about the run) with an
  // all-zero profile.
  EXPECT_NE(jsonl.find("never.observed"), std::string::npos);
  EXPECT_NE(jsonl.find("\"count\":0"), std::string::npos);
  EXPECT_EQ(jsonl, reg.to_jsonl());  // stable bytes
}

TEST(ObsRegistry, OverflowBucketCatchesEverythingPastTheLastBound) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("tail", NodeId{1}, {1.0, 2.0});
  h.observe(1.0);     // == a bound: next bucket up (upper_bound semantics)
  h.observe(2.0);     // == last bound: overflow, not in-range
  h.observe(2.0001);  // just past: overflow
  h.observe(1e12);    // far past: overflow
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_EQ(h.counts[1], 1u);       // the 1.0 at the first bound
  EXPECT_EQ(h.counts.back(), 3u);   // everything >= the last bound
  EXPECT_EQ(h.count, 4u);
  // Merging propagates overflow counts, not just sum/count.
  obs::Histogram& other = reg.histogram("tail", NodeId{2}, {1.0, 2.0});
  other.observe(5.0);
  const obs::Histogram total = reg.histogram_total("tail");
  EXPECT_EQ(total.counts.back(), 4u);
  EXPECT_EQ(total.count, 5u);
}

TEST(ObsRegistry, StandaloneHistogramShapesCountsOnFirstObserve) {
  // A Histogram constructed outside the registry starts with empty counts;
  // the first observe must lazily shape counts to bounds.size() + 1.
  obs::Histogram h;
  h.bounds = {10.0};
  EXPECT_TRUE(h.counts.empty());
  h.observe(3.0);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 0u);
}

// --- satellite: Logger sim-time scope ------------------------------------------

TEST(Logging, SimTimeScopeRestoresPreviousState) {
  Logger& logger = Logger::instance();
  logger.clear_sim_time();
  {
    SimTimeScope scope(1.5);
    EXPECT_TRUE(logger.has_sim_time());
    EXPECT_DOUBLE_EQ(logger.sim_time_seconds(), 1.5);
    {
      SimTimeScope inner(9.0);
      EXPECT_DOUBLE_EQ(logger.sim_time_seconds(), 9.0);
    }
    EXPECT_DOUBLE_EQ(logger.sim_time_seconds(), 1.5);
  }
  EXPECT_FALSE(logger.has_sim_time());
}

TEST(Logging, DeploymentTeardownClearsSimTime) {
  Logger& logger = Logger::instance();
  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Pbft;
  spec.nodes = 4;
  spec.clients = 1;
  spec.workload.txs_per_client = 1;
  {
    const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
    deployment->start();
    deployment->run_for(Duration::seconds(5));
    deployment->stop();
  }
  EXPECT_FALSE(logger.has_sim_time());
}

// --- determinism & neutrality across a full deployment -------------------------

sim::ScenarioSpec small_scenario() {
  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.seed = 7;
  spec.nodes = 6;
  spec.clients = 2;
  spec.workload.txs_per_client = 3;
  spec.workload.period = Duration::seconds(2);
  spec.deadline = Duration::seconds(200);
  return spec;
}

struct RunArtifacts {
  std::string metrics;
  std::string trace;
  std::vector<crypto::Hash256> block_hashes;
  net::NetStats stats;
  std::vector<net::NodeTraffic> traffic;  // nodes, then clients
};

RunArtifacts run_once(bool telemetry_enabled) {
  const sim::ScenarioSpec spec = small_scenario();
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  deployment->telemetry().set_enabled(telemetry_enabled);
  deployment->telemetry().set_trace_enabled(telemetry_enabled);
  deployment->start();
  sim::LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
  deployment->stop();
  deployment->finalize_telemetry();

  RunArtifacts artifacts;
  artifacts.metrics = deployment->telemetry().metrics().to_jsonl();
  artifacts.trace = deployment->telemetry().trace().to_perfetto_json();
  auto& cluster = dynamic_cast<sim::GpbftCluster&>(*deployment);
  const ledger::Chain& chain = cluster.endorser(0).chain();
  for (Height h = 0; h <= chain.height(); ++h) {
    artifacts.block_hashes.push_back(chain.at(h).hash());
  }
  artifacts.stats = deployment->stats();
  for (std::uint64_t id = 1; id <= spec.nodes; ++id) {
    artifacts.traffic.push_back(deployment->network().traffic_of(NodeId{id}));
  }
  for (std::size_t i = 0; i < deployment->client_count(); ++i) {
    artifacts.traffic.push_back(deployment->network().traffic_of(deployment->client(i).id()));
  }
  return artifacts;
}

TEST(ObsDeterminism, SameSeedProducesByteIdenticalExports) {
  const RunArtifacts first = run_once(/*telemetry_enabled=*/true);
  const RunArtifacts second = run_once(/*telemetry_enabled=*/true);
  EXPECT_FALSE(first.metrics.empty());
  EXPECT_GT(first.trace.size(), 100u);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.block_hashes, second.block_hashes);
}

TEST(ObsDeterminism, DisablingTelemetryLeavesChainsUnchanged) {
  const RunArtifacts with = run_once(/*telemetry_enabled=*/true);
  const RunArtifacts without = run_once(/*telemetry_enabled=*/false);
  ASSERT_FALSE(with.block_hashes.empty());
  EXPECT_EQ(with.block_hashes, without.block_hashes);
  // The network counts the same with metrics off: they are its own, and
  // only the export reads them.
  EXPECT_GT(with.stats.total_messages, 0u);
  EXPECT_EQ(with.stats, without.stats);
  EXPECT_EQ(with.traffic, without.traffic);
  EXPECT_NE(with.traffic.front(), net::NodeTraffic{});
}

/// Sum of every counter row whose name starts with `prefix`.
std::uint64_t counter_prefix_sum(const obs::Registry& reg, const std::string& prefix) {
  const std::string head = "{\"kind\":\"counter\",\"name\":\"" + prefix;
  std::uint64_t sum = 0;
  std::istringstream lines(reg.to_jsonl());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(head, 0) == 0) sum += std::stoull(line.substr(line.rfind(':') + 1));
  }
  return sum;
}

TEST(ObsDeployment, RegistryCarriesProtocolAndNetworkFamilies) {
  const sim::ScenarioSpec spec = small_scenario();
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  deployment->start();
  sim::LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
  deployment->stop();
  deployment->finalize_telemetry();

  const obs::Registry& reg = deployment->telemetry().metrics();
  EXPECT_GT(reg.counter_total("net.msgs.PRE-PREPARE"), 0u);
  EXPECT_GT(reg.counter_total("net.msgs.PREPARE"), 0u);
  EXPECT_GT(reg.counter_total("pbft.blocks_executed"), 0u);
  EXPECT_GT(reg.counter_total("client.committed"), 0u);
  EXPECT_GT(reg.counter_total("gpbft.geo_reports_sent"), 0u);
  EXPECT_EQ(reg.counter_total("client.committed"),
            static_cast<std::uint64_t>(deployment->committed_count()));
  EXPECT_GT(reg.histogram_total("pbft.phase.commit_seconds").count, 0u);
  const obs::Histogram latency = reg.histogram_total("client.request_seconds");
  EXPECT_EQ(latency.count, deployment->committed_count());
  ASSERT_NE(reg.find_counter("net.msgs_sent", NodeId{1}), nullptr);
  // Each send is in exactly one per-type row.
  EXPECT_EQ(counter_prefix_sum(reg, "net.msgs."), deployment->stats().total_messages);
  EXPECT_EQ(counter_prefix_sum(reg, "net.bytes."), deployment->stats().total_bytes);
  EXPECT_EQ(reg.counter_total("net.msgs_sent"), deployment->stats().total_messages);
}

// --- satellite: invariant monitor reads tallies from the registry --------------

TEST(ObsInvariants, MonitorTalliesLiveInDeploymentRegistry) {
  const sim::ScenarioSpec spec = small_scenario();
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  sim::InvariantMonitor monitor(deployment->simulator());
  deployment->watch(monitor);
  deployment->start();
  sim::LatencyRecorder recorder;
  deployment->schedule_workload(
      spec.workload, &recorder,
      [&monitor](const ledger::Transaction& tx) { monitor.expect_submission(tx); });
  deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
  deployment->stop();

  const obs::Registry& reg = deployment->telemetry().metrics();
  EXPECT_GT(monitor.blocks_checked(), 0u);
  EXPECT_EQ(reg.counter_total("invariant.blocks_checked"), monitor.blocks_checked());
  EXPECT_EQ(reg.counter_total("invariant.txs_checked"), monitor.transactions_checked());
  EXPECT_EQ(reg.counter_total("invariant.violations"), 0u);
  EXPECT_TRUE(monitor.clean());
}

TEST(ObsInvariants, StandaloneMonitorTalliesCarryOverOnRebind) {
  net::Simulator sim(1);
  sim::InvariantMonitor monitor(sim);
  monitor.check_block_hash(NodeId{1}, 1, crypto::Hash256{});
  EXPECT_EQ(monitor.blocks_checked(), 1u);
  obs::Telemetry telemetry;
  monitor.set_telemetry(telemetry);
  EXPECT_EQ(monitor.blocks_checked(), 1u);
  EXPECT_EQ(telemetry.metrics().counter_total("invariant.blocks_checked"), 1u);
  monitor.check_block_hash(NodeId{2}, 1, crypto::Hash256{});
  EXPECT_EQ(telemetry.metrics().counter_total("invariant.blocks_checked"), 2u);
}

}  // namespace
}  // namespace gpbft
