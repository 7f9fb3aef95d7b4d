// Message-plane scale harness: PBFT vs G-PBFT at paper scale.
//
// The paper's headline claim is that G-PBFT keeps working at 202 nodes
// where flat PBFT drowns in its own traffic (Figs. 3-4). Reproducing that
// regime stresses the *simulator* as much as the protocol: a 202-node PBFT
// sweep pushes tens of millions of scheduled events through net::Network,
// so the message-plane hot path bounds how far the roster can grow. This
// harness measures that bound directly:
//
//   * wall-clock events/sec of the discrete-event core under the Fig. 3
//     workload at n in {20, 100, 202} for PBFT and G-PBFT;
//   * golden chain hashes per point, so hot-path rewrites must prove
//     behaviour parity (byte-identical consensus outcome) before any
//     speedup counts.
//
// Since the batched request pipeline landed (docs/protocol.md §11) the
// grid carries batched points too (batch.size=32): same workload, one
// three-phase instance per 32 requests. Their committed-req/s against the
// unbatched points is the pipeline's headline speedup, tracked in
// BENCH_scale.json.
//
// Usage: bench_scale [--smoke] [--plane]
//   --smoke   n = 20 only (both protocols, unbatched + batched): the CI
//             perf-smoke leg. Fails (exit 1) only on golden-hash mismatch —
//             events/sec is reported, never gated (machines differ;
//             regressions are judged against BENCH_scale.json trends
//             instead).
//   --plane   million-device WorkloadPlane smoke: a 10^6-device diurnal
//             PBFT run (n=20, 8 concrete endpoints, batch.size=32) executed
//             twice with the same seed. Fails (exit 1) when the two runs
//             disagree on tip hash / committed count (determinism) or when
//             one run exceeds the wall-clock budget
//             (GPBFT_PLANE_BUDGET_SECS, default 120).
//
// Environment (see docs/performance.md and EXPERIMENTS.md):
//   GPBFT_BENCH_JSON        per-point ExperimentResult records (bench_util)
//   GPBFT_BENCH_SCALE_JSON  append one events/sec record per point, stamped
//                           with the SHA-256 kernel that ran it; the repo
//                           keeps its trajectory in BENCH_scale.json
//   GPBFT_BENCH_SCALE_LABEL build tag stamped into those records ("dev")
//   GPBFT_PLANE_BUDGET_SECS --plane wall-clock budget per run (default 120)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/sha256.hpp"
#include "sim/experiment.hpp"

namespace gpbft::bench {
namespace {

struct ScalePoint {
  sim::ProtocolKind protocol;
  std::size_t nodes;
  /// Consensus batch close size (1 = the unbatched seed pipeline).
  std::size_t batch_close;
  /// Tip hash of node 1's chain after the run (seed 1, default
  /// calibration). Unbatched goldens are from the pre-refactor message
  /// plane; batched goldens pin the batched pipeline's first recording.
  /// Any hot-path change must reproduce these bytes exactly.
  const char* golden_tip;
};

constexpr ScalePoint kPoints[] = {
    {sim::ProtocolKind::Pbft, 20, 1, "a8dcd8aec20a0a27730cf9c380c933c1b38ddb3d62772c8bdebc205adccb49fe"},
    {sim::ProtocolKind::Gpbft, 20, 1, "b3e1157c5119e17d83cbb2d8479dd4e71fd79944e30a860f7b406baf56b0a8ef"},
    {sim::ProtocolKind::Pbft, 100, 1, "e6e54b49f7ed7a2e3988be5d1de7044d16c055ef9c20bab51632d748cc374d59"},
    {sim::ProtocolKind::Gpbft, 100, 1, "06f9c254a1cfa9134ae6d5570bc4ef6f0db64d3e88930077ee5b8e7c2f0e3414"},
    {sim::ProtocolKind::Pbft, 202, 1, "30869784007ce186a1d614ad3bcdb11649e95e5c712f6ee18698ce08a598ec55"},
    {sim::ProtocolKind::Gpbft, 202, 1, "a4e27b6b37cb50e98ab18d27a99223edd2dc7cb0bc7397339c29ad9932b74439"},
    // Batched pipeline (batch.size=32, engine ceiling raised to match).
    {sim::ProtocolKind::Pbft, 20, 32, "77cd9a7d4cd45ad084a8cc39a4faf81310f484d916969e46037e99bbc4943856"},
    {sim::ProtocolKind::Gpbft, 20, 32, "a642ffdd402221bef2e1f100361d46b374e028dbd86557d8a1fa2b0f31db83d8"},
    {sim::ProtocolKind::Pbft, 202, 32, "f3c52b2791424c542104299c83d84ffc880276be8176d91eff822be7627ac0ee"},
    {sim::ProtocolKind::Gpbft, 202, 32, "a993e3d202c6135bef9882d670da6212074108d5a60d44818f9f7f5a70b35f60"},
};

struct ScaleResult {
  sim::ExperimentResult experiment;
  std::string tip_hex;
  std::uint64_t sim_events{0};
  std::uint64_t wire_messages{0};
  double wall_seconds{0};
  /// Recorded into the scale JSONL so rows with different pipelines and
  /// denominators stay comparable at a glance (the PR 7 denominator bug
  /// class): the consensus batch close size and the workload mode.
  std::size_t batch_close{1};
  const char* workload{"fig3"};

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds <= 0 ? 0.0 : static_cast<double>(sim_events) / wall_seconds;
  }
};

/// One seeded run of `spec` through the deployment factory, timed on the
/// host clock: the Fig. 3 workload or the open-loop plane. Mirrors
/// sim::run_latency but keeps the deployment in scope so the chain tip and
/// simulator counters are readable afterwards.
ScaleResult run_spec(const sim::ScenarioSpec& spec) {
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);

  const auto wall_start = std::chrono::steady_clock::now();
  deployment->start();
  sim::LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
  // Time-to-done, read before the drain: the drain below fires pre-armed
  // periodic timers (e.g. the replicas' pending-request tick at
  // request_timeout/4 = 1000 s) whose timestamps say nothing about when the
  // workload actually finished — committed/sim_seconds must not be diluted
  // by them.
  const double sim_seconds = deployment->simulator().now().to_seconds();
  deployment->stop();
  deployment->simulator().run();  // drain in-flight deliveries deterministically
  const auto wall_end = std::chrono::steady_clock::now();

  ScaleResult result;
  result.experiment = sim::finish_result(*deployment, recorder);
  result.experiment.sim_seconds = sim_seconds;
  result.sim_events = deployment->simulator().events_processed();
  result.wire_messages = deployment->stats().total_messages;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(wall_end - wall_start).count();
  result.batch_close = spec.batch.size;
  if (spec.workload.mode == sim::WorkloadMode::Plane) result.workload = "plane";
  result.tip_hex = deployment->tip_hex();
  return result;
}

ScaleResult run_point(const ScalePoint& point) {
  sim::ExperimentOptions options = sim::default_options();
  if (point.batch_close > 1) {
    options.batch.size = point.batch_close;
    // The engine's per-block ceiling must not clip a batch the close
    // policy formed (default max_batch_size is 32).
    options.engine.batch_size = std::max<std::size_t>(options.engine.batch_size,
                                                      point.batch_close);
  }
  return run_spec(sim::latency_scenario(point.protocol, point.nodes, options));
}

void append_scale_record(const char* series, const ScaleResult& r) {
  const char* path = std::getenv("GPBFT_BENCH_SCALE_JSON");
  if (path == nullptr || path[0] == '\0') return;
  const char* label = std::getenv("GPBFT_BENCH_SCALE_LABEL");
  if (label == nullptr || label[0] == '\0') label = "dev";
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "GPBFT_BENCH_SCALE_JSON: cannot open %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"bench_scale\",\"build\":\"%s\",\"sha256_kernel\":\"%s\","
               "\"series\":\"%s\","
               "\"nodes\":%zu,\"committee\":%zu,\"batch_close\":%zu,\"workload\":\"%s\","
               "\"committed\":%llu,"
               "\"sim_seconds\":%.17g,\"sim_events\":%llu,\"wire_messages\":%llu,"
               "\"wall_seconds\":%.3f,\"events_per_sec\":%.0f,\"tip\":\"%s\"}\n",
               label, crypto::sha256_kernel(), series, r.experiment.nodes,
               r.experiment.committee, r.batch_close, r.workload,
               static_cast<unsigned long long>(r.experiment.committed), r.experiment.sim_seconds,
               static_cast<unsigned long long>(r.sim_events),
               static_cast<unsigned long long>(r.wire_messages), r.wall_seconds,
               r.events_per_sec(), r.tip_hex.c_str());
  std::fclose(out);
}

int run(bool smoke) {
  std::printf("bench_scale: message-plane throughput, Fig. 3 workload (seed 1)%s\n",
              smoke ? " [smoke]" : "");
  std::printf("%6s %6s %6s %6s %10s %12s %9s %12s %10s  %s\n", "proto", "nodes", "batch", "cmte",
              "committed", "sim events", "wall(s)", "events/sec", "req/s", "tip");
  int failures = 0;
  for (const ScalePoint& point : kPoints) {
    if (smoke && point.nodes != 20) continue;
    const ScaleResult r = run_point(point);
    const char* proto = sim::protocol_name(point.protocol);
    const double committed_per_sec =
        r.experiment.sim_seconds <= 0
            ? 0.0
            : static_cast<double>(r.experiment.committed) / r.experiment.sim_seconds;
    std::printf("%6s %6zu %6zu %6zu %7llu/%-3llu %12llu %9.2f %12.0f %10.3f  %s\n", proto,
                point.nodes, point.batch_close, r.experiment.committee,
                static_cast<unsigned long long>(r.experiment.committed),
                static_cast<unsigned long long>(r.experiment.expected),
                static_cast<unsigned long long>(r.sim_events), r.wall_seconds, r.events_per_sec(),
                committed_per_sec, r.tip_hex.c_str());
    std::string series = std::string("scale.") + proto;
    if (point.batch_close > 1) series += ".batch" + std::to_string(point.batch_close);
    append_json_record(series.c_str(), r.experiment, 1);
    append_scale_record(series.c_str(), r);
    if (r.tip_hex != point.golden_tip) {
      std::fprintf(stderr,
                   "bench_scale: GOLDEN HASH MISMATCH for %s n=%zu batch=%zu\n"
                   "  expected %s\n  actual   %s\n",
                   proto, point.nodes, point.batch_close, point.golden_tip, r.tip_hex.c_str());
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_scale: %d golden-hash mismatch(es) — the message plane changed "
                 "observable behaviour (see docs/performance.md)\n",
                 failures);
    return 1;
  }
  std::printf("bench_scale: golden hashes OK\n");
  return 0;
}

// --- million-device workload-plane smoke (--plane) -----------------------------

double plane_budget_seconds() {
  const char* env = std::getenv("GPBFT_PLANE_BUDGET_SECS");
  if (env == nullptr || env[0] == '\0') return 120.0;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(env, &end);
  if (errno == ERANGE || end == env || *end != '\0' || parsed <= 0) {
    std::fprintf(stderr, "GPBFT_PLANE_BUDGET_SECS=\"%s\" is not a positive number\n", env);
    std::exit(2);
  }
  return parsed;
}

/// The 10^6-device diurnal scenario: 20 PBFT replicas, 8 concrete client
/// endpoints, batched pipeline. Aggregate peak = devices * rate = 1000
/// req/s over a 60 s generation window.
sim::ScenarioSpec plane_scenario() {
  sim::ExperimentOptions options = sim::default_options();
  options.batch.size = 32;
  sim::ScenarioSpec spec = sim::latency_scenario(sim::ProtocolKind::Pbft, 20, options);
  spec.clients = 8;
  spec.workload.mode = sim::WorkloadMode::Plane;
  spec.workload.devices = 1'000'000;
  spec.workload.arrival = sim::ArrivalProcess::Diurnal;
  spec.workload.rate_hz = 0.001;
  spec.workload.horizon = Duration::seconds(60);
  spec.workload.diurnal_period = Duration::seconds(120);
  return spec;
}

int run_plane() {
  const double budget = plane_budget_seconds();
  const sim::ScenarioSpec spec = plane_scenario();
  std::printf(
      "bench_scale --plane: %llu-device diurnal WorkloadPlane over %zu endpoints "
      "(PBFT n=%zu, batch=%zu, seed %llu), double run\n",
      static_cast<unsigned long long>(spec.workload.devices), spec.clients, spec.nodes,
      spec.batch.size, static_cast<unsigned long long>(spec.seed));
  std::printf("%4s %10s %12s %9s %12s %10s  %s\n", "run", "committed", "sim events", "wall(s)",
              "events/sec", "req/s", "tip");
  int failures = 0;
  ScaleResult runs[2];
  for (int i = 0; i < 2; ++i) {
    runs[i] = run_spec(spec);
    const ScaleResult& r = runs[i];
    const double committed_per_sec =
        r.experiment.sim_seconds <= 0
            ? 0.0
            : static_cast<double>(r.experiment.committed) / r.experiment.sim_seconds;
    std::printf("%4d %4llu/%-5llu %12llu %9.2f %12.0f %10.3f  %s\n", i + 1,
                static_cast<unsigned long long>(r.experiment.committed),
                static_cast<unsigned long long>(r.experiment.expected),
                static_cast<unsigned long long>(r.sim_events), r.wall_seconds, r.events_per_sec(),
                committed_per_sec, r.tip_hex.c_str());
    if (r.wall_seconds > budget) {
      std::fprintf(stderr, "bench_scale --plane: run %d took %.2f s (budget %.0f s)\n", i + 1,
                   r.wall_seconds, budget);
      ++failures;
    }
    if (r.experiment.committed == 0 || r.experiment.committed < r.experiment.expected) {
      std::fprintf(stderr,
                   "bench_scale --plane: run %d committed %llu of %llu submissions\n", i + 1,
                   static_cast<unsigned long long>(r.experiment.committed),
                   static_cast<unsigned long long>(r.experiment.expected));
      ++failures;
    }
  }
  if (runs[0].tip_hex != runs[1].tip_hex ||
      runs[0].experiment.committed != runs[1].experiment.committed ||
      runs[0].sim_events != runs[1].sim_events) {
    std::fprintf(stderr,
                 "bench_scale --plane: NONDETERMINISM — same-seed runs disagree\n"
                 "  run 1: tip %s committed %llu events %llu\n"
                 "  run 2: tip %s committed %llu events %llu\n",
                 runs[0].tip_hex.c_str(),
                 static_cast<unsigned long long>(runs[0].experiment.committed),
                 static_cast<unsigned long long>(runs[0].sim_events), runs[1].tip_hex.c_str(),
                 static_cast<unsigned long long>(runs[1].experiment.committed),
                 static_cast<unsigned long long>(runs[1].sim_events));
    ++failures;
  }
  append_json_record("scale.plane.pbft", runs[0].experiment, spec.seed);
  append_scale_record("scale.plane.pbft", runs[0]);
  if (failures > 0) return 1;
  std::printf("bench_scale --plane: deterministic, %llu committed, within budget\n",
              static_cast<unsigned long long>(runs[0].experiment.committed));
  return 0;
}

}  // namespace
}  // namespace gpbft::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool plane = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--plane") == 0) {
      plane = true;
    } else {
      std::fprintf(stderr, "usage: bench_scale [--smoke] [--plane]\n");
      return 2;
    }
  }
  if (plane) return gpbft::bench::run_plane();
  return gpbft::bench::run(smoke);
}
