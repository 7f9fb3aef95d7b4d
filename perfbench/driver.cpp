// Benchmark driver: runs one benchmark workload in this process and prints
// one JSON object of raw measurements on stdout. run.py builds this program,
// runs it once per benchmark run, checks its outputs and turns the raw
// measurements into the benchmark's metrics (README.md in this directory).
//
//   perfbench_driver --workload NAME --seed N --seconds S [--trace] [--no-crash]
//
// Timed mode (default): a host-speed probe, then repeated fresh
// constructions for the set-up timing, then repeated whole simulations of the
// workload until `--seconds` have passed (at least two), each timed per
// simulated second. Host times are rescaled to a reference host speed read
// between the timed slices (Reference). Every simulation of one seed must
// produce identical deterministic outputs; the JSON lists them per repetition
// so the caller can check.
//
// Traced mode (--trace): one untraced and one profiled simulation (their
// wall ratio is the tracing overhead and their deterministic outputs must
// match), the obs::Profiler call tree of the profiled one, telemetry
// counts, and ledger/serde/storage timings replayed from outside over the
// committed chain of the first live replica. Nothing inside src/ is changed.
//
// The driver reaches the simulator only through public entry points:
// sim::make_deployment and the Deployment surface, the ledger/serde
// functions, sim::InvariantMonitor and obs::Profiler.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ledger/chain.hpp"
#include "ledger/store.hpp"
#include "obs/profiler.hpp"
#include "sim/deployment.hpp"
#include "sim/experiment.hpp"
#include "sim/invariants.hpp"

namespace gpbft::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The median, interpolated between the two middle values.
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

// --- host-speed reference ---------------------------------------------------------

/// A fixed reference computation timed between slices of the measured work,
/// so host times can be rescaled to one reference host speed. On the shared
/// hosts this benchmark runs on, the speed a process gets drifts by up to 2x
/// over seconds to minutes; the simulation slows with it, and no statistic
/// taken over one run absorbs a slowdown that lasts the whole run. Chained
/// SHA-256 compressions slow in step with the simulation (README.md, "Host
/// noise"). The code is the benchmark's own, not the simulator's crypto, so
/// a change to the simulator cannot move the yardstick.
class Reference {
 public:
  /// Host seconds per compression on the reference host: the speed of a
  /// quiet 4-vCPU Xeon VM, the host the bounds were set on.
  static constexpr double kNominalSecondsPerBlock = 400e-9;

  /// Times one pass of `blocks` chained compressions (0.4 ms per thousand at
  /// the nominal speed) and returns the host's slowness against the
  /// reference host: 1.0 at the nominal speed, 2.0 at half of it.
  double slowness(std::size_t blocks) {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < blocks; ++i) {
      compress();
      // Feed the state back into the block, so no pass can be hoisted.
      block_[i % 16] ^= state_[i % 8];
    }
    return seconds_since(t) / static_cast<double>(blocks) / kNominalSecondsPerBlock;
  }

  /// Folds the state into one word, so the compiler keeps the work.
  [[nodiscard]] std::uint32_t digest() const { return state_[0] ^ state_[7]; }

 private:
  static constexpr std::uint32_t kRound[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
      0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
      0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
      0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
      0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
      0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
      0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
      0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
      0xc67178f2};

  static std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

  /// One SHA-256 compression of block_ into state_.
  void compress() {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = block_[i];
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 =
          h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + kRound[i] + w[i];
      const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  std::uint32_t state_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint32_t block_[16] = {};
};

// --- workloads -----------------------------------------------------------------

struct Workload {
  sim::ScenarioSpec spec;
  /// Failover: the view-0 primary crashes once, at this simulated instant.
  bool crash_primary{false};
  TimePoint crash_at{};
  /// Attach an InvariantMonitor; any violation fails the run.
  bool monitor{false};
};

// Requests per client of the Fig. 3 constant-rate stream (one every 5 s).
// G-PBFT runs the paper's full 12 (2424 commits; the 60 s stream spans two
// 30 s era switches). Flat PBFT at n=202 costs ~3 host s per request per
// client, so it runs 3 (606 commits, 6 samples beyond p99): ~9 s per
// simulation.
constexpr std::uint64_t kPbftTxsPerClient = 3;
constexpr std::uint64_t kGpbftTxsPerClient = 12;

/// Table III's PBFT row: flat PBFT, 202 replicas, MACs off. The deep-queueing
/// regime, where the event loop, the message plane and pbft do the work.
Workload pbft_n202(std::uint64_t seed) {
  sim::ExperimentOptions options = sim::default_options();
  options.seed = seed;
  options.workload.txs_per_client = kPbftTxsPerClient;
  return Workload{sim::latency_scenario(sim::ProtocolKind::Pbft, 202, options)};
}

/// Table III's G-PBFT row: 202 devices, committee 40, era switches on, MACs
/// on, one thread. The only workload where MAC seal/open work is large.
Workload gpbft_n202_macs(std::uint64_t seed) {
  sim::ExperimentOptions options = sim::default_options();
  options.seed = seed;
  options.workload.txs_per_client = kGpbftTxsPerClient;
  options.engine.compute_macs = true;
  Workload workload{sim::latency_scenario(sim::ProtocolKind::Gpbft, 202, options)};
  workload.spec.threads = 1;
  return workload;
}

/// Open-loop million-device plane over 8 endpoints into PBFT n=20 with
/// 32-request batches, at a diurnal rate the committee sustains. The view-0
/// primary crashes mid-window, so requests due while no leader exists are
/// counted. Every stable checkpoint re-serializes the whole chain to the
/// simulated disk, so persistence cost grows with the chain.
Workload plane_pbft_n20_failover(std::uint64_t seed, bool crash) {
  sim::ExperimentOptions options = sim::default_options();
  options.seed = seed;
  options.batch.size = 32;
  sim::ScenarioSpec spec = sim::latency_scenario(sim::ProtocolKind::Pbft, 20, options);
  spec.clients = 8;
  spec.workload.mode = sim::WorkloadMode::Plane;
  spec.workload.devices = 1'000'000;
  spec.workload.arrival = sim::ArrivalProcess::Diurnal;
  spec.workload.rate_hz = 5e-5;  // 50 req/s peak: p50 0.6 s, p99 1.4 s without the crash
  spec.workload.horizon = Duration::seconds(240);
  spec.workload.diurnal_period = spec.workload.horizon;
  // default_options() stretches the request timeout to the run deadline so
  // queueing never fires a view change; failover needs the engine's real
  // timeouts and client retransmission back, or the outage is unbounded.
  const sim::EngineSpec engine_defaults;
  spec.engine.request_timeout = engine_defaults.request_timeout;
  spec.engine.view_change_timeout = engine_defaults.view_change_timeout;
  spec.workload.client_retries = true;

  Workload workload{spec};
  workload.crash_primary = crash;
  workload.crash_at = spec.workload.start + spec.workload.horizon / 2;
  workload.monitor = true;
  return workload;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool crash, Workload& out) {
  if (name == "pbft-n202") {
    out = pbft_n202(seed);
  } else if (name == "gpbft-n202-macs") {
    out = gpbft_n202_macs(seed);
  } else if (name == "plane-pbft-n20-failover") {
    out = plane_pbft_n20_failover(seed, crash);
  } else {
    return false;
  }
  return true;
}

// --- one simulation --------------------------------------------------------------

/// Deterministic outputs of one simulation: a function of the seed alone.
struct Outcome {
  std::string tip;
  Height height{0};
  bool tips_agree{false};
  std::size_t live_replicas{0};
  std::uint64_t events{0};
  std::uint64_t max_queue_depth{0};
  std::uint64_t msgs{0};
  std::uint64_t dropped{0};
  std::uint64_t submitted{0};
  std::uint64_t committed{0};
  std::uint64_t latency_samples{0};
  double commit_p50_s{0};
  double commit_p99_s{0};
  double outage_s{0};
  double consensus_kb{0};
  double sim_end_s{0};
  std::uint64_t violations{0};
  std::string violation_report;
};

/// Host timing of one simulation.
struct SimTiming {
  std::vector<double> segments;  // host seconds per segment
  std::vector<double> slowness;  // reference reading after each segment, if taken

  [[nodiscard]] double wall_s() const { return sum(segments); }

  /// Host seconds rescaled to the reference host speed: the wall time
  /// divided by the host's slowness over it, the segment-time-weighted mean
  /// of the readings. A reading disturbed upward only raises the mean
  /// slightly, where dividing its one segment by it would wipe the segment.
  [[nodiscard]] double reference_s() const {
    double weighted = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) weighted += segments[i] * slowness[i];
    const double wall = wall_s();
    return wall * wall / weighted;
  }
};

/// One deployment through its life: construction (timed per phase), the
/// timed simulation, then read-out.
class Instance {
 public:
  explicit Instance(const Workload& workload) : workload_(workload) {
    const sim::ScenarioSpec& spec = workload.spec;
    Clock::time_point t = Clock::now();
    deployment_ = sim::make_deployment(spec);
    make_s_ = seconds_since(t);
    if (workload.monitor) {
      monitor_ = std::make_unique<sim::InvariantMonitor>(deployment_->simulator());
      deployment_->watch(*monitor_);
    }

    t = Clock::now();
    deployment_->start();
    start_s_ = seconds_since(t);

    t = Clock::now();
    net::Simulator& simulator = deployment_->simulator();
    deployment_->schedule_workload(
        spec.workload, nullptr, [this, &simulator](const ledger::Transaction& tx) {
          if (submitted_ == 0) first_submit_ = simulator.now();
          last_submit_ = simulator.now();
          ++submitted_;
          if (monitor_) monitor_->expect_submission(tx);
        });
    // Own commit callbacks (schedule_workload installs none without a
    // recorder): latency is measured by the client from the request's due
    // instant; the callback's own instant is the commit time.
    for (std::size_t i = 0; i < deployment_->client_count(); ++i) {
      deployment_->client(i).set_commit_callback(
          [this, &simulator](const crypto::Hash256&, Height, Duration latency) {
            latencies_.record(latency);
            commits_.push_back(simulator.now());
          });
    }
    if (workload.crash_primary) {
      net::Network& network = deployment_->network();
      const NodeId primary = deployment_->committee().front();
      simulator.schedule_at(workload.crash_at, [&network, primary]() { network.crash(primary); });
    }
    schedule_s_ = seconds_since(t);
  }

  // The simulation's callbacks hold `this`.
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  [[nodiscard]] double make_s() const { return make_s_; }
  [[nodiscard]] double start_s() const { return start_s_; }
  [[nodiscard]] double schedule_s() const { return schedule_s_; }
  [[nodiscard]] double setup_s() const { return make_s_ + start_s_ + schedule_s_; }
  [[nodiscard]] sim::Deployment& deployment() { return *deployment_; }

  /// Runs the workload to completion and drains the queue, timing it in
  /// segments from the first simulated event to the drained queue: one per
  /// `kSegment` of simulated time, then the drain. The segments cut
  /// run_until_committed's own 1 s steps at the same instants, so the
  /// simulation is the same as one uninterrupted call. With a reference, the
  /// host's slowness is read after every segment, outside its timing.
  SimTiming simulate(Reference* reference = nullptr) {
    static constexpr Duration kSegment = Duration::seconds(1);
    const sim::ScenarioSpec& spec = workload_.spec;
    const std::uint64_t per_client =
        spec.workload.mode == sim::WorkloadMode::Plane ? 0 : spec.workload.txs_per_client;
    const TimePoint deadline{spec.deadline.ns};
    net::Simulator& simulator = deployment_->simulator();
    SimTiming timing;
    const auto segment = [&](Clock::time_point t) {
      timing.segments.push_back(seconds_since(t));
      if (reference != nullptr) {
        // About 5% of the segment's host time, and at least 0.4 ms.
        const double blocks = 0.05 * timing.segments.back() / Reference::kNominalSecondsPerBlock;
        timing.slowness.push_back(
            reference->slowness(std::max<std::size_t>(1024, static_cast<std::size_t>(blocks))));
      }
    };
    bool done = false;
    while (!done && simulator.now() < deadline) {
      const TimePoint until = std::min(deadline, simulator.now() + kSegment);
      const Clock::time_point t = Clock::now();
      done = deployment_->run_until_committed(per_client, until);
      segment(t);
    }
    sim_end_s_ = simulator.now().to_seconds();
    const Clock::time_point t = Clock::now();
    deployment_->stop();
    simulator.run();
    segment(t);
    return timing;
  }

  /// Committed chains of every live committee member (crashed ones excluded).
  [[nodiscard]] std::vector<const ledger::Chain*> live_chains() {
    std::vector<const ledger::Chain*> chains;
    const net::Network& network = deployment_->network();
    if (auto* pbft = dynamic_cast<sim::PbftCluster*>(deployment_.get())) {
      for (std::size_t i = 0; i < pbft->replica_count(); ++i) {
        if (!network.is_crashed(pbft->replica(i).id())) chains.push_back(&pbft->replica(i).chain());
      }
    } else if (auto* gpbft = dynamic_cast<sim::GpbftCluster*>(deployment_.get())) {
      const std::vector<NodeId>& roster = gpbft->roster();
      for (std::size_t i = 0; i < gpbft->endorser_count(); ++i) {
        const NodeId id = gpbft->endorser(i).id();
        if (std::find(roster.begin(), roster.end(), id) != roster.end() &&
            !network.is_crashed(id)) {
          chains.push_back(&gpbft->endorser(i).chain());
        }
      }
    }
    return chains;
  }

  [[nodiscard]] Outcome outcome() {
    Outcome out;
    const std::vector<const ledger::Chain*> chains = live_chains();
    out.live_replicas = chains.size();
    out.tips_agree = !chains.empty();
    if (!chains.empty()) {
      out.tip = chains.front()->tip().hash().hex();
      out.height = chains.front()->height();
      for (const ledger::Chain* chain : chains) {
        if (chain->tip().hash() != chains.front()->tip().hash()) out.tips_agree = false;
      }
    }
    const net::Simulator& simulator = deployment_->simulator();
    const net::NetStats& stats = deployment_->stats();
    out.events = simulator.events_processed();
    out.max_queue_depth = simulator.max_queue_depth();
    out.msgs = stats.total_messages;
    out.dropped = stats.dropped_messages;
    out.submitted = submitted_;
    out.committed = deployment_->committed_count();
    out.latency_samples = latencies_.count();
    out.commit_p50_s = latencies_.percentile(50);
    out.commit_p99_s = latencies_.percentile(99);
    out.outage_s = outage_seconds();
    out.consensus_kb = sim::consensus_kilobytes(stats);
    out.sim_end_s = sim_end_s_;
    if (monitor_) {
      out.violations = monitor_->violations().size();
      if (out.violations > 0) out.violation_report = monitor_->report();
    }
    return out;
  }

 private:
  /// Longest simulated interval of the generation window (first to last
  /// submission) in which no request committed.
  [[nodiscard]] double outage_seconds() const {
    if (submitted_ == 0) return 0.0;
    std::int64_t longest = 0;
    std::int64_t previous = first_submit_.ns;
    for (const TimePoint commit : commits_) {
      if (commit.ns <= first_submit_.ns) continue;
      if (commit.ns >= last_submit_.ns) break;
      longest = std::max(longest, commit.ns - previous);
      previous = commit.ns;
    }
    longest = std::max(longest, last_submit_.ns - previous);
    return static_cast<double>(longest) / 1e9;
  }

  const Workload& workload_;
  std::unique_ptr<sim::Deployment> deployment_;
  std::unique_ptr<sim::InvariantMonitor> monitor_;
  sim::LatencyRecorder latencies_;
  std::vector<TimePoint> commits_;  // commit instants, in simulation order
  std::uint64_t submitted_{0};
  TimePoint first_submit_{};
  TimePoint last_submit_{};
  double make_s_{0};
  double start_s_{0};
  double schedule_s_{0};
  double sim_end_s_{0};
};

// --- JSON output -----------------------------------------------------------------

class Json {
 public:
  Json& key(const char* name) {
    comma();
    out_ += '"';
    out_ += name;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(buf);
  }
  Json& num(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& boolean(bool v) { return raw(v ? "true" : "false"); }
  Json& str(const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (c == '\n') {
        quoted += "\\n";
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        quoted += c;
      }
    }
    quoted += '"';
    return raw(quoted);
  }
  /// Appends already-encoded JSON.
  Json& raw(const std::string& v) {
    comma();
    out_ += v;
    fresh_ = false;
    return *this;
  }
  Json& open(char bracket) {
    comma();
    out_ += bracket;
    fresh_ = true;
    return *this;
  }
  Json& close(char bracket) {
    out_ += bracket;
    fresh_ = false;
    return *this;
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void comma() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_{true};
};

void write_outcome(Json& json, const Outcome& o) {
  json.open('{');
  json.key("tip").str(o.tip);
  json.key("height").num(static_cast<std::uint64_t>(o.height));
  json.key("tips_agree").boolean(o.tips_agree);
  json.key("live_replicas").num(static_cast<std::uint64_t>(o.live_replicas));
  json.key("events").num(o.events);
  json.key("max_queue_depth").num(o.max_queue_depth);
  json.key("msgs").num(o.msgs);
  json.key("dropped").num(o.dropped);
  json.key("submitted").num(o.submitted);
  json.key("committed").num(o.committed);
  json.key("latency_samples").num(o.latency_samples);
  json.key("commit_p50_s").num(o.commit_p50_s);
  json.key("commit_p99_s").num(o.commit_p99_s);
  json.key("outage_s").num(o.outage_s);
  json.key("consensus_kb").num(o.consensus_kb);
  json.key("sim_end_s").num(o.sim_end_s);
  json.key("violations").num(o.violations);
  json.key("violation_report").str(o.violation_report);
  json.close('}');
}

// --- host diagnostics -------------------------------------------------------------

/// Host-speed probe: two fixed, self-contained loops timed just before the
/// workload, so a noisy set can be laid on host drift rather than on the
/// code. A diagnostic, not a metric.
struct HostProbe {
  double alu_ns_per_iter{0};  // dependent integer ops: core speed
  double mem_ns_per_load{0};  // dependent loads over 32 MiB: memory latency
};

HostProbe host_probe() {
  HostProbe probe;
  constexpr std::uint64_t kIters = 50'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  Clock::time_point t = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  probe.alu_ns_per_iter = seconds_since(t) * 1e9 / static_cast<double>(kIters);

  // One random cycle through 8 Mi slots (Sattolo's shuffle, fixed LCG).
  constexpr std::uint32_t kSlots = 8u << 20;
  constexpr std::uint32_t kLoads = 1u << 20;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t lcg = 1;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(next[i], next[(lcg >> 33) % i]);
  }
  std::uint32_t at = 0;
  t = Clock::now();
  for (std::uint32_t i = 0; i < kLoads; ++i) at = next[at];
  probe.mem_ns_per_load = seconds_since(t) * 1e9 / kLoads;
  if ((x ^ at) == 42) std::fprintf(stderr, "probe checksum\n");  // keeps both loops live
  return probe;
}

/// Resets the process's peak-RSS high-water mark (writing "5" to
/// /proc/self/clear_refs, Linux 4.0+), so the probe's 32 MiB buffer, freed
/// by then, sets no floor under peak_rss_mb. False where unsupported.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// Peak resident set since the last reset (VmHWM), in MiB.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// --- ledger / serde / storage replay --------------------------------------------

/// Repeats `pass` until `min_seconds` of host time have accumulated; `pass`
/// returns the host seconds it spent on the timed part. Returns the mean
/// seconds per pass.
template <typename Pass>
double time_passes(double min_seconds, Pass&& pass) {
  double total = 0;
  std::size_t passes = 0;
  do {
    total += pass();
    ++passes;
  } while (total < min_seconds);
  return total / static_cast<double>(passes);
}

/// Times the ledger/serde entry points from outside over a committed chain,
/// checking each result. Returns false when a replayed result disagrees with
/// the chain (a correctness failure).
bool replay_ledger(const ledger::Chain& chain, double min_seconds, Json& json) {
  const Height height = chain.height();
  std::size_t txs = 0;
  std::size_t block_bytes = 0;
  std::vector<Bytes> encoded;
  for (Height h = 1; h <= height; ++h) {
    txs += chain.at(h).transactions.size();
    encoded.push_back(chain.at(h).encode());
    block_bytes += encoded.back().size();
  }
  if (height == 0 || txs == 0) return false;
  const double blocks = static_cast<double>(height);
  const double block_kb = static_cast<double>(block_bytes) / 1024.0;
  bool ok = true;

  const double append_s = time_passes(min_seconds, [&]() {
    std::vector<ledger::Block> copies;
    copies.reserve(height);
    for (Height h = 1; h <= height; ++h) copies.push_back(chain.at(h));
    ledger::Chain replica(chain.at(0));
    const Clock::time_point t = Clock::now();
    for (ledger::Block& block : copies) ok = replica.append(std::move(block)).ok() && ok;
    const double s = seconds_since(t);
    ok = ok && replica.tip().hash() == chain.tip().hash();
    return s;
  });
  const double merkle_s = time_passes(min_seconds, [&]() {
    const Clock::time_point t = Clock::now();
    for (Height h = 1; h <= height; ++h) {
      const ledger::Block& block = chain.at(h);
      ok = block.compute_merkle_root() == block.header.merkle_root && ok;
    }
    return seconds_since(t);
  });
  const double digest_s = time_passes(min_seconds, [&]() {
    std::uint8_t fold = 0;
    const Clock::time_point t = Clock::now();
    for (Height h = 1; h <= height; ++h) {
      for (const ledger::Transaction& tx : chain.at(h).transactions) fold ^= tx.digest().bytes[0];
    }
    const double s = seconds_since(t);
    if (fold == 0x5a) std::fprintf(stderr, "digest fold %u\n", fold);
    return s;
  });
  const double encode_s = time_passes(min_seconds, [&]() {
    std::size_t bytes = 0;
    const Clock::time_point t = Clock::now();
    for (Height h = 1; h <= height; ++h) bytes += chain.at(h).encode().size();
    const double s = seconds_since(t);
    ok = ok && bytes == block_bytes;
    return s;
  });
  const double decode_s = time_passes(min_seconds, [&]() {
    const Clock::time_point t = Clock::now();
    for (Height h = 1; h <= height; ++h) {
      const Bytes& image = encoded[h - 1];
      auto decoded = ledger::Block::decode(BytesView(image.data(), image.size()));
      ok = decoded.ok() && decoded.value().hash() == chain.at(h).hash() && ok;
    }
    return seconds_since(t);
  });
  std::size_t image_bytes = 0;
  const double serialize_s = time_passes(min_seconds, [&]() {
    const Clock::time_point t = Clock::now();
    const Bytes image = ledger::serialize_chain(chain);
    const double s = seconds_since(t);
    image_bytes = image.size();
    return s;
  });
  const Bytes image = ledger::serialize_chain(chain);
  auto restored = ledger::deserialize_chain(BytesView(image.data(), image.size()));
  ok = ok && restored.ok() && restored.value().tip().hash() == chain.tip().hash();

  json.key("ledger").open('{');
  json.key("blocks").num(static_cast<std::uint64_t>(height));
  json.key("txs").num(static_cast<std::uint64_t>(txs));
  json.key("block_kb").num(block_kb / blocks);
  json.key("append_us").num(append_s * 1e6 / blocks);
  json.key("merkle_us").num(merkle_s * 1e6 / blocks);
  json.key("tx_digest_ns").num(digest_s * 1e9 / static_cast<double>(txs));
  json.key("block_encode_us").num(encode_s * 1e6 / blocks);
  json.key("block_decode_us").num(decode_s * 1e6 / blocks);
  json.key("block_encode_us_per_kb").num(encode_s * 1e6 / block_kb);
  json.key("block_decode_us_per_kb").num(decode_s * 1e6 / block_kb);
  json.key("serialize_chain_ms").num(serialize_s * 1e3);
  json.key("image_kb").num(static_cast<double>(image_bytes) / 1024.0);
  json.key("ok").boolean(ok);
  json.close('}');
  return ok;
}

/// Telemetry counts and modeled per-layer means of a finished simulation.
void write_counts(Json& json, Instance& instance) {
  sim::Deployment& deployment = instance.deployment();
  deployment.finalize_telemetry();
  const obs::Registry& reg = deployment.telemetry().metrics();
  json.key("counts").open('{');
  for (const char* name :
       {"pbft.view_changes_started", "pbft.view_changes_completed", "gpbft.era_switches",
        "gpbft.elections", "gpbft.geo_reports_sent", "plane.submitted"}) {
    json.key(name).num(reg.counter_total(name));
  }
  json.close('}');
  json.key("means").open('{');
  for (const char* name :
       {"net.recv_stall_seconds", "pbft.phase.prepare_seconds",
        "pbft.phase.commit_seconds", "gpbft.era_switch_seconds"}) {
    json.key(name).num(reg.histogram_total(name).mean());
  }
  json.close('}');

  std::uint64_t saves = 0;
  std::uint64_t first_live_saves = 0;
  const std::vector<NodeId> members = deployment.committee();
  for (const NodeId id : members) {
    if (!deployment.storage().has(id)) continue;
    saves += deployment.storage().disk(id).saves();
    if (first_live_saves == 0 && !deployment.network().is_crashed(id)) {
      first_live_saves = deployment.storage().disk(id).saves();
    }
  }
  json.key("storage").open('{');
  json.key("saves").num(saves);
  json.key("first_live_saves").num(first_live_saves);
  json.close('}');
}

// --- modes ------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool crash{true};
};

void write_header(Json& json, const Options& options, const Workload& workload) {
  json.key("workload").str(options.workload);
  json.key("seed").num(options.seed);
  json.key("nodes").num(static_cast<std::uint64_t>(workload.spec.nodes));
  json.key("crash").boolean(workload.crash_primary);
  const HostProbe probe = host_probe();
  json.key("host_probe_alu_ns").num(probe.alu_ns_per_iter);
  json.key("host_probe_mem_ns").num(probe.mem_ns_per_load);
  json.key("peak_rss_reset").boolean(reset_peak_rss());
  json.key("build_type").str(PERFBENCH_BUILD_TYPE);
  json.key("cxx_flags").str(PERFBENCH_CXX_FLAGS);
  json.key("compiler").str(PERFBENCH_COMPILER);
}

/// Set-up time of fresh constructions, each destroyed before the next. One
/// construction (0.3 ms to 3 ms) does not repeat within a tenth, so take
/// many, in batches spread over the run. The host switches between a fast
/// and a slow mode about 1.7x apart within milliseconds, so the host's
/// slowness is read right after every construction, and a batch's reading
/// is its mean construction time rescaled to the reference host speed by the
/// same weighting as a simulation's segments (SimTiming). `setup_s` is the
/// median of the batch readings.
struct SetupSamples {
  static constexpr std::size_t kBatch = 8;
  std::vector<double> make, start, schedule, batch_host, batch_reference;

  /// Takes whole batches until their constructions add up to `seconds` of
  /// host time, so a cheap set-up gets as many readings as it needs.
  void take_batches(const Workload& workload, double seconds, Reference* reference) {
    for (double spent = 0; spent < seconds;) {
      SimTiming timing;
      for (std::size_t i = 0; i < kBatch; ++i) {
        {
          const Instance instance(workload);
          make.push_back(instance.make_s());
          start.push_back(instance.start_s());
          schedule.push_back(instance.schedule_s());
          timing.segments.push_back(instance.setup_s());
        }
        if (reference != nullptr) timing.slowness.push_back(reference->slowness(512));
      }
      spent += timing.wall_s();
      batch_host.push_back(timing.wall_s() / kBatch);
      if (reference != nullptr) batch_reference.push_back(timing.reference_s() / kBatch);
    }
  }
};

int run_timed(const Options& options, const Workload& workload) {
  Json json;
  json.open('{');
  write_header(json, options, workload);
  const Clock::time_point begin = Clock::now();

  Reference reference;
  SetupSamples setups;
  setups.take_batches(workload, 0.2, &reference);

  // Whole repetitions only: another one starts while it should still end
  // within the budget. Each is preceded by more set-up samples.
  json.key("reps").open('[');
  std::vector<double> walls;
  std::vector<double> reference_walls;
  std::vector<double> rep_costs;
  std::size_t segments = 0;
  bool segments_agree = true;
  // At least two, so the repetitions can be checked against each other.
  constexpr std::size_t kMinReps = 2;
  while (walls.size() < kMinReps ||
         seconds_since(begin) + median(rep_costs) <= options.seconds) {
    const Clock::time_point rep_begin = Clock::now();
    setups.take_batches(workload, 0.1, &reference);
    Instance instance(workload);
    const SimTiming timing = instance.simulate(&reference);
    if (walls.empty()) segments = timing.segments.size();
    segments_agree = segments_agree && timing.segments.size() == segments;
    walls.push_back(timing.wall_s());
    reference_walls.push_back(timing.reference_s());
    rep_costs.push_back(seconds_since(rep_begin));
    json.open('{');
    json.key("wall_s").num(walls.back());
    json.key("reference_wall_s").num(reference_walls.back());
    json.key("outcome");
    write_outcome(json, instance.outcome());
    json.close('}');
  }
  json.close(']');
  json.key("setup_s").num(median(setups.batch_reference));
  json.key("setup_host_s").num(median(setups.batch_host));
  json.key("setup_batches").open('[');
  for (const double s : setups.batch_reference) json.num(s);
  json.close(']');
  json.key("segments").num(static_cast<std::uint64_t>(segments));
  json.key("segments_agree").boolean(segments_agree);
  json.key("wall_s").num(median(reference_walls));
  json.key("wall_host_median_s").num(median(walls));
  json.key("reference_digest").num(static_cast<std::uint64_t>(reference.digest()));
  json.key("peak_rss_mb").num(peak_rss_mb());
  json.close('}');
  std::printf("%s\n", json.text().c_str());
  return 0;
}

int run_traced(const Options& options, const Workload& workload) {
  Json json;
  json.open('{');
  write_header(json, options, workload);
  obs::Profiler& profiler = obs::Profiler::instance();

  SetupSamples setups;
  setups.take_batches(workload, 0.2, nullptr);
  json.key("setup").open('{');
  json.key("make_deployment_s").num(median(setups.make));
  json.key("start_s").num(median(setups.start));
  json.key("schedule_workload_s").num(median(setups.schedule));
  json.close('}');

  Instance untraced(workload);
  const double untraced_wall = untraced.simulate().wall_s();
  json.key("untraced_wall_s").num(untraced_wall);
  json.key("untraced");
  write_outcome(json, untraced.outcome());

  Instance traced(workload);
  profiler.clear();
  profiler.set_enabled(true);
  const double traced_wall = traced.simulate().wall_s();
  profiler.set_enabled(false);
  json.key("traced_wall_s").num(traced_wall);
  json.key("traced");
  write_outcome(json, traced.outcome());
  json.key("profile").raw(profiler.to_json());

  write_counts(json, traced);
  const std::vector<const ledger::Chain*> chains = traced.live_chains();
  bool ok = !chains.empty();
  if (ok) ok = replay_ledger(*chains.front(), 0.1, json);
  json.key("replay_ok").boolean(ok);
  json.key("peak_rss_mb").num(peak_rss_mb());
  json.close('}');
  std::printf("%s\n", json.text().c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || options.seconds < 0) return false;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--no-crash") {
      options.crash = false;
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

}  // namespace
}  // namespace gpbft::perfbench

int main(int argc, char** argv) {
  using namespace gpbft::perfbench;
  Options options;
  Workload workload;
  if (!parse_args(argc, argv, options) ||
      !make_workload(options.workload, options.seed, options.crash, workload)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload pbft-n202|gpbft-n202-macs|"
                 "plane-pbft-n20-failover --seed N --seconds S [--trace] [--no-crash]\n");
    return 2;
  }
  return options.trace ? run_traced(options, workload) : run_timed(options, workload);
}
