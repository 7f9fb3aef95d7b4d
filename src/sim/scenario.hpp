// Declarative scenario specifications.
//
// A ScenarioSpec is the single description of a simulated deployment: which
// protocol to run (PBFT / G-PBFT / dBFT / PoW), how many nodes and clients,
// committee bounds, network and placement models, the workload, and an
// optional chaos (fault-injection) plan reference. Every consumer of the
// harness — the experiment runners, the chaos campaigns, the CLI, benches,
// examples and tests — builds its deployments from a spec (deployment.hpp)
// instead of wiring protocol objects by hand.
//
// Specs serialise to a small deterministic key=value text format
// (print_scenario / parse_scenario): one `key=value` per line, `#` comments,
// durations as integral nanoseconds (`*_ns` keys), doubles printed with
// %.17g so parse(print(spec)) == spec exactly. Parsing is strict — unknown
// keys, trailing junk and out-of-range values are errors, not warnings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "net/network.hpp"
#include "sim/placement.hpp"

namespace gpbft::sim {

enum class ProtocolKind { Pbft, Gpbft, Dbft, Pow };

[[nodiscard]] const char* protocol_name(ProtocolKind kind);
/// Parses "pbft" / "gpbft" / "dbft" / "pow"; error on anything else.
[[nodiscard]] Result<ProtocolKind> protocol_from_name(const std::string& name);

/// How client devices generate requests.
///  * PerClient — the seed behaviour: one WorkloadDriver per concrete
///    pbft::Client submits `txs_per_client` transactions at a constant
///    frequency (§V-B: every device proposes at a fixed rate).
///  * Plane — a sim::WorkloadPlane multiplexes `devices` virtual IoT
///    devices over the deployment's O(regions) concrete clients with an
///    open-loop arrival process; device count no longer implies per-device
///    object overhead.
enum class WorkloadMode { PerClient, Plane };

[[nodiscard]] const char* workload_mode_name(WorkloadMode mode);
/// Parses "per_client" / "plane"; error on anything else.
[[nodiscard]] Result<WorkloadMode> workload_mode_from_name(const std::string& name);

/// Open-loop arrival process of the workload plane (rates are per device):
/// Constant spaces arrivals evenly, Poisson draws exponential gaps, Burst
/// alternates on/off windows, Diurnal modulates a raised-cosine day curve.
enum class ArrivalProcess { Constant, Poisson, Burst, Diurnal };

[[nodiscard]] const char* arrival_name(ArrivalProcess process);
/// Parses "constant" / "poisson" / "burst" / "diurnal".
[[nodiscard]] Result<ArrivalProcess> arrival_from_name(const std::string& name);

/// Client workload (§V-B: every device proposes at a fixed rate). The
/// PerClient fields drive sim::schedule_workload; `client_retries` is the
/// client-retransmission switch: measurement runs disable retries so
/// REQUEST traffic matches the paper's loss-free testbed; chaos runs keep
/// them on.
struct WorkloadSpec {
  std::uint64_t txs_per_client{12};
  Duration period = Duration::seconds(5);
  std::size_t payload_bytes{32};
  Amount fee{10};
  TimePoint start{Duration::seconds(1).ns};
  Duration stagger = Duration::millis(25);  // multiplied by the client index
  bool client_retries{true};

  // --- workload plane (consulted only when mode == Plane) -------------------
  WorkloadMode mode{WorkloadMode::PerClient};
  /// Virtual IoT devices multiplexed over the concrete clients.
  std::uint64_t devices{100'000};
  ArrivalProcess arrival{ArrivalProcess::Poisson};
  /// Mean submissions per device per second (aggregate = devices * rate).
  double rate_hz{0.001};
  /// Generation window: arrivals occur in [start, start + horizon).
  Duration horizon = Duration::seconds(60);
  /// Burst process: full-rate windows of `burst_on` separated by silent
  /// windows of `burst_off`.
  Duration burst_on = Duration::seconds(5);
  Duration burst_off = Duration::seconds(15);
  /// Diurnal process: raised-cosine day of this period whose night floor is
  /// `diurnal_trough` x the peak rate.
  Duration diurnal_period = Duration::seconds(120);
  double diurnal_trough{0.2};

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Consensus batching knobs shared by the PBFT / G-PBFT / dBFT engines
/// (pbft::PbftConfig::batch_close_*). The default — size 1 — reproduces the
/// unbatched seed behaviour exactly; see docs/protocol.md §11.
struct BatchSpec {
  /// Queued requests that close an accumulating batch immediately.
  std::size_t size{1};
  /// Deadline for a partially filled batch, measured from its first request.
  Duration timeout = Duration::millis(250);

  friend bool operator==(const BatchSpec&, const BatchSpec&) = default;
};

/// Committee bounds, era cadence and the genesis admittance lists (G-PBFT:
/// §V-A min 4 / max 40, §III-C blacklist and whitelist; dBFT reuses
/// `initial` as its delegate count ceiling via DbftSpec).
struct CommitteeSpec {
  std::size_t initial{4};
  std::size_t min{4};
  std::size_t max{40};
  Duration era_period = Duration::seconds(60);
  /// Devices no era switch seats (a seated one is dropped at the next).
  std::vector<NodeId> blacklist;
  /// Candidates seated at the next era switch without the stationarity
  /// qualification, while the committee is below `max`.
  std::vector<NodeId> whitelist;

  friend bool operator==(const CommitteeSpec&, const CommitteeSpec&) = default;
};

/// Geographic-promotion machinery (Algorithm 1 parameters).
struct GeoSpec {
  Duration report_period = Duration::seconds(10);
  Duration window = Duration::seconds(60);
  std::size_t min_reports{3};
  Duration promotion_threshold = Duration::hours(72);
  bool reports_on_chain{false};

  friend bool operator==(const GeoSpec&, const GeoSpec&) = default;
};

/// PBFT engine knobs shared by the PBFT, G-PBFT and dBFT deployments.
/// Defaults mirror pbft::PbftConfig so a default spec builds the same
/// replica a default PbftConfig does.
struct EngineSpec {
  std::size_t batch_size{8};
  std::size_t checkpoint_interval{16};
  bool compute_macs{true};
  Duration request_timeout = Duration::seconds(20);
  Duration view_change_timeout = Duration::seconds(10);

  friend bool operator==(const EngineSpec&, const EngineSpec&) = default;
};

/// dBFT deployment parameters (NEO-style block pacing).
struct DbftSpec {
  Duration block_interval = Duration::seconds(15);
  std::size_t delegates{7};
  std::size_t epoch_blocks{16};

  friend bool operator==(const DbftSpec&, const DbftSpec&) = default;
};

/// PoW deployment parameters. The consensus difficulty is derived as
/// nodes * hashrate * block_interval so the whole network finds a block
/// every `block_interval` on average.
struct PowSpec {
  Duration block_interval = Duration::seconds(10);
  Height confirmations{3};
  double hashrate{1e6};  // hashes per second per IoT-class miner

  friend bool operator==(const PowSpec&, const PowSpec&) = default;
};

/// Optional fault-plan reference: light/medium/heavy select the ChaosProfile
/// of the same name (chaos.hpp), and the chances below layer opt-in
/// families on top ("none" with every chance zero runs fault-free). The
/// plan is generated over `horizon` from a seed the caller of
/// sim::run_chaos_scenario supplies: a scenario file's run uses the spec's
/// seed, a campaign cell a seed mixed from its base seed, run index,
/// protocol and intensity.
struct ChaosSpec {
  std::string intensity{"none"};
  Duration horizon = Duration::seconds(40);
  Duration liveness_grace = Duration::seconds(300);
  /// Durability chaos on top of the intensity profile: per decision step,
  /// the chance a node crash–restarts from its simulated disk and the
  /// chance a random disk is corrupted (torn write / bit rot / stale
  /// snapshot). Zero (the default) disables both families.
  double restart_chance{0.0};
  double disk_fault_chance{0.0};
  /// Election-attack chances (per decision step, own forked RNG stream):
  /// Sybil geo-report floods, targeted crashes of the most-recently-elected
  /// endorser, and mobility oscillation at the stability boundary. Zero
  /// keeps plans byte-identical to pre-attack runs.
  double sybil_burst_chance{0.0};
  double targeted_crash_chance{0.0};
  double oscillate_chance{0.0};
  /// Wire-tamper chaos (per decision step, own forked RNG stream): the
  /// chance a tamper window opens — an in-flight adversary mutating
  /// envelopes with bit flips, truncation, extension, type confusion,
  /// oversized payloads and replays. `tamper_mode` picks the adversary
  /// model: "replace" (MITM: the mutant takes the genuine message's place)
  /// or "inject" (man-on-the-side: the genuine message is untouched and the
  /// mutant arrives as an extra edge-injected ghost; replays are off, since
  /// a replayed genuine message legitimately draws an answer).
  double tamper_chance{0.0};
  std::string tamper_mode{"replace"};

  /// Whether a run of this block injects any fault at all.
  [[nodiscard]] bool enabled() const {
    return intensity != "none" || restart_chance > 0.0 || disk_fault_chance > 0.0 ||
           sybil_burst_chance > 0.0 || targeted_crash_chance > 0.0 || oscillate_chance > 0.0 ||
           tamper_chance > 0.0;
  }

  friend bool operator==(const ChaosSpec&, const ChaosSpec&) = default;
};

/// Reputation-weighted endorser election (G-PBFT only; the other protocols
/// ignore this block). Scores always *record*; `enabled` gates their
/// influence — election ranking, quarantine exclusion and the score
/// snapshot persisted in era-configuration blocks.
struct ReputationSpec {
  bool enabled{false};
  Duration half_life = Duration::hours(24);
  /// Milli-score hysteresis band: quarantine latches below `enter` and
  /// releases only once decay lifts the score past `exit` (1000 = neutral).
  std::int64_t quarantine_enter{400};
  std::int64_t quarantine_exit{750};
  /// Era-switch flood audit: reports above `rate_factor` x the expected
  /// per-window count earn a Sybil-anomaly strike.
  std::size_t sybil_rate_factor{3};

  friend bool operator==(const ReputationSpec&, const ReputationSpec&) = default;
};

/// The full declarative deployment description.
struct ScenarioSpec {
  ProtocolKind protocol{ProtocolKind::Gpbft};
  std::uint64_t seed{1};
  /// Consensus-capable nodes: replicas / endorser-capable devices /
  /// dBFT members / miners, ids 1..nodes.
  std::size_t nodes{4};
  /// Proposing client devices, ids kClientIdBase+1.. (for PoW these drive
  /// transaction gossip to every miner).
  std::size_t clients{0};
  /// Simulation guard rail for run-until-committed drivers.
  Duration deadline = Duration::seconds(4000);
  /// Unread, and outside the text format. It remains only because
  /// perfbench/driver.cpp assigns `spec.threads = 1`; delete it together
  /// with that assignment.
  std::size_t threads{1};

  WorkloadSpec workload;
  CommitteeSpec committee;
  GeoSpec geo;
  EngineSpec engine;
  BatchSpec batch;
  net::NetConfig net;
  PlacementConfig placement;
  DbftSpec dbft;
  PowSpec pow;
  ChaosSpec chaos;
  ReputationSpec reputation;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Strict value parsers behind parse_scenario, shared with the CLI's flags.
/// Each consumes the whole string or fails: "3abc", "1e3garbage" and silent
/// overflow are errors, not a quietly truncated number.
[[nodiscard]] Result<std::uint64_t> parse_u64(const std::string& value);
[[nodiscard]] Result<double> parse_double(const std::string& value);
/// Comma-separated positive integers ("4,40,130"); "" is the empty list.
/// Empty items ("1,,2"), zero and junk ("3x") are errors.
[[nodiscard]] Result<std::vector<std::uint64_t>> parse_id_list(const std::string& value);

/// Deterministic key=value rendering; parse_scenario(print_scenario(s)) == s.
[[nodiscard]] std::string print_scenario(const ScenarioSpec& spec);

/// Strict parse of the text format. Unknown keys, malformed numbers
/// (trailing junk, overflow), invalid enum values and out-of-range
/// parameters are errors. Keys not present keep their defaults.
[[nodiscard]] Result<ScenarioSpec> parse_scenario(const std::string& text);

}  // namespace gpbft::sim
