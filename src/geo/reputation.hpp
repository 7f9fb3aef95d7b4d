// Reputation ledger for the endorser election.
//
// The paper's election trusts geographic stability alone: a device that
// stays in one cell for 72 h is promoted (§III-B3). That leaves the
// committee open to adversaries who attack the election itself — flaky
// endorsers that stay put, Sybil report floods, mobility oscillation at
// the promotion boundary. The reputation ledger scores each device from
// observed behaviour (blocks produced, view changes suffered as primary,
// Byzantine/fault observations, missed heartbeats, invariant violations)
// and the election weights the geographic timer by that score, demoting
// devices that fall below a quarantine threshold.
//
// Everything is deterministic fixed-point arithmetic: scores are integral
// milli-units (1000 = neutral) and decay toward neutral along a
// piecewise-linear approximation of exponential decay (exact halvings per
// elapsed half-life, linear within one). No floating point, no RNG — the
// same observation sequence always yields the same scores, and scores
// snapshot/restore losslessly through persisted configuration blocks.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"
#include "common/types.hpp"

namespace gpbft::geo {

/// Tuning knobs for the reputation model. All score values are fixed-point
/// milli-units. `enabled` gates *influence* (election weighting, quarantine,
/// score persistence) — observations are always recorded, so a stock run can
/// still report what reputation *would* have flagged.
struct ReputationParams {
  bool enabled{false};
  std::int64_t initial{1000};   ///< score of a never-observed device
  std::int64_t neutral{1000};   ///< decay attractor
  std::int64_t floor{0};
  std::int64_t ceiling{2000};
  std::int64_t block_reward{25};            ///< block produced on time
  std::int64_t view_change_penalty{350};    ///< view change suffered as primary
  std::int64_t fault_penalty{500};          ///< observed Byzantine behaviour
  std::int64_t heartbeat_penalty{300};      ///< no geo-report in the window
  /// Geo-report rate anomaly (Sybil flood). Deliberately below `enter` in
  /// one strike: the era switch that detects a flood must not seat the
  /// flooder, so detection and demotion land in the same election.
  std::int64_t sybil_penalty{650};
  Duration half_life{Duration::hours(24)};  ///< decay toward neutral
  /// Hysteresis band: a device is quarantined when its score drops below
  /// `quarantine_enter` and rehabilitated only once decay lifts it back
  /// above `quarantine_exit`. With the default penalties a single strike
  /// (1000 - 350 = 650) never quarantines; repeated strikes do.
  std::int64_t quarantine_enter{400};
  std::int64_t quarantine_exit{750};
};

/// Deterministic per-device behaviour scores with exponential decay in
/// sim-time and a hysteresis quarantine latch.
class ReputationLedger {
 public:
  explicit ReputationLedger(ReputationParams params = {});

  [[nodiscard]] const ReputationParams& params() const { return params_; }

  // --- observations ------------------------------------------------------
  void record_block_produced(NodeId device, TimePoint now);
  void record_view_change(NodeId device, TimePoint now);
  void record_fault_observation(NodeId device, TimePoint now);
  void record_missed_heartbeat(NodeId device, TimePoint now);
  void record_sybil_anomaly(NodeId device, TimePoint now);

  // --- queries ------------------------------------------------------------
  /// Score projected to `now` (decay applied, no state mutated). Devices
  /// never observed score `params.initial`.
  [[nodiscard]] std::int64_t score_of(NodeId device, TimePoint now) const;

  /// Effective quarantine state at `now`: latched devices stay quarantined
  /// until decay lifts their score above `quarantine_exit`; unlatched
  /// devices are quarantined only below `quarantine_enter`.
  [[nodiscard]] bool quarantined(NodeId device, TimePoint now) const;

  /// Devices with recorded observations, ascending by id.
  [[nodiscard]] std::vector<NodeId> devices() const;

  [[nodiscard]] std::size_t size() const { return states_.size(); }

  // --- persistence --------------------------------------------------------
  struct Snapshot {
    NodeId device;
    std::int64_t score{0};  ///< milli fixed-point, decayed to snapshot time
    bool quarantined{false};
    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  /// Full ledger state decayed to `now`, ascending by device id — the form
  /// persisted inside configuration blocks.
  [[nodiscard]] std::vector<Snapshot> snapshot(TimePoint now) const;

  /// Reinstates one device's state (from a persisted configuration block).
  /// Overwrites any local observations for that device.
  void restore(const Snapshot& snap, TimePoint now);

  void forget(NodeId device);

 private:
  struct State {
    std::int64_t score{0};
    TimePoint updated{};
    bool latched{false};  ///< quarantine latch (hysteresis)
  };

  /// Decays `state.score` toward neutral as of `now`.
  [[nodiscard]] std::int64_t decayed(const State& state, TimePoint now) const;

  /// Folds decay into the stored score, applies `delta`, clamps, and
  /// updates the quarantine latch.
  void apply(NodeId device, std::int64_t delta, TimePoint now);

  ReputationParams params_;
  std::unordered_map<NodeId, State> states_;
};

}  // namespace gpbft::geo
