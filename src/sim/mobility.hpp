// Device mobility models.
//
// G-PBFT's whole premise is the fixed/mobile distinction: fixed devices
// qualify as endorsers, mobile ones must not (§I, §III-B). The Mobility
// driver moves endorser-capable devices on the simulated clock, keeping the
// AreaRegistry ground truth in sync so their reports stay *honest* — a
// mobile device is not an attacker, it just moves.
//
// Patterns:
//   * random_hop — teleports between grid slots at a fixed period (the
//     shared-bicycle / handheld-scanner pattern): never stationary long
//     enough to qualify when the hop period is below the promotion
//     threshold;
//   * relocate_at — a single scheduled move (the "device reinstalled
//     elsewhere" pattern of the era-churn scenarios).
#pragma once

#include <memory>
#include <vector>

#include "gpbft/endorser.hpp"
#include "sim/placement.hpp"

namespace gpbft::sim {

class Mobility {
 public:
  Mobility(net::Simulator& sim, ::gpbft::gpbft::AreaRegistry& area, const Placement& placement)
      : sim_(sim), area_(area), placement_(placement) {}

  Mobility(const Mobility&) = delete;
  Mobility& operator=(const Mobility&) = delete;

  /// Hops `device` through grid slots [slot_base, slot_base + slot_count)
  /// every `period`, starting at `start`. Slots should be disjoint from
  /// other devices' to keep the moves honest.
  void random_hop(::gpbft::gpbft::Endorser& device, Duration period, std::size_t slot_base,
                  std::size_t slot_count, Duration start = Duration::seconds(1));

  /// One scheduled relocation (registry updated at the same instant).
  void relocate_at(::gpbft::gpbft::Endorser& device, Duration when, const geo::GeoPoint& to);

  /// Stops all drivers (safe to call mid-simulation).
  void stop() { *alive_ = false; }

 private:
  void move(::gpbft::gpbft::Endorser& device, const geo::GeoPoint& to);

  net::Simulator& sim_;
  ::gpbft::gpbft::AreaRegistry& area_;
  const Placement& placement_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gpbft::sim
