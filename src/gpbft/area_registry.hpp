// Area registry and Sybil filter (§III-A, §IV-A1 of the paper).
//
// The paper's Sybil defence rests on two observations:
//   1. "Different nodes cannot report the same geographic information at the
//      same time" — one physical spot holds one device.
//   2. All devices of an application share a small physical area, so peers
//      can spot a report from a position where no device exists.
//
// Observation 2 is peer supervision; we make that assumption explicit as an
// oracle: the AreaRegistry records where devices *actually are* (ground
// truth maintained by the simulation harness — the stand-in for neighbours
// physically seeing each other). The SybilFilter then rejects reports that
//   * fall outside the deployment area,
//   * claim a cell where the registry knows no such device is present, or
//   * collide with another node's report for the same cell at the same
//     report instant (observation 1).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hpp"
#include "geo/csc.hpp"
#include "geo/geopoint.hpp"

namespace gpbft::gpbft {

/// Ground truth of physical device positions (the peer-supervision oracle).
class AreaRegistry {
 public:
  void place(NodeId device, const geo::GeoPoint& position) { positions_[device] = position; }
  void remove(NodeId device) { positions_.erase(device); }

  [[nodiscard]] std::optional<geo::GeoPoint> position_of(NodeId device) const {
    const auto it = positions_.find(device);
    if (it == positions_.end()) return std::nullopt;
    return it->second;
  }

  /// True when `device` is physically within ~tolerance meters of `claim`.
  [[nodiscard]] bool claim_is_truthful(NodeId device, const geo::GeoPoint& claim,
                                       double tolerance_meters = 5.0) const;

  [[nodiscard]] std::size_t size() const { return positions_.size(); }

 private:
  std::unordered_map<NodeId, geo::GeoPoint> positions_;
};

enum class ReportVerdict {
  Accepted,
  OutsideArea,       // claim not within the deployment area prefix
  UntruthfulClaim,   // registry knows the device is elsewhere / absent
  DuplicateLocation, // another node claimed the same cell at the same time
};

[[nodiscard]] const char* verdict_name(ReportVerdict verdict);

/// Stateful per-endorser filter applied to incoming geo reports.
class SybilFilter {
 public:
  SybilFilter(std::string area_prefix, const AreaRegistry* registry);

  /// Checks one report; on DuplicateLocation both the new claimer and the
  /// previous claimer of the cell are flagged (neither can be trusted).
  [[nodiscard]] ReportVerdict check(NodeId device, const geo::GeoPoint& claim,
                                    TimePoint reported_at);

  [[nodiscard]] bool is_flagged(NodeId device) const { return flagged_.contains(device); }
  void unflag(NodeId device) { flagged_.erase(device); }

 private:
  std::string area_prefix_;
  const AreaRegistry* registry_;  // may be null: oracle checks disabled

  struct CellClaim {
    NodeId device;
    TimePoint at;
  };
  std::unordered_map<std::string, CellClaim> last_claim_;  // cell -> last claimer
  std::unordered_set<NodeId> flagged_;
};

}  // namespace gpbft::gpbft
