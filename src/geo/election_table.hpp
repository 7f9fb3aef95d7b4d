// The election table (§III-B3, Table II of the paper).
//
// Endorsers maintain, per device, the history of (CSC, timestamp) pairs the
// device reported, plus a *geographic timer* recording for how long the
// device has stayed in the same cell. A device whose timer reaches the
// promotion threshold (72 h in the paper) becomes an endorser candidate; the
// timer also weights block-production priority in the incentive mechanism
// and is reset when the device produces a block.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "geo/csc.hpp"

namespace gpbft::geo {

/// One row of the election table, as in Table II. All integers: recording,
/// copying and pruning rows allocates nothing once a device's history has
/// reached its limit.
struct ElectionEntry {
  Csc csc;
  TimePoint timestamp;
  Duration geographic_timer;  // time at the same location up to `timestamp`
};

class ElectionTable {
 public:
  /// `history_limit` bounds per-device retained rows (old rows are pruned).
  explicit ElectionTable(std::size_t history_limit = 256);

  /// Records a report. If the device moved to a different cell its timer
  /// restarts from zero; otherwise the timer accumulates the elapsed time
  /// since its first report from that cell (Table II semantics).
  void record(NodeId device, const Csc& csc, TimePoint now);

  /// Geographic timer of a device as of its last report (zero if unknown).
  [[nodiscard]] Duration timer(NodeId device) const;

  /// Timer projected to `now`, assuming the device has not moved since its
  /// last report. Used when ranking producers between reports.
  [[nodiscard]] Duration timer_at(NodeId device, TimePoint now) const;

  /// Resets a device's timer (after it produced a block, §III-B5). The
  /// device keeps its location history; accumulation restarts at `now`.
  void reset_timer(NodeId device, TimePoint now);

  /// Reports of a device within the window [now - window, now] — the
  /// chain-based G(v, t) lookup Algorithm 1 iterates over.
  [[nodiscard]] std::vector<ElectionEntry> reports_in_window(NodeId device, TimePoint now,
                                                             Duration window) const;

  /// Latest entry for a device, if any.
  [[nodiscard]] std::optional<ElectionEntry> latest(NodeId device) const;

  /// All known devices.
  [[nodiscard]] std::vector<NodeId> devices() const;

  /// Devices whose projected timer at `now` is >= `threshold` (candidates
  /// for promotion).
  [[nodiscard]] std::vector<NodeId> stationary_devices(TimePoint now, Duration threshold) const;

  void forget(NodeId device);

  /// Renders the table for a device in the paper's Table II layout.
  [[nodiscard]] std::string render(NodeId device) const;

 private:
  struct DeviceState {
    std::vector<ElectionEntry> history;
    TimePoint cell_since;   // when the current cell was first reported
    GeoCell cell;           // current cell
    bool has_cell{false};
  };

  std::size_t history_limit_;
  FlatMap<NodeId, DeviceState> devices_;
};

}  // namespace gpbft::geo
