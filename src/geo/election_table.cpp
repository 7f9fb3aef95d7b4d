#include "geo/election_table.hpp"

#include <algorithm>
#include <sstream>

namespace gpbft::geo {

ElectionTable::ElectionTable(std::size_t history_limit) : history_limit_(history_limit) {}

void ElectionTable::record(NodeId device, const Csc& csc, TimePoint now) {
  DeviceState& state = devices_[device];

  if (!state.has_cell || state.cell != csc.cell()) {
    // Moved (or first sighting): the geographic timer restarts.
    state.cell = csc.cell();
    state.cell_since = now;
    state.has_cell = true;
  }

  ElectionEntry entry;
  entry.csc = csc;
  entry.timestamp = now;
  entry.geographic_timer = now - state.cell_since;
  state.history.push_back(entry);

  if (state.history.size() > history_limit_) {
    state.history.erase(state.history.begin(),
                        state.history.begin() +
                            static_cast<std::ptrdiff_t>(state.history.size() - history_limit_));
  }
}

Duration ElectionTable::timer(NodeId device) const {
  const DeviceState* state = devices_.find(device);
  if (state == nullptr || state->history.empty()) return Duration{0};
  return state->history.back().geographic_timer;
}

Duration ElectionTable::timer_at(NodeId device, TimePoint now) const {
  const DeviceState* state = devices_.find(device);
  if (state == nullptr || !state->has_cell) return Duration{0};
  if (now < state->cell_since) return Duration{0};
  return now - state->cell_since;
}

void ElectionTable::reset_timer(NodeId device, TimePoint now) {
  if (DeviceState* state = devices_.find(device)) state->cell_since = now;
}

std::vector<ElectionEntry> ElectionTable::reports_in_window(NodeId device, TimePoint now,
                                                            Duration window) const {
  std::vector<ElectionEntry> out;
  const DeviceState* state = devices_.find(device);
  if (state == nullptr) return out;
  const TimePoint start = TimePoint{now.ns - window.ns};
  for (const ElectionEntry& entry : state->history) {
    if (entry.timestamp >= start && entry.timestamp <= now) out.push_back(entry);
  }
  return out;
}

std::optional<ElectionEntry> ElectionTable::latest(NodeId device) const {
  const DeviceState* state = devices_.find(device);
  if (state == nullptr || state->history.empty()) return std::nullopt;
  return state->history.back();
}

std::vector<NodeId> ElectionTable::devices() const {
  std::vector<NodeId> out;
  out.reserve(devices_.size());
  for (const auto& [id, state] : devices_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> ElectionTable::stationary_devices(TimePoint now, Duration threshold) const {
  std::vector<NodeId> out;
  for (const auto& [id, state] : devices_) {
    if (timer_at(id, now) >= threshold) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ElectionTable::forget(NodeId device) { devices_.erase(device); }

std::string ElectionTable::render(NodeId device) const {
  std::ostringstream os;
  os << "  # | CSC                      | Timestamp (s) | Geographic Timer\n";
  const DeviceState* state = devices_.find(device);
  if (state == nullptr) return os.str();
  std::size_t row = 1;
  for (const ElectionEntry& entry : state->history) {
    os << "  " << row++ << " | " << entry.csc.str() << " | " << entry.timestamp.to_seconds()
       << " | " << format_hms(entry.geographic_timer) << "\n";
  }
  return os.str();
}

}  // namespace gpbft::geo
