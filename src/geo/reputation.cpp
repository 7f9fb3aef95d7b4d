#include "geo/reputation.hpp"

#include <algorithm>

namespace gpbft::geo {

ReputationLedger::ReputationLedger(ReputationParams params) : params_(params) {}

std::int64_t ReputationLedger::decayed(const State& state, TimePoint now) const {
  std::int64_t deviation = state.score - params_.neutral;
  if (deviation == 0 || now <= state.updated) return state.score;
  const std::int64_t half_life = params_.half_life.ns;
  if (half_life <= 0) return state.score;
  std::int64_t elapsed = (now - state.updated).ns;
  // Exact halving per full half-life; a 63-step cap covers any i64 span.
  std::int64_t halvings = elapsed / half_life;
  if (halvings > 62) halvings = 62;
  if (deviation > 0) {
    deviation >>= halvings;
  } else {
    deviation = -((-deviation) >> halvings);
  }
  // Linear interpolation inside the final half-life: d' = d - d/2 * r/hl.
  const std::int64_t remainder = elapsed % half_life;
  deviation -= deviation * remainder / (2 * half_life);
  return params_.neutral + deviation;
}

void ReputationLedger::apply(NodeId device, std::int64_t delta, TimePoint now) {
  auto [it, inserted] = states_.try_emplace(device, State{params_.initial, now, false});
  State& state = it->second;
  std::int64_t score = inserted ? state.score : decayed(state, now);
  score += delta;
  score = std::clamp(score, params_.floor, params_.ceiling);
  state.score = score;
  state.updated = now;
  if (state.latched) {
    if (score >= params_.quarantine_exit) state.latched = false;
  } else if (score < params_.quarantine_enter) {
    state.latched = true;
  }
}

void ReputationLedger::record_block_produced(NodeId device, TimePoint now) {
  apply(device, params_.block_reward, now);
}

void ReputationLedger::record_view_change(NodeId device, TimePoint now) {
  apply(device, -params_.view_change_penalty, now);
}

void ReputationLedger::record_fault_observation(NodeId device, TimePoint now) {
  apply(device, -params_.fault_penalty, now);
}

void ReputationLedger::record_missed_heartbeat(NodeId device, TimePoint now) {
  apply(device, -params_.heartbeat_penalty, now);
}

void ReputationLedger::record_sybil_anomaly(NodeId device, TimePoint now) {
  apply(device, -params_.sybil_penalty, now);
}

std::int64_t ReputationLedger::score_of(NodeId device, TimePoint now) const {
  const auto it = states_.find(device);
  if (it == states_.end()) return params_.initial;
  return decayed(it->second, now);
}

bool ReputationLedger::quarantined(NodeId device, TimePoint now) const {
  const auto it = states_.find(device);
  if (it == states_.end()) return false;
  const std::int64_t score = decayed(it->second, now);
  if (it->second.latched) return score < params_.quarantine_exit;
  return score < params_.quarantine_enter;
}

std::vector<NodeId> ReputationLedger::devices() const {
  std::vector<NodeId> out;
  out.reserve(states_.size());
  for (const auto& [id, state] : states_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ReputationLedger::Snapshot> ReputationLedger::snapshot(TimePoint now) const {
  std::vector<Snapshot> out;
  out.reserve(states_.size());
  for (const auto& [id, state] : states_) {
    out.push_back(Snapshot{id, decayed(state, now),
                           state.latched && decayed(state, now) < params_.quarantine_exit});
  }
  std::sort(out.begin(), out.end(),
            [](const Snapshot& a, const Snapshot& b) { return a.device < b.device; });
  return out;
}

void ReputationLedger::restore(const Snapshot& snap, TimePoint now) {
  states_[snap.device] = State{snap.score, now, snap.quarantined};
}

void ReputationLedger::forget(NodeId device) { states_.erase(device); }

}  // namespace gpbft::geo
