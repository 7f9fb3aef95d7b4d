#include "gpbft/election.hpp"

#include <algorithm>

namespace gpbft::gpbft {

namespace {

/// True when every report in `reports` names the same location (Algorithm 1
/// lines 8-13 / 20-24 compare longitude and latitude pairwise; comparing
/// each against the first is equivalent and linear).
bool all_same_location(const std::vector<geo::ElectionEntry>& reports) {
  for (std::size_t i = 1; i < reports.size(); ++i) {
    if (!reports[i].csc.same_cell(reports[0].csc)) return false;
  }
  return true;
}

}  // namespace

ElectionOutcome run_geographic_authentication(const geo::ElectionTable& table,
                                              const std::vector<NodeId>& endorsers,
                                              const std::vector<NodeId>& candidates,
                                              TimePoint now, const ElectionParams& params,
                                              const EnrolledCells* enrolled) {
  ElectionOutcome outcome;

  // Lines 2-14: re-authenticate the current committee.
  for (NodeId v : endorsers) {
    const auto reports = table.reports_in_window(v, now, params.window);
    bool valid = reports.size() >= params.min_reports && all_same_location(reports);
    if (valid && enrolled != nullptr) {
      // Enrolled-location check (see header): every report must come from
      // the cell the endorser was elected at.
      if (const std::string* text = enrolled->find(v)) {
        const std::optional<geo::GeoCell> home = geo::GeoCell::parse(*text);
        for (const geo::ElectionEntry& report : reports) {
          if (!home || report.csc.cell() != *home) {
            valid = false;
            break;
          }
        }
      }
    }
    if (!valid) outcome.demoted.push_back(v);
  }

  // Lines 15-26: qualify candidates.
  for (NodeId c : candidates) {
    const auto reports = table.reports_in_window(c, now, params.window);
    if (reports.size() < params.min_reports) continue;
    if (!all_same_location(reports)) continue;
    // The 72-hour stationarity requirement (§III-B3).
    if (table.timer_at(c, now) < params.promotion_threshold) continue;
    outcome.promoted.push_back(c);
  }

  std::sort(outcome.demoted.begin(), outcome.demoted.end());
  std::sort(outcome.promoted.begin(), outcome.promoted.end());
  return outcome;
}

std::vector<NodeId> build_roster(const RosterInputs& inputs,
                                 const ledger::AdmittancePolicy& policy,
                                 const geo::ElectionTable& table, TimePoint now) {
  const auto contains = [](const std::vector<NodeId>& v, NodeId id) {
    return std::find(v.begin(), v.end(), id) != v.end();
  };

  const geo::ReputationLedger* reputation =
      (inputs.reputation != nullptr && inputs.reputation->params().enabled) ? inputs.reputation
                                                                            : nullptr;

  std::vector<NodeId> roster;
  const auto eligible = [&](NodeId id) {
    if (policy.blacklisted(id)) return false;
    if (inputs.penalized.contains(id)) return false;
    if (inputs.sybil_flagged.contains(id)) return false;
    if (reputation != nullptr && reputation->quarantined(id, now)) return false;
    return true;
  };

  // Surviving current members.
  for (NodeId id : inputs.current) {
    if (!eligible(id)) continue;
    if (contains(inputs.outcome.demoted, id)) continue;
    roster.push_back(id);
  }

  // Whitelisted candidates join without qualification (§III-C), then the
  // Algorithm-1 promotions — both only while room remains below the
  // maximum ("endorser election will be terminated until old endorsers
  // leave").
  const auto admit = [&](const std::vector<NodeId>& ids) {
    for (NodeId id : ids) {
      if (roster.size() >= policy.max_endorsers) break;
      if (!eligible(id)) continue;
      if (contains(roster, id)) continue;
      roster.push_back(id);
    }
  };
  admit(inputs.whitelisted_candidates);
  admit(inputs.outcome.promoted);

  // Production-priority order: descending geographic timer, ties by id
  // ("a longer time in the geographic timer will have a higher chance of
  // generating a new block", §III-B5). With reputation enabled the key is
  // timer × score/1000 — a uniformly neutral committee keeps the stock
  // order exactly, so the golden hashes with reputation off stay valid.
  const auto rank = [&](NodeId id) -> std::int64_t {
    const std::int64_t timer = table.timer_at(id, now).ns;
    if (reputation == nullptr) return timer;
    return timer / 1000 * reputation->score_of(id, now);
  };
  std::sort(roster.begin(), roster.end(), [&](NodeId a, NodeId b) {
    const std::int64_t ra = rank(a);
    const std::int64_t rb = rank(b);
    if (ra != rb) return ra > rb;
    return a < b;
  });
  return roster;
}

}  // namespace gpbft::gpbft
