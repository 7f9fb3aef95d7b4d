// Endorser election — Algorithm 1 of the paper plus roster assembly.
//
// Algorithm 1 ("Geographical location-related authentication of endorsers")
// runs every era period T over the chain-recorded geo reports G(v, t):
//
//   for each current endorser v:   fewer than n reports in the window, or
//                                  any two reports at different locations
//                                  -> invalid next era (demoted)
//   for each candidate c:          at least n reports, all at the same
//                                  location -> endorser next era (promoted)
//
// We additionally require a candidate's geographic timer to have reached
// the promotion threshold (72 h in the paper: "an IoT device stays at the
// same location for 72 hours will be elected as an endorser").
//
// build_roster() then applies the genesis admittance policy (§III-C):
// blacklist exclusion, whitelist fast-path, penalized-producer expulsion
// (§III-B5: missed block / fork), and the min/max committee bounds — at the
// maximum, election is suspended until members leave.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "geo/election_table.hpp"
#include "geo/reputation.hpp"
#include "gpbft/area_registry.hpp"
#include "ledger/genesis.hpp"

namespace gpbft::gpbft {

struct ElectionParams {
  Duration window = Duration::seconds(60);       // the t of G(v, t)
  std::size_t min_reports{3};                    // the n of Algorithm 1
  Duration promotion_threshold = Duration::hours(72);
};

struct ElectionOutcome {
  std::vector<NodeId> demoted;   // endorsers judged invalid for next era
  std::vector<NodeId> promoted;  // candidates qualified for next era
};

/// Enrolled locations: geohash cell per endorser, taken from the chain's
/// configuration transactions (genesis locations + each promotion's cell).
/// Kept as the text the block carried, so the next configuration block
/// carries it back unchanged, even where it names no cell.
using EnrolledCells = FlatMap<NodeId, std::string>;

/// Pure Algorithm 1 over an election table snapshot.
///
/// One strengthening over the paper's listing: Algorithm 1 as printed only
/// compares reports *within* the lookback window, so an endorser that moved
/// more than `window` ago would look stationary again and escape the
/// demotion §III-B1 clearly intends ("if the location of an endorser
/// changes, it will be kicked out"). When `enrolled` provides the cell an
/// endorser was elected at (carried on chain, §III-C), any window report
/// from a different cell demotes it regardless of when the move happened.
/// An enrolled text that is no 12-digit cell (empty, malformed, another
/// precision) matches no report.
[[nodiscard]] ElectionOutcome run_geographic_authentication(
    const geo::ElectionTable& table, const std::vector<NodeId>& endorsers,
    const std::vector<NodeId>& candidates, TimePoint now, const ElectionParams& params,
    const EnrolledCells* enrolled = nullptr);

struct RosterInputs {
  std::vector<NodeId> current;          // current committee
  ElectionOutcome outcome;              // Algorithm 1 result
  std::set<NodeId> penalized;           // missed-block / fork producers
  std::set<NodeId> sybil_flagged;       // SybilFilter rejects
  std::vector<NodeId> whitelisted_candidates;  // join without qualification

  /// Optional reputation ledger. When set *and* its params enable weighting,
  /// the roster ranks by geographic timer × score (neutral score 1000 keeps
  /// the stock order) and quarantined devices are excluded outright. When
  /// null or disabled the election is byte-identical to the stock one.
  const geo::ReputationLedger* reputation{nullptr};
};

/// Assembles the next era's roster under the admittance policy. The result
/// is ordered by descending geographic timer (ties by id) — that order *is*
/// the block-production priority of the incentive mechanism (§III-B5), so
/// it travels inside the configuration transaction and every endorser
/// derives the same primary schedule. With reputation enabled the ranking
/// key becomes timer × score/1000, so a neutral committee orders exactly as
/// before while misbehaving members sink (and quarantined ones never seat).
[[nodiscard]] std::vector<NodeId> build_roster(const RosterInputs& inputs,
                                               const ledger::AdmittancePolicy& policy,
                                               const geo::ElectionTable& table, TimePoint now);

}  // namespace gpbft::gpbft
