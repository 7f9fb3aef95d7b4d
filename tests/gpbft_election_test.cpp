// Unit tests for the G-PBFT election machinery: the AreaRegistry/SybilFilter
// (§IV-A1) and Algorithm 1 + roster assembly (§III-D, §III-C).
#include <gtest/gtest.h>

#include "crypto/address.hpp"
#include "geo/geohash.hpp"
#include "gpbft/election.hpp"
#include "sim/placement.hpp"

namespace gpbft::gpbft {
namespace {

using geo::GeoPoint;

sim::Placement placement() { return sim::Placement{}; }

// --- AreaRegistry ------------------------------------------------------------

TEST(AreaRegistry, TruthfulClaimWithinTolerance) {
  AreaRegistry registry;
  const GeoPoint spot{22.3964, 114.1095};
  registry.place(NodeId{1}, spot);
  EXPECT_TRUE(registry.claim_is_truthful(NodeId{1}, spot));
  // ~3 m off: still truthful at the 5 m tolerance.
  EXPECT_TRUE(registry.claim_is_truthful(NodeId{1}, GeoPoint{22.39642, 114.1095}));
  // ~50 m off: a lie.
  EXPECT_FALSE(registry.claim_is_truthful(NodeId{1}, GeoPoint{22.3969, 114.1095}));
}

TEST(AreaRegistry, UnknownDeviceIsNeverTruthful) {
  AreaRegistry registry;
  EXPECT_FALSE(registry.claim_is_truthful(NodeId{9}, GeoPoint{1, 1}));
}

TEST(AreaRegistry, RemoveForgetsDevice) {
  AreaRegistry registry;
  registry.place(NodeId{1}, GeoPoint{1, 1});
  registry.remove(NodeId{1});
  EXPECT_FALSE(registry.position_of(NodeId{1}).has_value());
}

// --- SybilFilter ----------------------------------------------------------------

TEST(SybilFilter, AcceptsHonestReport) {
  const sim::Placement p = placement();
  AreaRegistry registry;
  const GeoPoint spot = p.position(0);
  registry.place(NodeId{1}, spot);
  SybilFilter filter(p.area_prefix(), &registry);
  EXPECT_EQ(filter.check(NodeId{1}, spot, TimePoint{0}), ReportVerdict::Accepted);
  EXPECT_FALSE(filter.is_flagged(NodeId{1}));
}

TEST(SybilFilter, RejectsClaimOutsideArea) {
  const sim::Placement p = placement();
  AreaRegistry registry;
  registry.place(NodeId{1}, p.outside_position(0));
  SybilFilter filter(p.area_prefix(), &registry);
  EXPECT_EQ(filter.check(NodeId{1}, p.outside_position(0), TimePoint{0}),
            ReportVerdict::OutsideArea);
  EXPECT_TRUE(filter.is_flagged(NodeId{1}));
}

TEST(SybilFilter, RejectsUntruthfulClaim) {
  // The device is physically at position 5 but claims position 0.
  const sim::Placement p = placement();
  AreaRegistry registry;
  registry.place(NodeId{1}, p.position(5));
  SybilFilter filter(p.area_prefix(), &registry);
  EXPECT_EQ(filter.check(NodeId{1}, p.position(0), TimePoint{0}),
            ReportVerdict::UntruthfulClaim);
  EXPECT_TRUE(filter.is_flagged(NodeId{1}));
}

TEST(SybilFilter, RejectsFabricatedIdentity) {
  // A Sybil identity not present in the physical area at all.
  const sim::Placement p = placement();
  AreaRegistry registry;
  SybilFilter filter(p.area_prefix(), &registry);
  EXPECT_EQ(filter.check(NodeId{666}, p.position(0), TimePoint{0}),
            ReportVerdict::UntruthfulClaim);
}

TEST(SybilFilter, DuplicateCellSameInstantFlagsBoth) {
  // "Different nodes cannot report the same geographic information at the
  // same time" (§IV-A1). Without the oracle, the collision rule alone must
  // catch it, so run with a null registry.
  const sim::Placement p = placement();
  SybilFilter filter(p.area_prefix(), nullptr);
  const GeoPoint spot = p.position(0);
  const TimePoint t{Duration::seconds(10).ns};
  EXPECT_EQ(filter.check(NodeId{1}, spot, t), ReportVerdict::Accepted);
  EXPECT_EQ(filter.check(NodeId{2}, spot, t), ReportVerdict::DuplicateLocation);
  EXPECT_TRUE(filter.is_flagged(NodeId{1}));
  EXPECT_TRUE(filter.is_flagged(NodeId{2}));
}

TEST(SybilFilter, SameDeviceMayRepeatItsCell) {
  const sim::Placement p = placement();
  SybilFilter filter(p.area_prefix(), nullptr);
  const GeoPoint spot = p.position(0);
  EXPECT_EQ(filter.check(NodeId{1}, spot, TimePoint{0}), ReportVerdict::Accepted);
  EXPECT_EQ(filter.check(NodeId{1}, spot, TimePoint{Duration::seconds(10).ns}),
            ReportVerdict::Accepted);
  EXPECT_FALSE(filter.is_flagged(NodeId{1}));
}

TEST(SybilFilter, DifferentInstantsDifferentDevicesAllowed) {
  // Cell hand-over at different timestamps is legitimate (device replaced).
  const sim::Placement p = placement();
  SybilFilter filter(p.area_prefix(), nullptr);
  const GeoPoint spot = p.position(0);
  EXPECT_EQ(filter.check(NodeId{1}, spot, TimePoint{0}), ReportVerdict::Accepted);
  EXPECT_EQ(filter.check(NodeId{2}, spot, TimePoint{Duration::seconds(10).ns}),
            ReportVerdict::Accepted);
}

TEST(SybilFilter, UnflagRestoresDevice) {
  const sim::Placement p = placement();
  AreaRegistry registry;
  SybilFilter filter(p.area_prefix(), &registry);
  (void)filter.check(NodeId{1}, p.position(0), TimePoint{0});  // untruthful -> flagged
  EXPECT_TRUE(filter.is_flagged(NodeId{1}));
  filter.unflag(NodeId{1});
  EXPECT_FALSE(filter.is_flagged(NodeId{1}));
}

TEST(SybilFilter, AreaPrefixNamingNoCellContainsNoClaim) {
  // A prefix longer than a CSC cell, or with a character outside the
  // geohash alphabet, names no cell: every claim is outside it.
  const sim::Placement p = placement();
  const GeoPoint spot = p.position(0);
  const std::string full = geohash_encode(spot, 12);
  for (const std::string& prefix :
       {full + "0", geohash_encode(spot, 20), p.area_prefix() + "!", std::string("WECPK"),
        std::string("we cp")}) {
    SybilFilter filter(prefix, nullptr);
    EXPECT_EQ(filter.check(NodeId{1}, spot, TimePoint{0}), ReportVerdict::OutsideArea)
        << "prefix \"" << prefix << "\"";
    EXPECT_TRUE(filter.is_flagged(NodeId{1}));
  }
}

TEST(SybilFilter, EmptyAreaPrefixAcceptsClaimsEverywhere) {
  SybilFilter filter("", nullptr);
  std::uint64_t device = 1;
  for (const GeoPoint& spot : {GeoPoint{90, 0}, GeoPoint{-90, -180}, GeoPoint{0, 0},
                               GeoPoint{45, 90}, GeoPoint{-45, -90}, GeoPoint{22.3964, 114.1095}}) {
    EXPECT_EQ(filter.check(NodeId{device}, spot, TimePoint{0}), ReportVerdict::Accepted)
        << spot.str();
    ++device;
  }
}

TEST(SybilFilter, VerdictNames) {
  EXPECT_STREQ(verdict_name(ReportVerdict::Accepted), "accepted");
  EXPECT_STREQ(verdict_name(ReportVerdict::DuplicateLocation), "duplicate-location");
}

// --- Algorithm 1 -------------------------------------------------------------------

geo::Csc csc_at(const GeoPoint& point, NodeId id) {
  return geo::Csc(point, crypto::address_for_node(id));
}

struct ElectionFixture {
  geo::ElectionTable table;
  ElectionParams params;

  ElectionFixture() {
    params.window = Duration::seconds(60);
    params.min_reports = 3;
    params.promotion_threshold = Duration::seconds(100);
  }

  /// Records `count` reports for `id`, every 10 s ending at `end`.
  void stationary_reports(NodeId id, const GeoPoint& spot, TimePoint end, int count) {
    for (int i = count - 1; i >= 0; --i) {
      table.record(id, csc_at(spot, id),
                   TimePoint{end.ns - Duration::seconds(10 * i).ns});
    }
  }
};

TEST(Algorithm1, StationaryEndorserStaysValid) {
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(200).ns};
  fx.stationary_reports(NodeId{1}, GeoPoint{22.3964, 114.1095}, now, 5);
  const auto outcome =
      run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params);
  EXPECT_TRUE(outcome.demoted.empty());
}

TEST(Algorithm1, EndorserWithTooFewReportsDemoted) {
  // Lines 4-6: Len(G) < n -> invalid.
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(200).ns};
  fx.stationary_reports(NodeId{1}, GeoPoint{22.3964, 114.1095}, now, 2);  // n = 3
  const auto outcome =
      run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params);
  ASSERT_EQ(outcome.demoted.size(), 1u);
  EXPECT_EQ(outcome.demoted[0], NodeId{1});
}

TEST(Algorithm1, MovedEndorserDemoted) {
  // Lines 8-13: differing locations -> invalid.
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(200).ns};
  fx.stationary_reports(NodeId{1}, GeoPoint{22.3964, 114.1095}, now, 3);
  fx.table.record(NodeId{1}, csc_at(GeoPoint{22.40, 114.11}, NodeId{1}), now);
  const auto outcome =
      run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params);
  ASSERT_EQ(outcome.demoted.size(), 1u);
}

TEST(Algorithm1, SilentEndorserDemoted) {
  // No reports at all within the window.
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(500).ns};
  fx.stationary_reports(NodeId{1}, GeoPoint{22.3964, 114.1095},
                        TimePoint{Duration::seconds(100).ns}, 5);  // all too old
  const auto outcome =
      run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params);
  ASSERT_EQ(outcome.demoted.size(), 1u);
}

TEST(Algorithm1, StationaryCandidatePromoted) {
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(200).ns};
  // 150 s of stationarity (> 100 s threshold), 5 reports in window.
  fx.table.record(NodeId{2}, csc_at(GeoPoint{22.3964, 114.1095}, NodeId{2}),
                  TimePoint{Duration::seconds(50).ns});
  fx.stationary_reports(NodeId{2}, GeoPoint{22.3964, 114.1095}, now, 5);
  const auto outcome =
      run_geographic_authentication(fx.table, {}, {NodeId{2}}, now, fx.params);
  ASSERT_EQ(outcome.promoted.size(), 1u);
  EXPECT_EQ(outcome.promoted[0], NodeId{2});
}

TEST(Algorithm1, CandidateBelowStationarityThresholdNotPromoted) {
  // Enough same-place reports, but the geographic timer has not reached the
  // 72-hour-equivalent threshold yet.
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(60).ns};
  fx.stationary_reports(NodeId{2}, GeoPoint{22.3964, 114.1095}, now, 5);  // timer = 40 s
  const auto outcome =
      run_geographic_authentication(fx.table, {}, {NodeId{2}}, now, fx.params);
  EXPECT_TRUE(outcome.promoted.empty());
}

TEST(Algorithm1, MobileCandidateNotPromoted) {
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(500).ns};
  // Moves between two spots: reports disagree.
  for (int i = 0; i < 6; ++i) {
    const GeoPoint spot =
        (i % 2 == 0) ? GeoPoint{22.3964, 114.1095} : GeoPoint{22.3970, 114.1095};
    fx.table.record(NodeId{2}, csc_at(spot, NodeId{2}),
                    TimePoint{now.ns - Duration::seconds(10 * (5 - i)).ns});
  }
  const auto outcome =
      run_geographic_authentication(fx.table, {}, {NodeId{2}}, now, fx.params);
  EXPECT_TRUE(outcome.promoted.empty());
}

TEST(Algorithm1, QuietCandidateIgnored) {
  // Lines 17-19: too few reports -> skip (not an error, just not promoted).
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(500).ns};
  fx.stationary_reports(NodeId{2}, GeoPoint{22.3964, 114.1095}, now, 2);
  const auto outcome =
      run_geographic_authentication(fx.table, {}, {NodeId{2}}, now, fx.params);
  EXPECT_TRUE(outcome.promoted.empty());
}

TEST(Algorithm1, MixedPopulation) {
  ElectionFixture fx;
  const TimePoint now{Duration::seconds(400).ns};
  const GeoPoint a{22.3964, 114.1095}, b{22.3970, 114.1100}, c{22.3975, 114.1105};
  // Endorser 1: stationary (stays). Endorser 2: moved (demoted).
  fx.table.record(NodeId{1}, csc_at(a, NodeId{1}), TimePoint{0});
  fx.stationary_reports(NodeId{1}, a, now, 4);
  fx.stationary_reports(NodeId{2}, b, now, 3);
  fx.table.record(NodeId{2}, csc_at(c, NodeId{2}), now);
  // Candidate 3: qualified. Candidate 4: too few reports.
  fx.table.record(NodeId{3}, csc_at(c, NodeId{3}), TimePoint{0});
  fx.stationary_reports(NodeId{3}, c, now, 4);
  fx.stationary_reports(NodeId{4}, b, now, 1);

  const auto outcome = run_geographic_authentication(fx.table, {NodeId{1}, NodeId{2}},
                                                     {NodeId{3}, NodeId{4}}, now, fx.params);
  EXPECT_EQ(outcome.demoted, std::vector<NodeId>{NodeId{2}});
  EXPECT_EQ(outcome.promoted, std::vector<NodeId>{NodeId{3}});
}

TEST(Algorithm1, EnrolledCellCatchesOldMove) {
  // Regression: a device that moved *before* the lookback window looks
  // stationary within it; only the enrolled-location check demotes it.
  ElectionFixture fx;
  const GeoPoint home{22.3964, 114.1095}, elsewhere{22.3975, 114.1105};
  const TimePoint now{Duration::seconds(500).ns};
  // Old reports from home (outside the 60 s window), recent ones elsewhere.
  fx.stationary_reports(NodeId{1}, home, TimePoint{Duration::seconds(100).ns}, 3);
  fx.stationary_reports(NodeId{1}, elsewhere, now, 5);

  // Without enrolled info: the window reports agree -> stays (the paper's
  // literal Algorithm 1).
  const auto naive = run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params);
  EXPECT_TRUE(naive.demoted.empty());

  // With the chain-recorded enrolled cell: demoted.
  EnrolledCells enrolled;
  enrolled[NodeId{1}] = geohash_encode(home);
  const auto checked =
      run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params, &enrolled);
  ASSERT_EQ(checked.demoted.size(), 1u);
  EXPECT_EQ(checked.demoted[0], NodeId{1});
}

TEST(Algorithm1, EnrolledCellMatchingEndorserStays) {
  ElectionFixture fx;
  const GeoPoint home{22.3964, 114.1095};
  const TimePoint now{Duration::seconds(500).ns};
  fx.stationary_reports(NodeId{1}, home, now, 5);
  EnrolledCells enrolled;
  enrolled[NodeId{1}] = geohash_encode(home);
  const auto outcome =
      run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params, &enrolled);
  EXPECT_TRUE(outcome.demoted.empty());
}

TEST(Algorithm1, EnrolledTextNamingAnotherOrNoCellDemotes) {
  // The enrolled text comes off the chain as written: empty, malformed,
  // too long or of another precision, it matches no report, so a member
  // reporting from its real cell is still demoted.
  const GeoPoint home{22.3964, 114.1095};
  const std::string cell = geohash_encode(home);
  for (const std::string& text : {std::string(), cell.substr(0, 11) + "!", cell + "0",
                                  cell.substr(0, 11), geohash_encode(home, 5)}) {
    ElectionFixture fx;
    const TimePoint now{Duration::seconds(500).ns};
    fx.stationary_reports(NodeId{1}, home, now, 5);
    EnrolledCells enrolled;
    enrolled[NodeId{1}] = text;
    const auto outcome =
        run_geographic_authentication(fx.table, {NodeId{1}}, {}, now, fx.params, &enrolled);
    EXPECT_EQ(outcome.demoted, std::vector<NodeId>{NodeId{1}}) << "enrolled \"" << text << "\"";
  }
}

// --- ElectionTable edges ----------------------------------------------------------

TEST(ElectionTable, TimerProjectsExactlyToPromotionBoundary) {
  // The 72-h promotion threshold is an inclusive boundary: a device whose
  // projected timer reaches it exactly qualifies, one nanosecond earlier
  // does not.
  geo::ElectionTable table;
  const GeoPoint home{22.3964, 114.1095};
  const TimePoint enrolled{Duration::seconds(5).ns};
  table.record(NodeId{1}, csc_at(home, NodeId{1}), enrolled);

  const Duration threshold = Duration::hours(72);
  const TimePoint boundary{enrolled.ns + threshold.ns};
  EXPECT_EQ(table.timer_at(NodeId{1}, TimePoint{boundary.ns - 1}).ns, threshold.ns - 1);
  EXPECT_EQ(table.timer_at(NodeId{1}, boundary), threshold);
  EXPECT_TRUE(table.stationary_devices(TimePoint{boundary.ns - 1}, threshold).empty());
  EXPECT_EQ(table.stationary_devices(boundary, threshold), std::vector<NodeId>{NodeId{1}});
}

TEST(ElectionTable, TimerAtBeforeFirstSightingIsZero) {
  geo::ElectionTable table;
  const TimePoint seen{Duration::seconds(100).ns};
  table.record(NodeId{1}, csc_at(GeoPoint{22.3964, 114.1095}, NodeId{1}), seen);
  // Projection backwards (a caller asking about a past instant) must not
  // go negative, and unknown devices always read zero.
  EXPECT_EQ(table.timer_at(NodeId{1}, TimePoint{Duration::seconds(50).ns}), Duration{0});
  EXPECT_EQ(table.timer_at(NodeId{2}, seen), Duration{0});
}

TEST(ElectionTable, ResetThenReportSameInstantRestartsFromZero) {
  // A device produces a block (timer reset, §III-B5) and its periodic
  // report lands at the same instant: the report must not resurrect the
  // pre-reset accumulation — the timer restarts from the reset point.
  geo::ElectionTable table;
  const GeoPoint home{22.3964, 114.1095};
  table.record(NodeId{1}, csc_at(home, NodeId{1}), TimePoint{0});
  const TimePoint produced{Duration::seconds(100).ns};
  EXPECT_EQ(table.timer_at(NodeId{1}, produced), Duration::seconds(100));

  table.reset_timer(NodeId{1}, produced);
  table.record(NodeId{1}, csc_at(home, NodeId{1}), produced);
  EXPECT_EQ(table.timer(NodeId{1}), Duration{0});
  // Accumulation resumes from the reset instant, not from first sighting.
  const TimePoint later{produced.ns + Duration::seconds(30).ns};
  EXPECT_EQ(table.timer_at(NodeId{1}, later), Duration::seconds(30));
}

TEST(ElectionTable, ResetTimerUnknownDeviceIsNoop) {
  geo::ElectionTable table;
  table.reset_timer(NodeId{7}, TimePoint{Duration::seconds(10).ns});
  EXPECT_EQ(table.timer(NodeId{7}), Duration{0});
}

TEST(ElectionTable, HistoryPrunesToLimitButTimerSurvives) {
  // Per-device history is bounded; pruning old rows must not disturb the
  // geographic timer (cell_since is tracked outside the row list).
  geo::ElectionTable table(/*history_limit=*/4);
  const GeoPoint home{22.3964, 114.1095};
  for (int i = 0; i <= 9; ++i) {
    table.record(NodeId{1}, csc_at(home, NodeId{1}), TimePoint{Duration::seconds(10 * i).ns});
  }
  const TimePoint now{Duration::seconds(90).ns};
  // Only the newest 4 rows survive: a window covering everything sees 4.
  EXPECT_EQ(table.reports_in_window(NodeId{1}, now, Duration::seconds(1000)).size(), 4u);
  ASSERT_TRUE(table.latest(NodeId{1}).has_value());
  EXPECT_EQ(table.latest(NodeId{1})->timestamp, now);
  // The timer still measures from the first sighting at t=0.
  EXPECT_EQ(table.timer(NodeId{1}), Duration::seconds(90));
  EXPECT_EQ(table.timer_at(NodeId{1}, TimePoint{Duration::seconds(100).ns}),
            Duration::seconds(100));
}

// --- roster assembly ------------------------------------------------------------------

TEST(Roster, OrderedByGeographicTimer) {
  geo::ElectionTable table;
  const TimePoint now{Duration::seconds(300).ns};
  const GeoPoint a{22.3964, 114.1095}, b{22.3970, 114.1100}, c{22.3975, 114.1105};
  table.record(NodeId{1}, csc_at(a, NodeId{1}), TimePoint{Duration::seconds(200).ns});
  table.record(NodeId{2}, csc_at(b, NodeId{2}), TimePoint{0});           // longest timer
  table.record(NodeId{3}, csc_at(c, NodeId{3}), TimePoint{Duration::seconds(100).ns});

  RosterInputs inputs;
  inputs.current = {NodeId{1}, NodeId{2}, NodeId{3}};
  ledger::AdmittancePolicy policy;
  const auto roster = build_roster(inputs, policy, table, now);
  EXPECT_EQ(roster, (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{1}}));
}

TEST(Roster, BlacklistExcludes) {
  geo::ElectionTable table;
  RosterInputs inputs;
  inputs.current = {NodeId{1}, NodeId{2}};
  inputs.outcome.promoted = {NodeId{3}};
  ledger::AdmittancePolicy policy;
  policy.blacklist = {NodeId{2}, NodeId{3}};
  const auto roster = build_roster(inputs, policy, table, TimePoint{0});
  EXPECT_EQ(roster, std::vector<NodeId>{NodeId{1}});
}

TEST(Roster, PenalizedAndFlaggedExcluded) {
  geo::ElectionTable table;
  RosterInputs inputs;
  inputs.current = {NodeId{1}, NodeId{2}, NodeId{3}};
  inputs.penalized = {NodeId{2}};       // missed block / fork
  inputs.sybil_flagged = {NodeId{3}};   // fake location
  ledger::AdmittancePolicy policy;
  const auto roster = build_roster(inputs, policy, table, TimePoint{0});
  EXPECT_EQ(roster, std::vector<NodeId>{NodeId{1}});
}

TEST(Roster, DemotedMembersDropped) {
  geo::ElectionTable table;
  RosterInputs inputs;
  inputs.current = {NodeId{1}, NodeId{2}};
  inputs.outcome.demoted = {NodeId{1}};
  ledger::AdmittancePolicy policy;
  const auto roster = build_roster(inputs, policy, table, TimePoint{0});
  EXPECT_EQ(roster, std::vector<NodeId>{NodeId{2}});
}

TEST(Roster, MaxEndorsersCapsAdmissions) {
  // "If the number of endorsers exceeds the maximum value, the endorser
  // election will be terminated until old endorsers leave" (§III-C).
  geo::ElectionTable table;
  RosterInputs inputs;
  inputs.current = {NodeId{1}, NodeId{2}, NodeId{3}};
  inputs.outcome.promoted = {NodeId{4}, NodeId{5}, NodeId{6}};
  ledger::AdmittancePolicy policy;
  policy.max_endorsers = 4;
  const auto roster = build_roster(inputs, policy, table, TimePoint{0});
  EXPECT_EQ(roster.size(), 4u);
  // Current members survive; exactly one promotion fits.
  EXPECT_TRUE(std::find(roster.begin(), roster.end(), NodeId{4}) != roster.end());
  EXPECT_TRUE(std::find(roster.begin(), roster.end(), NodeId{6}) == roster.end());
}

TEST(Roster, WhitelistedJoinFirstWithoutQualification) {
  geo::ElectionTable table;
  RosterInputs inputs;
  inputs.current = {NodeId{1}};
  inputs.outcome.promoted = {NodeId{4}, NodeId{5}};
  inputs.whitelisted_candidates = {NodeId{9}};
  ledger::AdmittancePolicy policy;
  policy.whitelist = {NodeId{9}};
  policy.max_endorsers = 3;
  const auto roster = build_roster(inputs, policy, table, TimePoint{0});
  EXPECT_EQ(roster.size(), 3u);
  EXPECT_TRUE(std::find(roster.begin(), roster.end(), NodeId{9}) != roster.end());
  // Only one of the two qualified candidates fits after the whitelist entry.
  const bool has4 = std::find(roster.begin(), roster.end(), NodeId{4}) != roster.end();
  const bool has5 = std::find(roster.begin(), roster.end(), NodeId{5}) != roster.end();
  EXPECT_TRUE(has4 != has5);
}

TEST(Roster, NoDuplicateEntries) {
  geo::ElectionTable table;
  RosterInputs inputs;
  inputs.current = {NodeId{1}, NodeId{2}};
  inputs.outcome.promoted = {NodeId{2}, NodeId{3}};  // 2 already a member
  ledger::AdmittancePolicy policy;
  const auto roster = build_roster(inputs, policy, table, TimePoint{0});
  EXPECT_EQ(roster.size(), 3u);
}

}  // namespace
}  // namespace gpbft::gpbft
