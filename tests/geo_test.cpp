// Geo substrate tests: GeoPoint/haversine, geohash vectors and properties,
// Crypto-Spatial Coordinates, the election table (Table II semantics) and
// the pinned digest of the strings all of them print.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "crypto/address.hpp"
#include "crypto/sha256.hpp"
#include "geo/csc.hpp"
#include "geo/election_table.hpp"
#include "geo/geohash.hpp"
#include "geo/geopoint.hpp"
#include "goldens.hpp"

namespace gpbft::geo {
namespace {

// --- GeoPoint ------------------------------------------------------------------

TEST(GeoPoint, Validity) {
  EXPECT_TRUE((GeoPoint{0, 0}).valid());
  EXPECT_TRUE((GeoPoint{-90, -180}).valid());
  EXPECT_TRUE((GeoPoint{90, 179.999}).valid());
  EXPECT_FALSE((GeoPoint{90.1, 0}).valid());
  EXPECT_FALSE((GeoPoint{0, 180.0}).valid());
  EXPECT_FALSE((GeoPoint{0, -180.1}).valid());
}

TEST(GeoPoint, HaversineZeroForSamePoint) {
  const GeoPoint p{22.3964, 114.1095};
  EXPECT_DOUBLE_EQ(haversine_meters(p, p), 0.0);
}

TEST(GeoPoint, HaversineKnownDistance) {
  // Hong Kong <-> Wuhan: about 915 km.
  const GeoPoint hk{22.3964, 114.1095};
  const GeoPoint wuhan{30.5928, 114.3055};
  EXPECT_NEAR(haversine_meters(hk, wuhan) / 1000.0, 911.0, 10.0);
}

TEST(GeoPoint, HaversineSymmetric) {
  const GeoPoint a{10, 20}, b{-5, 60};
  EXPECT_DOUBLE_EQ(haversine_meters(a, b), haversine_meters(b, a));
}

TEST(GeoPoint, HaversineOneDegreeLatitude) {
  const GeoPoint a{0, 0}, b{1, 0};
  EXPECT_NEAR(haversine_meters(a, b), 111'195.0, 200.0);
}

TEST(GeoPoint, SameLocationSubMeter) {
  const GeoPoint a{22.3964, 114.1095};
  const GeoPoint b{22.396400001, 114.109500001};  // ~0.1 mm away
  EXPECT_TRUE(same_location(a, b));
  const GeoPoint c{22.3965, 114.1095};  // ~11 m away
  EXPECT_FALSE(same_location(a, c));
}

// --- geohash ---------------------------------------------------------------------

TEST(Geohash, KnownVectors) {
  // Reference vectors from the original geohash.org implementation.
  EXPECT_EQ(geohash_encode(GeoPoint{57.64911, 10.40744}, 11), "u4pruydqqvj");
  EXPECT_EQ(geohash_encode(GeoPoint{42.6, -5.6}, 5), "ezs42");
  EXPECT_EQ(geohash_encode(GeoPoint{-25.382708, -49.265506}, 8), "6gkzwgjz");
}

TEST(Geohash, DecodeContainsOriginal) {
  const GeoPoint p{22.3964, 114.1095};
  for (int precision = 1; precision <= 12; ++precision) {
    const auto box = geohash_decode(geohash_encode(p, precision));
    ASSERT_TRUE(box.has_value());
    EXPECT_TRUE(box->contains(p)) << "precision " << precision;
  }
}

TEST(Geohash, PrefixPropertyHolds) {
  const GeoPoint p{22.3964, 114.1095};
  const std::string full = geohash_encode(p, 12);
  for (int precision = 1; precision < 12; ++precision) {
    EXPECT_EQ(geohash_encode(p, precision), full.substr(0, precision));
  }
}

TEST(Geohash, DecodeRejectsInvalidInput) {
  EXPECT_FALSE(geohash_decode("").has_value());
  EXPECT_FALSE(geohash_decode("abc!").has_value());
  EXPECT_FALSE(geohash_decode("aia").has_value());  // 'a', 'i' not in base32 alphabet
}

TEST(Geohash, CellSizeShrinksWithPrecision) {
  double previous = 1e12;
  for (int precision = 1; precision <= 12; ++precision) {
    const CellSize size = geohash_cell_size(precision);
    EXPECT_LT(size.lat_meters, previous);
    previous = size.lat_meters;
  }
  // Precision 12 is sub-meter ("about one square meter", §III-B3).
  EXPECT_LT(geohash_cell_size(12).lat_meters, 1.0);
  EXPECT_LT(geohash_cell_size(12).lng_meters, 1.0);
}

TEST(Geohash, AdjacentCellsTouchAndDiffer) {
  const std::string cell = geohash_encode(GeoPoint{22.3964, 114.1095}, 7);
  const auto east = geohash_adjacent(cell, Direction::East);
  ASSERT_TRUE(east.has_value());
  EXPECT_NE(*east, cell);
  EXPECT_EQ(east->size(), cell.size());
  // The neighbour's box shares the boundary: its west edge == our east edge.
  const auto our_box = geohash_decode(cell);
  const auto east_box = geohash_decode(*east);
  ASSERT_TRUE(our_box && east_box);
  EXPECT_NEAR(east_box->lng_min, our_box->lng_max, 1e-9);
  EXPECT_NEAR(east_box->lat_min, our_box->lat_min, 1e-9);
}

TEST(Geohash, AdjacentRoundtripInverse) {
  const std::string cell = geohash_encode(GeoPoint{48.2, 16.4}, 6);
  const auto north = geohash_adjacent(cell, Direction::North);
  ASSERT_TRUE(north.has_value());
  const auto back = geohash_adjacent(*north, Direction::South);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, cell);
}

TEST(Geohash, NeighborsAreEightDistinctCells) {
  const std::string cell = geohash_encode(GeoPoint{22.3964, 114.1095}, 6);
  const auto neighbors = geohash_neighbors(cell);
  ASSERT_TRUE(neighbors.has_value());
  EXPECT_EQ(neighbors->size(), 8u);
  std::set<std::string> distinct(neighbors->begin(), neighbors->end());
  EXPECT_EQ(distinct.size(), 8u);
  EXPECT_FALSE(distinct.contains(cell));
}

TEST(Geohash, NeighborsAtPoleAreFewer) {
  const std::string cell = geohash_encode(GeoPoint{89.99999, 0.0}, 4);
  const auto neighbors = geohash_neighbors(cell);
  ASSERT_TRUE(neighbors.has_value());
  EXPECT_LT(neighbors->size(), 8u);  // no cells north of the pole cap
}

TEST(Geohash, NeighborsWrapAntimeridian) {
  const std::string cell = geohash_encode(GeoPoint{0.0, 179.9999}, 4);
  const auto east = geohash_adjacent(cell, Direction::East);
  ASSERT_TRUE(east.has_value());
  const auto box = geohash_decode(*east);
  ASSERT_TRUE(box.has_value());
  EXPECT_LT(box->lng_min, -179.0);  // wrapped to the far west
}

TEST(Geohash, NeighborsRejectInvalid) {
  EXPECT_FALSE(geohash_neighbors("").has_value());
  EXPECT_FALSE(geohash_adjacent("a!", Direction::North).has_value());
}

class GeohashRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeohashRoundtrip, EncodeDecodeConverges) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const GeoPoint p{rng.uniform_real(-90, 90), rng.uniform_real(-180, 180)};
    const std::string hash = geohash_encode(p, 12);
    const auto center = geohash_decode_center(hash);
    ASSERT_TRUE(center.has_value());
    // Re-encoding the cell center lands in the same cell.
    EXPECT_EQ(geohash_encode(*center, 12), hash);
    // The center is within the cell diagonal of the original point.
    EXPECT_LT(haversine_meters(p, *center), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeohashRoundtrip, ::testing::Values(1, 7, 42, 99, 12345));

// --- CSC -------------------------------------------------------------------------------

TEST(Csc, SameCellForSamePlaceDifferentDevices) {
  const GeoPoint p{22.3964, 114.1095};
  const Csc a(p, crypto::address_for_node(NodeId{1}));
  const Csc b(p, crypto::address_for_node(NodeId{2}));
  EXPECT_TRUE(a.same_cell(b));
  EXPECT_NE(a.str(), b.str());  // identity suffix differs
}

TEST(Csc, DifferentPlacesDifferentCells) {
  const Csc a(GeoPoint{22.3964, 114.1095}, crypto::address_for_node(NodeId{1}));
  const Csc b(GeoPoint{22.3970, 114.1095}, crypto::address_for_node(NodeId{1}));
  EXPECT_FALSE(a.same_cell(b));
}

TEST(Csc, HierarchicalWithin) {
  const GeoPoint p{22.3964, 114.1095};
  const Csc csc(p, crypto::address_for_node(NodeId{1}));
  EXPECT_TRUE(csc.cell().within(GeoCell::of(p, 5)));
  EXPECT_FALSE(csc.cell().within(*GeoCell::parse("zzzzz")));
  EXPECT_TRUE(csc.cell().within(GeoCell{}));  // the whole world
}

TEST(Csc, StableForSameInputs) {
  const GeoPoint p{1.5, 2.5};
  const Csc a(p, crypto::address_for_node(NodeId{3}));
  const Csc b(p, crypto::address_for_node(NodeId{3}));
  EXPECT_EQ(a.str(), b.str());
}

// --- election table -----------------------------------------------------------------------

Csc csc_at(const GeoPoint& p, NodeId id) { return Csc(p, crypto::address_for_node(id)); }

TEST(ElectionTable, TimerAccumulatesWhileStationary) {
  // Reproduces the paper's Table II: a device reporting from the same CSC
  // accumulates its geographic timer from the first sighting.
  ElectionTable table;
  const NodeId device{7};
  const GeoPoint home{22.3964, 114.1095};

  const TimePoint t0{0};
  table.record(device, csc_at(home, device), t0);
  EXPECT_EQ(table.timer(device).ns, 0);

  const TimePoint t1{(Duration::minutes(56) + Duration::seconds(4)).ns};
  table.record(device, csc_at(home, device), t1);
  EXPECT_EQ(format_hms(table.timer(device)), "00:56:04");

  const TimePoint t2{(Duration::hours(6) + Duration::minutes(56) + Duration::seconds(4)).ns};
  table.record(device, csc_at(home, device), t2);
  EXPECT_EQ(format_hms(table.timer(device)), "06:56:04");

  const TimePoint t3{(Duration::hours(12) + Duration::minutes(56) + Duration::seconds(4)).ns};
  table.record(device, csc_at(home, device), t3);
  EXPECT_EQ(format_hms(table.timer(device)), "12:56:04");

  const TimePoint t4{(Duration::hours(18) + Duration::minutes(56) + Duration::seconds(4)).ns};
  table.record(device, csc_at(home, device), t4);
  EXPECT_EQ(format_hms(table.timer(device)), "18:56:04");
}

TEST(ElectionTable, TimerRestartsOnMove) {
  ElectionTable table;
  const NodeId device{1};
  const GeoPoint a{22.3964, 114.1095}, b{22.40, 114.11};

  table.record(device, csc_at(a, device), TimePoint{0});
  table.record(device, csc_at(a, device), TimePoint{Duration::hours(10).ns});
  EXPECT_EQ(table.timer(device), Duration::hours(10));

  table.record(device, csc_at(b, device), TimePoint{Duration::hours(11).ns});
  EXPECT_EQ(table.timer(device).ns, 0);

  table.record(device, csc_at(b, device), TimePoint{Duration::hours(12).ns});
  EXPECT_EQ(table.timer(device), Duration::hours(1));
}

TEST(ElectionTable, TimerAtProjectsForward) {
  ElectionTable table;
  const NodeId device{1};
  const GeoPoint a{10, 10};
  table.record(device, csc_at(a, device), TimePoint{0});
  EXPECT_EQ(table.timer_at(device, TimePoint{Duration::hours(5).ns}), Duration::hours(5));
  EXPECT_EQ(table.timer_at(NodeId{99}, TimePoint{Duration::hours(5).ns}).ns, 0);
}

TEST(ElectionTable, ResetTimerKeepsLocation) {
  ElectionTable table;
  const NodeId device{1};
  const GeoPoint a{10, 10};
  table.record(device, csc_at(a, device), TimePoint{0});
  table.record(device, csc_at(a, device), TimePoint{Duration::hours(2).ns});
  table.reset_timer(device, TimePoint{Duration::hours(2).ns});
  EXPECT_EQ(table.timer_at(device, TimePoint{Duration::hours(3).ns}), Duration::hours(1));
}

TEST(ElectionTable, ReportsInWindowFilters) {
  ElectionTable table;
  const NodeId device{1};
  const GeoPoint a{10, 10};
  for (int i = 0; i < 10; ++i) {
    table.record(device, csc_at(a, device), TimePoint{Duration::seconds(i * 10).ns});
  }
  const auto window =
      table.reports_in_window(device, TimePoint{Duration::seconds(90).ns}, Duration::seconds(30));
  ASSERT_EQ(window.size(), 4u);  // t = 60, 70, 80, 90
  EXPECT_EQ(window.front().timestamp.ns, Duration::seconds(60).ns);
  EXPECT_EQ(window.back().timestamp.ns, Duration::seconds(90).ns);
}

TEST(ElectionTable, StationaryDevicesThreshold) {
  ElectionTable table;
  const GeoPoint a{10, 10}, b{20, 20};
  table.record(NodeId{1}, csc_at(a, NodeId{1}), TimePoint{0});
  table.record(NodeId{2}, csc_at(b, NodeId{2}), TimePoint{Duration::hours(50).ns});
  const auto stationary =
      table.stationary_devices(TimePoint{Duration::hours(80).ns}, Duration::hours(72));
  ASSERT_EQ(stationary.size(), 1u);
  EXPECT_EQ(stationary[0], NodeId{1});
}

TEST(ElectionTable, HistoryPrunedToLimit) {
  ElectionTable table(4);
  const NodeId device{1};
  const GeoPoint a{10, 10};
  for (int i = 0; i < 10; ++i) {
    table.record(device, csc_at(a, device), TimePoint{Duration::seconds(i).ns});
  }
  const auto reports =
      table.reports_in_window(device, TimePoint{Duration::seconds(100).ns}, Duration::hours(1));
  EXPECT_EQ(reports.size(), 4u);
}

TEST(ElectionTable, ForgetRemovesDevice) {
  ElectionTable table;
  table.record(NodeId{1}, csc_at(GeoPoint{1, 1}, NodeId{1}), TimePoint{0});
  EXPECT_EQ(table.devices().size(), 1u);
  table.forget(NodeId{1});
  EXPECT_TRUE(table.devices().empty());
  EXPECT_FALSE(table.latest(NodeId{1}).has_value());
}

TEST(ElectionTable, RenderContainsTimerColumn) {
  ElectionTable table;
  const NodeId device{1};
  table.record(device, csc_at(GeoPoint{1, 1}, device), TimePoint{0});
  table.record(device, csc_at(GeoPoint{1, 1}, device), TimePoint{Duration::hours(1).ns});
  const std::string rendered = table.render(device);
  EXPECT_NE(rendered.find("Geographic Timer"), std::string::npos);
  EXPECT_NE(rendered.find("01:00:00"), std::string::npos);
}

// --- pinned strings ---------------------------------------------------------------------

/// A seeded sweep of points plus the edges where a bisection decides a bit:
/// both poles, longitude -180, the origin, the ±45° and ±90° lines and the
/// doubles just either side of some of them.
std::vector<GeoPoint> sweep_points() {
  std::vector<GeoPoint> points = {
      {90, 0},      {-90, 0},     {90, -180},   {-90, -180},  {0, -180},     {0, 0},
      {45, 90},     {-45, -90},   {45, -90},    {-45, 90},    {90, 90},      {-90, -90},
      {22.5, 45},   {-22.5, -45}, {67.5, 135},  {-67.5, -135}, {0, 90},      {0, -90},
      {45, 0},      {-45, 0},     {89.99999, 0}, {0, 179.9999}, {22.3964, 114.1095}};
  for (const double edge : {45.0, -45.0, 22.5, 0.0}) {
    points.push_back({std::nextafter(edge, -90.0), std::nextafter(edge * 2, -180.0)});
    points.push_back({std::nextafter(edge, 90.0), std::nextafter(edge * 2, 180.0)});
  }
  points.push_back({std::nextafter(90.0, 0.0), std::nextafter(180.0, 0.0)});
  points.push_back({std::nextafter(-90.0, 0.0), std::nextafter(-180.0, 0.0)});
  Rng rng(2020);
  for (int i = 0; i < 500; ++i) {
    points.push_back({rng.uniform_real(-90, 90), rng.uniform_real(-180, 180)});
  }
  return points;
}

// --- GeoCell, against the strings -------------------------------------------------------

TEST(GeoCell, StrEqualsGeohashEncode) {
  for (const GeoPoint& p : sweep_points()) {
    for (int precision = 1; precision <= GeoCell::kMaxPrecision; ++precision) {
      const GeoCell cell = GeoCell::of(p, precision);
      ASSERT_EQ(cell.str(), geohash_encode(p, precision)) << p.str() << " at " << precision;
      EXPECT_EQ(cell.precision(), precision);
    }
  }
}

TEST(GeoCell, ParseRoundTripsAndRefusesWhatIsNoCell) {
  for (const GeoPoint& p : sweep_points()) {
    for (int precision = 1; precision <= GeoCell::kMaxPrecision; ++precision) {
      const GeoCell cell = GeoCell::of(p, precision);
      const auto parsed = GeoCell::parse(cell.str());
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(*parsed, cell);
      EXPECT_EQ(parsed->word(), cell.word());
    }
    const std::string full = geohash_encode(p, 12);
    EXPECT_FALSE(GeoCell::parse(full + "0").has_value());
    EXPECT_FALSE(GeoCell::parse(geohash_encode(p, 22)).has_value());
  }
  EXPECT_EQ(GeoCell::parse(""), GeoCell{});
  for (const char bad : {'a', 'i', 'l', 'o', 'A', 'Z', '!', '-', ' ', '\0'}) {
    EXPECT_FALSE(GeoCell::parse(std::string("wecp") + bad).has_value()) << int(bad);
  }
}

TEST(GeoCell, WithinAgreesWithStringPrefix) {
  // Each point's 12-digit cell against every prefix, 0 to 12 digits, of its
  // own cell and of the next point's: the masked compare must say what the
  // string compare says.
  const std::vector<GeoPoint> points = sweep_points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string text = geohash_encode(points[i], 12);
    const GeoCell cell = GeoCell::of(points[i], 12);
    for (const GeoPoint& other : {points[i], points[(i + 1) % points.size()]}) {
      const std::string other_text = geohash_encode(other, 12);
      for (std::size_t k = 0; k <= 12; ++k) {
        const std::string area = other_text.substr(0, k);
        ASSERT_EQ(cell.within(*GeoCell::parse(area)), text.starts_with(area))
            << text << " within " << area;
      }
    }
    // A shorter cell is never within a longer area.
    EXPECT_FALSE(GeoCell::of(points[i], 5).within(GeoCell::of(points[i], 6)));
  }
}

TEST(PinnedStrings, GeohashCscAndRenderMatchManifest) {
  // Every geohash prefix, CSC string and rendered election-table row the
  // sweep produces, hashed together: a change to how cells or CSCs are
  // computed that moves any of these bytes fails here.
  std::string text;
  for (const GeoPoint& p : sweep_points()) {
    for (int precision = 1; precision <= 12; ++precision) {
      text += geohash_encode(p, precision) + "\n";
    }
    for (const std::uint64_t device : {1, 2, 7, 202}) {
      text += csc_at(p, NodeId{device}).str() + "\n";
    }
  }
  ElectionTable table;
  const NodeId device{7};
  const GeoPoint home{22.3964, 114.1095}, moved{22.3975, 114.1105};
  for (int i = 0; i < 4; ++i) {
    table.record(device, csc_at(home, device), TimePoint{Duration::minutes(40 * i).ns});
  }
  table.record(device, csc_at(moved, device), TimePoint{Duration::hours(3).ns});
  table.record(device, csc_at(moved, device), TimePoint{Duration::hours(5).ns});
  text += table.render(device);

  const std::string digest = crypto::sha256(std::string_view(text)).hex();
  EXPECT_EQ(digest, goldens::pinned("geo/csc-strings"))
      << "actual line: " << digest << "  geo/csc-strings";
}

}  // namespace
}  // namespace gpbft::geo
