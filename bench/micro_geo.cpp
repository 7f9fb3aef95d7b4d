// Micro-benchmarks: geohash, haversine, CSC, election table, and one geo
// report through the Sybil filter and into the table.
#include <benchmark/benchmark.h>

#include "crypto/address.hpp"
#include "geo/csc.hpp"
#include "geo/election_table.hpp"
#include "geo/geohash.hpp"
#include "gpbft/area_registry.hpp"

namespace {

using namespace ::gpbft;
using namespace ::gpbft::geo;
using ::gpbft::gpbft::AreaRegistry;
using ::gpbft::gpbft::ReportVerdict;
using ::gpbft::gpbft::SybilFilter;

void BM_GeohashEncode(benchmark::State& state) {
  const GeoPoint point{22.3964, 114.1095};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geohash_encode(point, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_GeohashEncode)->Arg(5)->Arg(12);

void BM_GeohashDecode(benchmark::State& state) {
  const std::string hash = geohash_encode(GeoPoint{22.3964, 114.1095}, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geohash_decode(hash));
  }
}
BENCHMARK(BM_GeohashDecode);

void BM_Haversine(benchmark::State& state) {
  const GeoPoint a{22.3964, 114.1095}, b{30.5928, 114.3055};
  for (auto _ : state) {
    benchmark::DoNotOptimize(haversine_meters(a, b));
  }
}
BENCHMARK(BM_Haversine);

void BM_CscConstruction(benchmark::State& state) {
  const GeoPoint point{22.3964, 114.1095};
  const crypto::Address address = crypto::address_for_node(NodeId{7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Csc(point, address));
  }
}
BENCHMARK(BM_CscConstruction);

void BM_ElectionTableRecord(benchmark::State& state) {
  ElectionTable table;
  const Csc csc(GeoPoint{22.3964, 114.1095}, crypto::address_for_node(NodeId{1}));
  std::int64_t t = 0;
  for (auto _ : state) {
    table.record(NodeId{static_cast<std::uint64_t>(t % 200)}, csc, TimePoint{t});
    t += 1'000'000;
  }
}
BENCHMARK(BM_ElectionTableRecord);

void BM_ElectionWindowQuery(benchmark::State& state) {
  ElectionTable table;
  const Csc csc(GeoPoint{22.3964, 114.1095}, crypto::address_for_node(NodeId{1}));
  for (int i = 0; i < 200; ++i) {
    table.record(NodeId{1}, csc, TimePoint{Duration::seconds(i).ns});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.reports_in_window(
        NodeId{1}, TimePoint{Duration::seconds(200).ns}, Duration::seconds(60)));
  }
}
BENCHMARK(BM_ElectionWindowQuery);

// The report path an endorser runs per GEO-REPORT and per transaction geo
// trailer, for one device reporting from its own spot every 3 s, through the
// calls that take a point: each computes the report's cell itself.
struct ReportPath {
  const NodeId device{1};
  const GeoPoint spot{22.3964, 114.1095};
  const crypto::Address address = crypto::address_for_node(device);
  AreaRegistry registry;
  SybilFilter filter{geohash_encode(spot, 5), &registry};
  ElectionTable table;
  std::int64_t t = 0;

  ReportPath() { registry.place(device, spot); }
  TimePoint next() {
    t += Duration::seconds(3).ns;
    return TimePoint{t};
  }
};

void BM_SybilFilterCheck(benchmark::State& state) {
  ReportPath path;
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.filter.check(path.device, path.spot, path.next()));
  }
}
BENCHMARK(BM_SybilFilterCheck);

void BM_GeoReport(benchmark::State& state) {
  ReportPath path;
  for (auto _ : state) {
    const TimePoint at = path.next();
    if (path.filter.check(path.device, path.spot, at) == ReportVerdict::Accepted) {
      path.table.record(path.device, Csc(path.spot, path.address), at);
    }
  }
}
BENCHMARK(BM_GeoReport);

}  // namespace
