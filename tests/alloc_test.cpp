// Heap allocations on hot paths. This binary replaces the global operator
// new with one that counts its calls while a NewCount scope is open, so a
// test can bound what one stretch of code allocates; everything outside a
// scope (gtest, fixtures, warm-up) is free to allocate. Counts are exact and
// deterministic for a given build.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "crypto/address.hpp"
#include "geo/csc.hpp"
#include "geo/election_table.hpp"
#include "geo/geohash.hpp"
#include "gpbft/area_registry.hpp"
#include "sim/placement.hpp"

namespace {
std::size_t g_news = 0;
bool g_counting = false;

// The replacement delete hands back what the replacement new took from
// malloc. Out of line, so GCC does not read the free() as releasing memory
// from the standard operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace gpbft {
namespace {

/// Counts the operator new calls made while it is alive; scopes do not nest.
class NewCount {
 public:
  NewCount() {
    g_news = 0;
    g_counting = true;
  }
  ~NewCount() { g_counting = false; }
  NewCount(const NewCount&) = delete;
  NewCount& operator=(const NewCount&) = delete;

  [[nodiscard]] std::size_t calls() const { return g_news; }
};

TEST(Allocations, ScopeCountsWhatItSees) {
  static std::vector<int> kept;  // outlives the scope, so the call stays
  kept.clear();
  kept.shrink_to_fit();
  std::size_t calls = 0;
  {
    const NewCount count;
    kept.resize(1000);
    calls = count.calls();
  }
  EXPECT_EQ(calls, 1u);
}

TEST(Allocations, SteadyGeoReportPathAllocatesNothing) {
  // One device reporting from its own spot, as an endorser handles a
  // GEO-REPORT or a transaction's geo trailer: the report's cell, the Sybil
  // filter, the CSC and the election-table record. Once the device's history
  // has reached its limit, a report allocates nothing.
  const sim::Placement placement;
  const NodeId device{3};
  const geo::GeoPoint spot = placement.position(2);
  const crypto::Address address = crypto::address_for_node(device);
  gpbft::AreaRegistry registry;
  registry.place(device, spot);
  gpbft::SybilFilter filter(placement.area_prefix(), &registry);
  geo::ElectionTable table;

  std::int64_t t = 0;
  const auto report = [&] {
    const TimePoint at{t};
    t += Duration::seconds(3).ns;
    const geo::GeoCell cell = geo::GeoCell::of(spot);
    if (filter.check(device, spot, cell, at) != gpbft::ReportVerdict::Accepted) return false;
    table.record(device, geo::Csc(cell, address), at);
    return true;
  };
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(report());

  int accepted = 0;
  std::size_t calls = 0;
  {
    const NewCount count;
    for (int i = 0; i < 1000; ++i) accepted += report() ? 1 : 0;
    calls = count.calls();
  }
  EXPECT_EQ(accepted, 1000);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(table.reports_in_window(device, TimePoint{t}, Duration::hours(24)).size(), 256u);
}

}  // namespace
}  // namespace gpbft
