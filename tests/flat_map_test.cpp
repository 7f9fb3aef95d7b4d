// FlatMap, the open-addressing table behind the simulator's hot lookups:
// differential runs against std::unordered_map, plus the probe-run cases a
// random stream rarely reaches on purpose (one long run of keys that share a
// hash, a run that wraps past the last slot, erases inside a run and growth
// in the middle of one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace gpbft {
namespace {

using crypto::Hash256;

/// The key is its own hash, so a test picks every key's home slot: key k
/// lives at k mod capacity or after it.
struct IdentityHash {
  std::size_t operator()(std::uint64_t key) const noexcept { return key; }
};

/// `flat` holds exactly `ref`: the same size, every key of `ref` found with
/// its value, and iteration visiting `size()` entries, each of them in `ref`.
template <typename K, typename V, typename H>
::testing::AssertionResult same_contents(const FlatMap<K, V, H>& flat,
                                         const std::unordered_map<K, V>& ref) {
  if (flat.size() != ref.size()) {
    return ::testing::AssertionFailure() << "size " << flat.size() << " vs " << ref.size();
  }
  for (const auto& [key, value] : ref) {
    const V* found = flat.find(key);
    if (found == nullptr) return ::testing::AssertionFailure() << "a key went missing";
    if (!(*found == value)) return ::testing::AssertionFailure() << "a value changed";
  }
  std::size_t visited = 0;
  for (const auto& [key, value] : flat) {
    const auto it = ref.find(key);
    if (it == ref.end() || !(it->second == value)) {
      return ::testing::AssertionFailure() << "iteration visited an entry not in the reference";
    }
    ++visited;
  }
  if (visited != ref.size()) {
    return ::testing::AssertionFailure() << "iteration visited " << visited << " entries";
  }
  return ::testing::AssertionSuccess();
}

/// Drives `flat` and `ref` with one seeded stream of `ops` inserts, erases
/// and finds over `keys`, comparing the two after every operation.
template <typename K, typename V, typename H, typename MakeValue>
void differential_run(std::uint64_t seed, const std::vector<K>& keys, std::size_t ops,
                      MakeValue make_value) {
  FlatMap<K, V, H> flat;
  std::unordered_map<K, V> ref;
  Rng rng(seed);
  std::size_t peak = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    const K& key = keys[rng.uniform(0, keys.size() - 1)];
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 30) {
      const V value = make_value(op);
      const auto [slot, inserted] = flat.try_emplace(key, value);
      const auto [it, ref_inserted] = ref.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted) << "op " << op;
      ASSERT_TRUE(*slot == it->second) << "op " << op;
    } else if (roll < 45) {
      const V value = make_value(op);
      flat[key] = value;
      ref[key] = value;
    } else if (roll < 75) {
      ASSERT_EQ(flat.erase(key), ref.erase(key) == 1) << "op " << op;
    } else {
      const V* found = flat.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_TRUE(*found == it->second) << "op " << op;
      }
      ASSERT_EQ(flat.contains(key), it != ref.end()) << "op " << op;
    }
    ASSERT_TRUE(same_contents(flat, ref)) << "op " << op;
    peak = std::max(peak, ref.size());
  }
  // The stream must have grown the table through several doublings and
  // emptied most of it again, or it tested little.
  EXPECT_GE(peak, keys.size() / 2);
  EXPECT_LE(flat.size(), peak);
}

Hash256 random_digest(Rng& rng) {
  Hash256 digest;
  for (auto& byte : digest.bytes) byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return digest;
}

/// `count` digests that agree on their first 8 bytes (the bytes the digest
/// hash reads), so they share a home slot and a control byte.
std::vector<Hash256> shared_prefix_digests(Rng& rng, std::size_t count) {
  const Hash256 prefix = random_digest(rng);
  std::vector<Hash256> out;
  for (std::size_t i = 0; i < count; ++i) {
    Hash256 digest = random_digest(rng);
    std::copy(prefix.bytes.begin(), prefix.bytes.begin() + 8, digest.bytes.begin());
    out.push_back(digest);
  }
  return out;
}

TEST(FlatMap, MatchesUnorderedMapOnDigests) {
  Rng rng(7);
  std::vector<Hash256> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(random_digest(rng));
  for (const Hash256& digest : shared_prefix_digests(rng, 60)) keys.push_back(digest);
  differential_run<Hash256, std::uint64_t, std::hash<Hash256>>(
      11, keys, 120'000, [](std::size_t op) { return static_cast<std::uint64_t>(op); });
}

TEST(FlatMap, MatchesUnorderedMapOnNodeIdsWithOwningValues) {
  // Two dense id ranges under the identity std::hash<NodeId>, as the
  // endorser and client ids are, and a value that owns heap memory, so a
  // move or an erase that mishandled it would show.
  std::vector<NodeId> keys;
  for (std::uint64_t id = 1; id <= 400; ++id) keys.emplace_back(id);
  for (std::uint64_t id = 10'000; id < 10'200; ++id) keys.emplace_back(id);
  differential_run<NodeId, std::string, std::hash<NodeId>>(
      12, keys, 100'000,
      [](std::size_t op) { return "value-" + std::to_string(op) + std::string(24, 'x'); });
}

TEST(FlatMap, MatchesUnorderedMapOnPackedLinks) {
  // The session index's keys: (lower id << 32) | higher id under MixHash.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t lo = 1; lo <= 24; ++lo) {
    for (std::uint64_t hi = lo + 1; hi <= 48; ++hi) keys.push_back((lo << 32) | hi);
  }
  differential_run<std::uint64_t, std::uint32_t, MixHash>(
      14, keys, 100'000, [](std::size_t op) { return static_cast<std::uint32_t>(op); });
}

TEST(FlatMap, MatchesUnorderedMapWithChosenHomes) {
  // Identity hashes put many keys on the same few homes, so runs are long,
  // wrap past the last slot and are cut by erases all the time.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 300; ++k) keys.push_back(k * 64 + (k % 3 == 0 ? 63 : k % 5));
  differential_run<std::uint64_t, std::uint64_t, IdentityHash>(
      13, keys, 100'000, [](std::size_t op) { return static_cast<std::uint64_t>(op) * 3; });
}

TEST(FlatMap, SharedPrefixDigestsFormOneFindableRun) {
  Rng rng(21);
  const std::vector<Hash256> run = shared_prefix_digests(rng, 100);
  FlatSet<Hash256> set;
  for (const Hash256& digest : run) EXPECT_TRUE(set.try_emplace(digest).second);
  for (const Hash256& digest : run) EXPECT_FALSE(set.try_emplace(digest).second);
  EXPECT_EQ(set.size(), run.size());

  // Erase every other key from inside the run: the rest stay findable, and
  // a miss with the same prefix still ends.
  for (std::size_t i = 0; i < run.size(); i += 2) EXPECT_TRUE(set.erase(run[i]));
  for (std::size_t i = 0; i < run.size(); ++i) EXPECT_EQ(set.contains(run[i]), i % 2 == 1) << i;
  for (const Hash256& absent : shared_prefix_digests(rng, 5)) EXPECT_FALSE(set.contains(absent));
  EXPECT_EQ(set.size(), run.size() / 2);
}

TEST(FlatMap, RunFromTheLastSlotWrapsAround) {
  FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
  // Home 7 at capacity 8: the run fills slot 7, then 0, 1, 2.
  const std::vector<std::uint64_t> keys = {7, 15, 23, 31};
  for (std::uint64_t k : keys) map[k] = k * 10;
  ASSERT_EQ(map.capacity(), 8u);
  // Key 1 (home 1) lands after the wrapped run.
  map[1] = 10;
  ASSERT_EQ(map.capacity(), 8u);
  for (std::uint64_t k : keys) ASSERT_NE(map.find(k), nullptr) << k;

  // Erasing the run's head in the last slot shifts the wrapped keys back
  // across the boundary; key 1 must stay reachable from its home.
  EXPECT_TRUE(map.erase(7));
  EXPECT_EQ(map.find(7), nullptr);
  for (std::uint64_t k : {15u, 23u, 31u, 1u}) {
    const std::uint64_t* value = map.find(k);
    ASSERT_NE(value, nullptr) << k;
    EXPECT_EQ(*value, k * 10) << k;
  }
  EXPECT_EQ(map.size(), 4u);
}

TEST(FlatMap, EraseInsideARunShiftsOnlyWhatItMay) {
  FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
  // At capacity 8, homes 3, 3, 5, 6, 3 fill slots 3 to 7. Erasing 19 (slot
  // 4) must leave 5 and 6 at their homes and move 35 (home 3) from slot 7
  // into the hole.
  for (std::uint64_t k : {3u, 19u, 5u, 6u, 35u}) map[k] = k;
  ASSERT_EQ(map.capacity(), 8u);
  EXPECT_TRUE(map.erase(19));
  for (std::uint64_t k : {3u, 5u, 6u, 35u}) EXPECT_NE(map.find(k), nullptr) << k;
  EXPECT_FALSE(map.erase(19));
  // The run now ends at slot 6, so erasing 3 shifts 35 (home 3) back to 3.
  EXPECT_TRUE(map.erase(3));
  for (std::uint64_t k : {5u, 6u, 35u}) EXPECT_NE(map.find(k), nullptr) << k;
  EXPECT_EQ(map.size(), 3u);
}

TEST(FlatMap, GrowsInTheMiddleOfARun) {
  FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
  // 15 keys fill capacity 16 to its 15/16 limit, all on home 12, so the run
  // wraps; the 16th insert lands in that run and doubles the table.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t m = 0; m < 15; ++m) keys.push_back(12 + 16 * m);
  for (std::uint64_t k : keys) map[k] = k + 1;
  ASSERT_EQ(map.capacity(), 16u);
  map[12 + 16 * 15] = 7;
  EXPECT_EQ(map.capacity(), 32u);
  keys.push_back(12 + 16 * 15);
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    ASSERT_NE(map.find(keys[i]), nullptr) << keys[i];
    EXPECT_EQ(*map.find(keys[i]), keys[i] + 1);
  }
  EXPECT_EQ(*map.find(keys.back()), 7u);
  EXPECT_EQ(map.size(), 16u);
}

TEST(FlatMap, IterationVisitsEachEntryOnceAndValuesAreMutable) {
  FlatMap<NodeId, std::uint64_t> map;
  for (std::uint64_t id = 0; id < 100; ++id) map[NodeId{id}] = id;
  for (auto& [id, value] : map) value += 1000;
  std::uint64_t sum = 0;
  std::size_t count = 0;
  for (const auto& [id, value] : map) {
    EXPECT_EQ(value, id.value + 1000);
    sum += id.value;
    ++count;
  }
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(sum, 4950u);
}

TEST(FlatMap, TryEmplaceKeepsTheFirstValue) {
  FlatMap<Hash256, std::uint64_t> map;
  const Hash256 key = crypto::sha256(std::string_view("a"));
  EXPECT_TRUE(map.try_emplace(key, 1).second);
  const auto [value, inserted] = map.try_emplace(key, 2);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*value, 1u);
}

TEST(FlatMap, ClearReleasesStorageAndTheTableStaysUsable) {
  FlatMap<NodeId, std::uint64_t> map;
  for (std::uint64_t id = 0; id < 1000; ++id) map[NodeId{id}] = id;
  EXPECT_GE(map.capacity(), 1024u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(NodeId{5}), nullptr);
  EXPECT_FALSE(map.erase(NodeId{5}));
  map[NodeId{5}] = 6;
  EXPECT_EQ(*map.find(NodeId{5}), 6u);
}

TEST(FlatMap, SmallTablesKeepOneSlotEmpty) {
  // Every capacity leaves a free slot, so a miss in a full-looking table
  // still ends: 3 keys fill capacity 4, 7 fill 8, 15 fill 16.
  FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
  for (std::uint64_t k = 0; k < 15; ++k) {
    map[k * 4] = k;  // every key on home 0 while the table is small
    const std::size_t capacity = map.capacity();
    EXPECT_LT(map.size(), capacity) << "after " << k + 1 << " keys";
    EXPECT_EQ(map.find(1'000'000), nullptr);
  }
  EXPECT_EQ(map.capacity(), 16u);
}

TEST(FlatMap, MovedFromTableIsEmptyAndUsable) {
  FlatMap<NodeId, std::uint64_t> from;
  for (std::uint64_t id = 1; id <= 20; ++id) from[NodeId{id}] = id;
  FlatMap<NodeId, std::uint64_t> to(std::move(from));
  EXPECT_EQ(to.size(), 20u);
  EXPECT_EQ(*to.find(NodeId{7}), 7u);
  EXPECT_EQ(from.size(), 0u);  // a moved-from table is empty, not stale
  EXPECT_EQ(from.find(NodeId{7}), nullptr);
  from[NodeId{3}] = 30;
  EXPECT_EQ(from.size(), 1u);
  to = std::move(from);
  EXPECT_EQ(to.size(), 1u);
  EXPECT_EQ(*to.find(NodeId{3}), 30u);
  EXPECT_EQ(to.find(NodeId{7}), nullptr);
}

TEST(FlatMap, SlotsCarryNoPadding) {
  // A set slot is its key alone; a digest index slot is key plus value.
  static_assert(sizeof(FlatSlot<Hash256, FlatEmpty>) == 32);
  static_assert(sizeof(FlatSlot<Hash256, std::uint64_t>) == 40);
  static_assert(sizeof(FlatSlot<std::uint64_t, std::uint32_t>) == 16);
  SUCCEED();
}

}  // namespace
}  // namespace gpbft
