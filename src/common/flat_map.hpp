// Open-addressing hash table for the simulator's hot lookups.
//
// FlatMap keeps its entries in one array of (key, value) slots and one
// control byte per slot: 0 marks an empty slot, anything else is 0x80 | the
// top 7 bits of the key's hash. The capacity is a power of two, a key's home
// slot is the low bits of its hash, and collisions probe linearly. A lookup
// reads control bytes from the home slot on and compares a key only where the
// byte matches, so a miss usually ends at its first empty byte without
// touching a slot. Erase shifts the rest of the probe run back over the hole
// (no tombstones), so a run never outlives the keys that made it. The table
// doubles when an insert would take it past 15/16 full. Doubling can leave
// a table half empty, and at a 7/8 limit the failover workload's digest
// indexes (about 7.2k transactions per replica) doubled to 16k slots and
// took 6 MB more peak RSS than the node maps they replaced. Misses probe
// further near the limit, over control bytes in one or two cache lines.
//
// Hashes: a digest or an address is already uniform, and std::hash folds
// its first 8 bytes (crypto/sha256.hpp, crypto/address.hpp). Node ids are
// small and dense, and std::hash<NodeId> is the identity, so a table of ids
// is indexed by their low bits: a dense range of ids never collides, a
// lookup is one probe, and neighbouring ids sit in neighbouring slots (a
// 64-bit mixer scattered them, and the three id-keyed tables then cost more
// than the node maps they replaced). A packed link, (lower id << 32) |
// higher id, keeps its lower id out of the low bits, so it goes through
// MixHash.
//
// Unlike std::unordered_map, an insert or an erase may move entries: a
// pointer or reference into the table is valid only until the next insert
// or erase, and a loop over the table must not insert or erase. Iteration
// order is slot order, which depends on the hash and the table's history, so
// nothing whose output matters may depend on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace gpbft {

/// Hash for 64-bit keys whose low bits alone do not spread them, such as
/// packed node-id pairs: the splitmix64 finalizer, a bijection whose every
/// output bit depends on every input bit.
struct MixHash {
  std::size_t operator()(std::uint64_t x) const noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }
};

/// The value type of a FlatSet: occupies no space in a slot.
struct FlatEmpty {};

/// One slot: `first` is the key, `second` the value, as in std::pair.
template <typename K, typename V>
struct FlatSlot {
  K first{};
  [[no_unique_address]] V second{};
};

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  using Slot = FlatSlot<K, V>;

  FlatMap() = default;
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;
  // A moved-from table is empty: its count and mask go with its storage.
  FlatMap(FlatMap&& other) noexcept
      : ctrl_(std::exchange(other.ctrl_, {})),
        slots_(std::exchange(other.slots_, {})),
        size_(std::exchange(other.size_, 0)),
        mask_(std::exchange(other.mask_, 0)) {}
  FlatMap& operator=(FlatMap&& other) noexcept {
    ctrl_ = std::exchange(other.ctrl_, {});
    slots_ = std::exchange(other.slots_, {});
    size_ = std::exchange(other.size_, 0);
    mask_ = std::exchange(other.mask_, 0);
    return *this;
  }
  ~FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ctrl_.size(); }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] V* find(const K& key) {
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &slots_[i].second;
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &slots_[i].second;
  }
  [[nodiscard]] bool contains(const K& key) const { return locate(key) != kNone; }

  /// The value under `key`, default-constructed first if the key is new;
  /// `second` says whether it was.
  std::pair<V*, bool> try_emplace(const K& key) {
    const std::uint64_t h = hash(key);
    const std::uint8_t tag = tag_of(h);
    if (!ctrl_.empty()) {
      std::size_t i = h & mask_;
      for (; ctrl_[i] != 0; i = (i + 1) & mask_) {
        if (ctrl_[i] == tag && slots_[i].first == key) return {&slots_[i].second, false};
      }
      if (size_ < max_load(ctrl_.size())) return {&place(i, tag, key), true};
    }
    grow();
    std::size_t i = h & mask_;
    while (ctrl_[i] != 0) i = (i + 1) & mask_;
    return {&place(i, tag, key), true};
  }

  /// As above, with a new key's value set to `value`; an existing value is
  /// left as it is.
  std::pair<V*, bool> try_emplace(const K& key, V value) {
    const auto result = try_emplace(key);
    if (result.second) *result.first = std::move(value);
    return result;
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Removes `key`; false if it was absent.
  bool erase(const K& key) {
    std::size_t hole = locate(key);
    if (hole == kNone) return false;
    --size_;
    // Backward shift: walk the rest of the run and move back each entry
    // whose home slot is not between the hole and its own slot, so every
    // entry stays reachable from its home without crossing an empty slot.
    for (std::size_t j = (hole + 1) & mask_; ctrl_[j] != 0; j = (j + 1) & mask_) {
      const std::size_t home = hash(slots_[j].first) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        ctrl_[hole] = ctrl_[j];
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    ctrl_[hole] = 0;
    slots_[hole] = Slot{};
    return true;
  }

  /// Empties the table and releases its storage.
  void clear() {
    ctrl_ = {};
    slots_ = {};
    size_ = 0;
    mask_ = 0;
  }

  template <bool Const>
  class Iterator {
   public:
    using Table = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const Slot&, Slot&>;

    Iterator(Table* table, std::size_t i) : table_(table), i_(i) { skip_empty(); }
    Ref operator*() const { return table_->slots_[i_]; }
    auto* operator->() const { return &table_->slots_[i_]; }
    Iterator& operator++() {
      ++i_;
      skip_empty();
      return *this;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    void skip_empty() {
      while (i_ < table_->ctrl_.size() && table_->ctrl_[i_] == 0) ++i_;
    }
    Table* table_;
    std::size_t i_;
  };

  /// Slot order; never insert or erase while iterating.
  Iterator<false> begin() { return {this, 0}; }
  Iterator<false> end() { return {this, ctrl_.size()}; }
  Iterator<true> begin() const { return {this, 0}; }
  Iterator<true> end() const { return {this, ctrl_.size()}; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// Most tables of a run hold a handful of keys (a replica's chain index
  /// starts with the genesis block's one transaction), so the first insert
  /// allocates no more than a node map would.
  static constexpr std::size_t kMinCapacity = 4;

  [[nodiscard]] static std::uint64_t hash(const K& key) {
    return static_cast<std::uint64_t>(Hash{}(key));
  }
  /// Control byte of an occupied slot: the hash bits the slot index does not
  /// use first, never 0.
  [[nodiscard]] static std::uint8_t tag_of(std::uint64_t h) {
    return static_cast<std::uint8_t>(0x80u | (h >> 57));
  }
  /// Always below `capacity`, so every probe run ends at an empty slot.
  [[nodiscard]] static std::size_t max_load(std::size_t capacity) {
    return capacity * 15 / 16;
  }

  [[nodiscard]] std::size_t locate(const K& key) const {
    if (size_ == 0) return kNone;
    const std::uint64_t h = hash(key);
    const std::uint8_t tag = tag_of(h);
    for (std::size_t i = h & mask_; ctrl_[i] != 0; i = (i + 1) & mask_) {
      if (ctrl_[i] == tag && slots_[i].first == key) return i;
    }
    return kNone;
  }

  V& place(std::size_t i, std::uint8_t tag, const K& key) {
    ctrl_[i] = tag;
    slots_[i].first = key;
    ++size_;
    return slots_[i].second;
  }

  void grow() {
    const std::size_t capacity = ctrl_.empty() ? kMinCapacity : ctrl_.size() * 2;
    std::vector<std::uint8_t> old_ctrl =
        std::exchange(ctrl_, std::vector<std::uint8_t>(capacity));
    std::vector<Slot> old_slots = std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    for (std::size_t j = 0; j < old_ctrl.size(); ++j) {
      if (old_ctrl[j] == 0) continue;
      std::size_t i = hash(old_slots[j].first) & mask_;
      while (ctrl_[i] != 0) i = (i + 1) & mask_;
      ctrl_[i] = old_ctrl[j];
      slots_[i] = std::move(old_slots[j]);
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<Slot> slots_;
  std::size_t size_{0};
  std::size_t mask_{0};
};

/// A FlatMap without values.
template <typename K, typename Hash = std::hash<K>>
using FlatSet = FlatMap<K, FlatEmpty, Hash>;

}  // namespace gpbft
