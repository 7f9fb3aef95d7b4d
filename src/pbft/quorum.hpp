// One vote tally for every certificate PBFT counts.
//
// A certificate is "enough distinct members voted for the same thing": 2f
// PREPAREs and 2f+1 COMMITs for one digest, 2f+1 CHECKPOINTs for one chain
// digest, f+1 VIEW-CHANGEs to join a view and 2f+1 to start it, f+1 stashed
// COMMITs above the tip as evidence of lag, and a client's f+1 REPLYs for one
// height. A Quorum counts each of them under one rule: a voter is its rank in
// the sorted roster, a vote counts once per member per key, and a sender that
// is not on the roster has no rank, so its vote counts for nothing. Callers
// pass the envelope's sealed sender, never the replica id a body names; only
// a NEW-VIEW's forwarded VIEW-CHANGEs, which carry no seal of their own,
// count by the id they name.
//
// Each key holds a bitset over ranks, (n + 63) / 64 words for an n-member
// roster, and the keys sit in one small vector (one digest is live almost
// always), so a vote allocates nothing once its key exists. The roster has
// no size cap. A tally refers to its owner's roster, and a roster change
// re-ranks every voter: the owner clears the tally when its roster changes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gpbft::pbft {

/// f = (n - 1) / 3: the faulty members an n-member roster (n >= 1) tolerates.
[[nodiscard]] constexpr std::size_t faults_tolerated(std::size_t n) { return (n - 1) / 3; }

template <typename Key>
class Quorum {
 public:
  /// Counts votes from the members of `roster`, which is sorted ascending
  /// and outlives the tally.
  explicit Quorum(const std::vector<NodeId>& roster) : roster_(&roster) {}

  /// Counts `sender`'s vote for `key`; true when the vote is new. A sender
  /// off the roster, or one that already voted for `key`, changes nothing.
  bool add(NodeId sender, const Key& key) {
    const auto member = std::lower_bound(roster_->begin(), roster_->end(), sender);
    if (member == roster_->end() || *member != sender) return false;
    const auto rank = static_cast<std::size_t>(member - roster_->begin());
    if (keys_.empty()) width_ = (roster_->size() + 63) / 64;
    if (rank / 64 >= width_) return false;  // the roster grew and no one cleared the tally
    std::size_t slot = find(key);
    if (slot == keys_.size()) {
      keys_.push_back(key);
      words_.resize(words_.size() + width_);
    }
    std::uint64_t& word = words_[slot * width_ + rank / 64];
    const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// The number of members that voted for `key`.
  [[nodiscard]] std::size_t count(const Key& key) const {
    const std::size_t slot = find(key);
    return slot == keys_.size() ? 0 : voters(slot);
  }

  /// The largest count of any key (0 with no votes).
  [[nodiscard]] std::size_t max_count() const {
    std::size_t most = 0;
    for (std::size_t slot = 0; slot < keys_.size(); ++slot) most = std::max(most, voters(slot));
    return most;
  }

  /// Drops every key `pred` holds for, with its votes.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
      if (pred(keys_[slot])) continue;
      keys_[kept] = keys_[slot];
      std::copy_n(&words_[slot * width_], width_, &words_[kept * width_]);
      ++kept;
    }
    keys_.erase(keys_.begin() + kept, keys_.end());
    words_.resize(kept * width_);
  }

  /// Drops every key and vote, keeping the storage for the next ones.
  void clear() {
    keys_.clear();
    words_.clear();
  }

 private:
  [[nodiscard]] std::size_t find(const Key& key) const {
    return static_cast<std::size_t>(std::find(keys_.begin(), keys_.end(), key) - keys_.begin());
  }

  [[nodiscard]] std::size_t voters(std::size_t slot) const {
    std::size_t n = 0;
    for (std::size_t w = 0; w < width_; ++w) n += std::popcount(words_[slot * width_ + w]);
    return n;
  }

  const std::vector<NodeId>* roster_;
  std::vector<Key> keys_;
  std::vector<std::uint64_t> words_;  // width_ words per key; bit r is rank r's vote
  std::size_t width_{0};
};

}  // namespace gpbft::pbft
