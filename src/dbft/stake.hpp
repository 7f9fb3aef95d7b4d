// Stake registry and delegate election for the dBFT baseline.
//
// NEO's dBFT "determines the consensus committee by real-time blockchain
// voting" (§VI-A of the paper): token holders vote for candidates, and the
// top candidates by voted stake become the consensus delegates. Votes are
// carried as ordinary transactions (see make_vote_tx in delegate.hpp), so
// every node replaying the chain derives the same registry and the same
// delegate set — elections are deterministic chain state.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace gpbft::dbft {

class StakeRegistry {
 public:
  /// Sets a holder's stake (genesis distribution or balance updates).
  void set_stake(NodeId holder, Amount stake) { stakes_[holder] = stake; }
  [[nodiscard]] Amount stake_of(NodeId holder) const;

  /// Casts (or replaces) `voter`'s vote for `candidate`.
  void vote(NodeId voter, NodeId candidate) { votes_[voter] = candidate; }

  /// Voted weight of a candidate: sum of its voters' stakes.
  [[nodiscard]] Amount weight_of(NodeId candidate) const;

  /// Top `count` candidates by voted weight (ties broken by lower id);
  /// candidates with zero weight are not elected. Fewer than `count`
  /// results mean not enough candidates have votes.
  [[nodiscard]] std::vector<NodeId> elect(std::size_t count) const;

 private:
  std::unordered_map<NodeId, Amount> stakes_;
  std::unordered_map<NodeId, NodeId> votes_;  // voter -> candidate
};

}  // namespace gpbft::dbft
