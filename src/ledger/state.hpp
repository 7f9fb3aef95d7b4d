// Application/ledger state and fee accounting.
//
// Applying a block updates:
//  * per-address balances — fees are debited from senders and credited to
//    the incentive mechanism's recipients (70% producer / 30% endorsers,
//    §III-B5);
//  * a key-value view of the latest normal-transaction payload per sender
//    (the "ledger status" that IoT data changes, §III-B2);
//  * counters used by tests and the experiment harness.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "crypto/address.hpp"
#include "ledger/block.hpp"

namespace gpbft::ledger {

/// Reward fractions from §III-B5 of the paper.
inline constexpr double kProducerFeeShare = 0.70;
inline constexpr double kEndorserFeeShare = 0.30;

class State {
 public:
  State() = default;

  /// Applies every transaction of a block and distributes its fees to the
  /// producer and the given endorsing peers.
  void apply_block(const Block& block, const std::vector<NodeId>& endorsers);

  /// Balance of an address (0 for unknown addresses; balances may go
  /// negative in accounting terms, tracked as signed).
  [[nodiscard]] std::int64_t balance(const crypto::Address& address) const;
  [[nodiscard]] std::int64_t balance_of_node(NodeId id) const;

  /// Latest normal payload recorded for a sender.
  [[nodiscard]] std::optional<Bytes> latest_payload(NodeId sender) const;

  [[nodiscard]] std::uint64_t applied_transactions() const { return applied_transactions_; }
  [[nodiscard]] std::uint64_t applied_blocks() const { return applied_blocks_; }

 private:
  void credit(const crypto::Address& address, std::int64_t amount);

  crypto::AddressCache addresses_;  // producers and endorsers paid so far
  FlatMap<crypto::Address, std::int64_t> balances_;
  std::unordered_map<NodeId, Bytes> latest_payloads_;
  std::uint64_t applied_transactions_{0};
  std::uint64_t applied_blocks_{0};
};

}  // namespace gpbft::ledger
