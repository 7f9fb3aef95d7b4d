#include "ledger/state.hpp"

#include <cmath>

namespace gpbft::ledger {

void State::credit(const crypto::Address& address, std::int64_t amount) {
  balances_[address] += amount;
}

void State::apply_block(const Block& block, const std::vector<NodeId>& endorsers) {
  Amount total_fees = 0;
  for (const Transaction& tx : block.transactions) {
    total_fees += tx.fee;
    credit(tx.sender_address, -static_cast<std::int64_t>(tx.fee));
    if (tx.kind == TxKind::Normal) latest_payloads_[tx.sender] = tx.payload;
    ++applied_transactions_;
  }

  if (total_fees > 0) {
    // 70% to the producer; 30% split evenly across endorsing peers, with
    // the integer remainder going to the producer so no fee unit is lost.
    const auto producer_share =
        static_cast<std::int64_t>(std::floor(static_cast<double>(total_fees) * kProducerFeeShare));
    std::int64_t endorser_pool = static_cast<std::int64_t>(total_fees) - producer_share;

    std::vector<NodeId> peers;
    for (NodeId id : endorsers) {
      if (id != block.header.producer) peers.push_back(id);
    }

    std::int64_t producer_total = producer_share;
    if (!peers.empty()) {
      const std::int64_t each = endorser_pool / static_cast<std::int64_t>(peers.size());
      for (NodeId id : peers) credit(addresses_.of(id), each);
      producer_total += endorser_pool - each * static_cast<std::int64_t>(peers.size());
    } else {
      producer_total += endorser_pool;
    }
    credit(addresses_.of(block.header.producer), producer_total);
  }

  ++applied_blocks_;
}

std::int64_t State::balance(const crypto::Address& address) const {
  const std::int64_t* balance = balances_.find(address);
  return balance == nullptr ? 0 : *balance;
}

std::int64_t State::balance_of_node(NodeId id) const {
  return balance(crypto::address_for_node(id));
}

std::optional<Bytes> State::latest_payload(NodeId sender) const {
  const auto it = latest_payloads_.find(sender);
  if (it == latest_payloads_.end()) return std::nullopt;
  return it->second;
}

}  // namespace gpbft::ledger
