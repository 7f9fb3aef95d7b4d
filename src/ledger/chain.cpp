#include "ledger/chain.hpp"

namespace gpbft::ledger {

Chain::Chain(Block genesis) {
  for (const Transaction& tx : genesis.transactions) {
    tx_index_[tx.digest()] = 0;
    if (tx.kind == TxKind::Config) latest_era_ = tx.era_config;
  }
  blocks_.push_back(std::move(genesis));
}

Result<void> Chain::validate_next(const Block& block) const {
  const Block& tip_block = blocks_.back();
  if (block.header.height != tip_block.header.height + 1) {
    return make_error("chain: height " + std::to_string(block.header.height) +
                      " does not extend tip " + std::to_string(tip_block.header.height));
  }
  if (block.header.prev_hash != tip_block.hash()) {
    return make_error("chain: previous-hash link broken at height " +
                      std::to_string(block.header.height));
  }
  if (auto body = check_body(block.transactions, block.header.merkle_root); !body) {
    return make_error("chain: " + body.error());
  }
  return {};
}

Result<void> Chain::append(Block block) {
  if (auto valid = validate_next(block); !valid) return make_error(valid.error());
  const Height h = block.header.height;
  for (const Transaction& tx : block.transactions) {
    tx_index_[tx.digest()] = h;
    if (tx.kind == TxKind::Config) latest_era_ = tx.era_config;
  }
  blocks_.push_back(std::move(block));
  return {};
}

std::optional<ForkEvidence> Chain::observe_header(const BlockHeader& header) const {
  if (header.height >= blocks_.size()) return std::nullopt;  // not committed here yet
  Block observed;
  observed.header = header;
  const crypto::Hash256 observed_hash = observed.hash();
  const crypto::Hash256 committed_hash = blocks_[header.height].hash();
  if (observed_hash == committed_hash) return std::nullopt;
  return ForkEvidence{header.height, committed_hash, observed_hash, header.producer};
}

std::optional<Height> Chain::find_transaction(const crypto::Hash256& digest) const {
  const auto it = tx_index_.find(digest);
  if (it == tx_index_.end()) return std::nullopt;
  return it->second;
}

EraConfig Chain::current_era_config() const { return latest_era_; }

}  // namespace gpbft::ledger
