#include "ledger/chain.hpp"

namespace gpbft::ledger {

Chain::Chain(Block genesis) {
  for (const Transaction& tx : genesis.transactions) {
    tx_index_[tx.digest()] = 0;
    if (tx.kind == TxKind::Config) latest_era_ = tx.era_config;
  }
  blocks_.push_back(std::make_shared<const Block>(std::move(genesis)));
}

Result<void> Chain::check_link(const BlockHeader& header) const {
  const Block& tip_block = tip();
  if (header.height != tip_block.header.height + 1) {
    return make_error("chain: height " + std::to_string(header.height) +
                      " does not extend tip " + std::to_string(tip_block.header.height));
  }
  if (header.prev_hash != tip_block.hash()) {
    return make_error("chain: previous-hash link broken at height " +
                      std::to_string(header.height));
  }
  return {};
}

void Chain::push(const CheckedBlock& block) {
  const Height h = block.header().height;
  const std::vector<Transaction>& transactions = block.transactions();
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    tx_index_[block.digests()[i]] = h;
    if (transactions[i].kind == TxKind::Config) latest_era_ = transactions[i].era_config;
  }
  blocks_.push_back(block.shared_block());
}

Result<void> Chain::append(const CheckedBlock& block) {
  if (auto link = check_link(block.header()); !link) return link;
  push(block);
  return {};
}

Result<void> Chain::append(Block block) {
  if (auto link = check_link(block.header); !link) return link;
  auto checked = CheckedBlock::check(std::move(block));
  if (!checked) return make_error("chain: " + checked.error());
  push(checked.value());
  return {};
}

std::optional<ForkEvidence> Chain::observe_header(const BlockHeader& header) const {
  if (header.height >= blocks_.size()) return std::nullopt;  // not committed here yet
  Block observed;
  observed.header = header;
  const crypto::Hash256 observed_hash = observed.hash();
  const crypto::Hash256 committed_hash = blocks_[header.height]->hash();
  if (observed_hash == committed_hash) return std::nullopt;
  return ForkEvidence{header.height, committed_hash, observed_hash, header.producer};
}

std::optional<Height> Chain::find_transaction(const crypto::Hash256& digest) const {
  if (const Height* height = tx_index_.find(digest)) return *height;
  return std::nullopt;
}

EraConfig Chain::current_era_config() const { return latest_era_; }

}  // namespace gpbft::ledger
