#include "ledger/block.hpp"

#include <algorithm>

namespace gpbft::ledger {

crypto::Hash256 Block::hash() const {
  const Bytes encoded = header.encode();
  return crypto::sha256(BytesView(encoded.data(), encoded.size()));
}

crypto::Hash256 Block::compute_merkle_root() const {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const Transaction& tx : transactions) leaves.push_back(tx.digest());
  return crypto::MerkleTree::compute_root(leaves);
}

Result<std::vector<crypto::Hash256>> check_body(const std::vector<Transaction>& transactions,
                                                const crypto::Hash256& merkle_root) {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const Transaction& tx : transactions) leaves.push_back(tx.digest());
  if (crypto::MerkleTree::compute_root(leaves) != merkle_root) {
    return make_error("merkle root does not commit to the body");
  }
  std::vector<crypto::Hash256> sorted = leaves;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return make_error("a transaction repeats in the body");
  }
  return leaves;
}

Result<CheckedBlock> CheckedBlock::check(Block block) {
  auto digests = check_body(block.transactions, block.header.merkle_root);
  if (!digests) return make_error(digests.error());
  return CheckedBlock(std::make_shared<const Block>(std::move(block)),
                      std::move(digests.value()));
}

Amount Block::total_fees() const {
  Amount total = 0;
  for (const Transaction& tx : transactions) total += tx.fee;
  return total;
}

Block build_block(const BlockHeader& prev, std::vector<Transaction> transactions, EraId era,
                  ViewId view, SeqNum seq, TimePoint timestamp, NodeId producer) {
  Block block;
  block.transactions = std::move(transactions);
  block.header.height = prev.height + 1;

  // prev.hash(): hash of the previous header.
  Block prev_block;
  prev_block.header = prev;
  block.header.prev_hash = prev_block.hash();

  block.header.merkle_root = block.compute_merkle_root();
  block.header.era = era;
  block.header.view = view;
  block.header.seq = seq;
  block.header.timestamp = timestamp;
  block.header.producer = producer;
  return block;
}

}  // namespace gpbft::ledger
