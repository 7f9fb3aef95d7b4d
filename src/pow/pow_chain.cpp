#include "pow/pow_chain.hpp"

#include <algorithm>

#include "crypto/merkle.hpp"
#include "ledger/block.hpp"

namespace gpbft::pow {

// --- headers / blocks ---------------------------------------------------------

crypto::Hash256 PowBlock::hash() const {
  const Bytes encoded = header.encode();
  return crypto::sha256d(BytesView(encoded.data(), encoded.size()));
}

crypto::Hash256 PowBlock::compute_merkle_root() const {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const ledger::Transaction& tx : transactions) leaves.push_back(tx.digest());
  return crypto::MerkleTree::compute_root(leaves);
}

bool hash_meets_difficulty(const crypto::Hash256& hash, std::uint64_t difficulty) {
  if (difficulty <= 1) return true;
  // Interpret the first 8 digest bytes as a big-endian word; valid when it
  // falls below 2^64 / difficulty (expected `difficulty` trials per block).
  std::uint64_t word = 0;
  for (int i = 0; i < 8; ++i) word = (word << 8) | hash.bytes[static_cast<std::size_t>(i)];
  return word < (~0ull / difficulty);
}

PowBlock mine_block(PowBlock block, std::uint64_t proof_difficulty, std::uint64_t start_nonce) {
  block.header.merkle_root = block.compute_merkle_root();
  block.header.nonce = start_nonce;
  while (!hash_meets_difficulty(block.hash(), proof_difficulty)) {
    ++block.header.nonce;
  }
  return block;
}

PowBlock make_pow_genesis(std::uint64_t difficulty, std::uint64_t proof_difficulty) {
  PowBlock genesis;
  genesis.header.height = 0;
  genesis.header.prev_hash = crypto::Hash256{};
  genesis.header.difficulty = std::max<std::uint64_t>(1, difficulty);
  genesis.header.timestamp = TimePoint{0};
  genesis.header.miner = NodeId{0};
  return mine_block(std::move(genesis), proof_difficulty);
}

// --- chain ---------------------------------------------------------------------

PowChain::PowChain(PowBlock genesis, std::uint64_t proof_difficulty,
                   std::optional<RetargetConfig> retarget)
    : proof_difficulty_(proof_difficulty), retarget_(retarget) {
  const crypto::Hash256 hash = genesis.hash();
  genesis_hash_ = hash;
  best_tip_ = hash;
  Entry entry;
  entry.chain_work = genesis.header.difficulty;
  entry.block = std::move(genesis);
  blocks_.emplace(hash, std::move(entry));
  reindex_best_chain();
}

Result<bool> PowChain::add_block(PowBlock block) {
  last_connected_.clear();
  last_disconnected_.clear();
  const crypto::Hash256 hash = block.hash();
  if (blocks_.contains(hash)) return false;  // duplicate, tip unchanged

  if (!hash_meets_difficulty(hash, proof_difficulty_)) {
    return make_error("pow: header does not meet the proof target");
  }
  if (auto body = ledger::check_body(block.transactions, block.header.merkle_root); !body) {
    return make_error("pow: " + body.error());
  }

  if (!blocks_.contains(block.header.prev_hash)) {
    // Parent unknown: buffer as orphan until it arrives (bounded).
    if (orphans_.size() < 1024) orphans_.emplace(block.header.prev_hash, std::move(block));
    return false;
  }

  const crypto::Hash256 tip_before = best_tip_;
  if (auto connected = connect(std::move(block)); !connected) {
    return make_error(connected.error());
  }
  // connect() recursively attaches buffered orphans; report whether the
  // best tip moved at all (the miners' restart signal).
  if (best_tip_ != tip_before) record_reorg_deltas(tip_before);
  return best_tip_ != tip_before;
}

void PowChain::record_reorg_deltas(const crypto::Hash256& old_tip) {
  // Walk both tips back to their common ancestor: blocks on the old branch
  // left the best chain, blocks on the new branch joined it. For a plain
  // extension the old tip IS the ancestor and only the connected leg fills.
  crypto::Hash256 leaving = old_tip;
  crypto::Hash256 joining = best_tip_;
  const auto height_of = [this](const crypto::Hash256& h) {
    return blocks_.at(h).block.header.height;
  };
  while (height_of(leaving) > height_of(joining)) {
    last_disconnected_.push_back(leaving);
    leaving = blocks_.at(leaving).block.header.prev_hash;
  }
  while (height_of(joining) > height_of(leaving)) {
    last_connected_.push_back(joining);
    joining = blocks_.at(joining).block.header.prev_hash;
  }
  while (leaving != joining) {
    last_disconnected_.push_back(leaving);
    leaving = blocks_.at(leaving).block.header.prev_hash;
    last_connected_.push_back(joining);
    joining = blocks_.at(joining).block.header.prev_hash;
  }
  std::reverse(last_connected_.begin(), last_connected_.end());
}

Result<bool> PowChain::connect(PowBlock block) {
  const auto parent_it = blocks_.find(block.header.prev_hash);
  if (block.header.height != parent_it->second.block.header.height + 1) {
    return make_error("pow: height does not extend parent");
  }
  if (block.header.difficulty != next_difficulty(block.header.prev_hash)) {
    return make_error("pow: wrong difficulty for height " +
                      std::to_string(block.header.height));
  }

  const crypto::Hash256 hash = block.hash();
  Entry entry;
  entry.chain_work = parent_it->second.chain_work + block.header.difficulty;
  entry.block = std::move(block);
  const std::uint64_t work = entry.chain_work;
  blocks_.emplace(hash, std::move(entry));

  if (work > blocks_.at(best_tip_).chain_work) {
    best_tip_ = hash;
    reindex_best_chain();
  }
  try_connect_orphans(hash);
  return true;
}

void PowChain::try_connect_orphans(const crypto::Hash256& parent) {
  auto [begin, end] = orphans_.equal_range(parent);
  std::vector<PowBlock> ready;
  for (auto it = begin; it != end; ++it) ready.push_back(std::move(it->second));
  orphans_.erase(begin, end);
  for (PowBlock& block : ready) (void)connect(std::move(block));
}

void PowChain::reindex_best_chain() {
  tx_to_block_.clear();
  crypto::Hash256 cursor = best_tip_;
  while (true) {
    const Entry& entry = blocks_.at(cursor);
    for (const ledger::Transaction& tx : entry.block.transactions) {
      tx_to_block_.emplace(tx.digest(), cursor);
    }
    if (cursor == genesis_hash_) break;
    cursor = entry.block.header.prev_hash;
  }
}

const PowBlock& PowChain::tip() const { return blocks_.at(best_tip_).block; }

Height PowChain::tip_height() const { return tip().header.height; }

std::uint64_t PowChain::best_work() const { return blocks_.at(best_tip_).chain_work; }

std::vector<PowBlock> PowChain::best_chain() const {
  std::vector<PowBlock> chain;
  crypto::Hash256 cursor = best_tip_;
  while (true) {
    const Entry& entry = blocks_.at(cursor);
    chain.push_back(entry.block);
    if (cursor == genesis_hash_) break;
    cursor = entry.block.header.prev_hash;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::optional<Height> PowChain::confirmation_depth(const crypto::Hash256& digest) const {
  const auto it = tx_to_block_.find(digest);
  if (it == tx_to_block_.end()) return std::nullopt;
  const Entry& entry = blocks_.at(it->second);
  return tip_height() - entry.block.header.height;
}

std::uint64_t PowChain::next_difficulty(const crypto::Hash256& parent) const {
  const auto parent_it = blocks_.find(parent);
  if (parent_it == blocks_.end()) return blocks_.at(genesis_hash_).block.header.difficulty;
  const PowBlock& parent_block = parent_it->second.block;

  if (!retarget_.has_value()) return parent_block.header.difficulty;
  const RetargetConfig& rule = *retarget_;
  const Height next_height = parent_block.header.height + 1;
  if (rule.interval == 0 || next_height % rule.interval != 0) {
    return parent_block.header.difficulty;
  }

  // Walk `interval` blocks up the parent's branch to find the window start.
  crypto::Hash256 cursor = parent;
  for (Height steps = 0; steps + 1 < rule.interval; ++steps) {
    const auto it = blocks_.find(cursor);
    if (it == blocks_.end() || cursor == genesis_hash_) break;
    cursor = it->second.block.header.prev_hash;
  }
  const auto start_it = blocks_.find(cursor);
  if (start_it == blocks_.end()) return parent_block.header.difficulty;

  const double actual_span =
      (parent_block.header.timestamp - start_it->second.block.header.timestamp).to_seconds();
  const double target_span =
      rule.target_block_time.to_seconds() * static_cast<double>(rule.interval - 1);
  if (actual_span <= 0.0 || target_span <= 0.0) return parent_block.header.difficulty;

  double factor = target_span / actual_span;  // too fast -> raise difficulty
  factor = std::min(rule.max_factor, std::max(1.0 / rule.max_factor, factor));
  const double scaled = static_cast<double>(parent_block.header.difficulty) * factor;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(scaled));
}

std::size_t PowChain::stale_count() const {
  return blocks_.size() - static_cast<std::size_t>(tip_height() + 1);
}

const PowBlock* PowChain::find_block(const crypto::Hash256& block_hash) const {
  const auto it = blocks_.find(block_hash);
  return it == blocks_.end() ? nullptr : &it->second.block;
}

}  // namespace gpbft::pow
