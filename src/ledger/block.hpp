// Blocks.
//
// A block commits an ordered batch of transactions agreed by one PBFT
// instance. The header records the era/view/sequence coordinates of that
// agreement plus the producer (the primary that proposed it), which the
// incentive mechanism pays 70% of the block's fees.
#pragma once

#include <memory>
#include <vector>

#include "common/result.hpp"
#include "crypto/merkle.hpp"
#include "ledger/transaction.hpp"

namespace gpbft::ledger {

struct BlockHeader {
  Height height{0};
  crypto::Hash256 prev_hash;
  crypto::Hash256 merkle_root;
  EraId era{0};
  ViewId view{0};
  SeqNum seq{0};
  TimePoint timestamp;
  NodeId producer;

  static auto fields(auto& m) {
    return serde::fields(m.height, m.prev_hash, m.merkle_root, m.era, m.view, m.seq, m.timestamp,
                         m.producer);
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<BlockHeader> decode(BytesView data) {
    return serde::decode<BlockHeader>(data);
  }

  friend bool operator==(const BlockHeader&, const BlockHeader&) = default;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  static auto fields(auto& m) {
    return serde::fields(serde::framed(m.header),
                         serde::list<1'000'000, serde::Framed>(m.transactions));
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<Block> decode(BytesView data) { return serde::decode<Block>(data); }

  /// Hash of the header (the merkle_root already commits to the body).
  [[nodiscard]] crypto::Hash256 hash() const;

  /// Recomputes the Merkle root from the transactions.
  [[nodiscard]] crypto::Hash256 compute_merkle_root() const;

  /// Total fees carried by the block's transactions.
  [[nodiscard]] Amount total_fees() const;

  friend bool operator==(const Block&, const Block&) = default;
};

/// Checks that `merkle_root` commits to `transactions` and that no two of
/// them share a digest. The tree pairs an odd node with itself, so bodies
/// [a, b, c] and [a, b, c, c] have one root; refusing repeats leaves every
/// root a single body. Each digest is computed once, for both checks, and
/// returned: the leaf digests, in body order.
[[nodiscard]] Result<std::vector<crypto::Hash256>> check_body(
    const std::vector<Transaction>& transactions, const crypto::Hash256& merkle_root);

/// A block whose body passed check_body, carrying the leaf digests that
/// check computed so that later stages (chain index, mempool, client
/// table, replies) read them instead of re-hashing. It is immutable and
/// check() is the only way to make one, so digests()[i] is always
/// transactions()[i].digest(). Copies share one Block.
class CheckedBlock {
 public:
  [[nodiscard]] static Result<CheckedBlock> check(Block block);

  [[nodiscard]] const Block& block() const { return *block_; }
  [[nodiscard]] const BlockHeader& header() const { return block_->header; }
  [[nodiscard]] const std::vector<Transaction>& transactions() const {
    return block_->transactions;
  }
  [[nodiscard]] const std::vector<crypto::Hash256>& digests() const { return digests_; }
  /// The block itself, for an owner that keeps it past this object (the
  /// chain stores it without copying).
  [[nodiscard]] const std::shared_ptr<const Block>& shared_block() const { return block_; }

 private:
  CheckedBlock(std::shared_ptr<const Block> block, std::vector<crypto::Hash256> digests)
      : block_(std::move(block)), digests_(std::move(digests)) {}

  std::shared_ptr<const Block> block_;
  std::vector<crypto::Hash256> digests_;
};

/// Builds a block over `transactions` on top of `prev`, filling the Merkle
/// root and consensus coordinates.
[[nodiscard]] Block build_block(const BlockHeader& prev, std::vector<Transaction> transactions,
                                EraId era, ViewId view, SeqNum seq, TimePoint timestamp,
                                NodeId producer);

}  // namespace gpbft::ledger
