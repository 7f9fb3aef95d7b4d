// Chain store with validation and fork detection.
//
// Each replica keeps its own Chain. append() enforces linkage (height,
// previous-hash, Merkle root); observe_header() additionally watches for a
// *different* block at an already-committed height — the fork evidence the
// incentive mechanism uses to expel a misbehaving producer (§III-B3/5).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.hpp"
#include "common/result.hpp"
#include "ledger/block.hpp"

namespace gpbft::ledger {

/// Evidence that a producer signed two different blocks for one height.
struct ForkEvidence {
  Height height{0};
  crypto::Hash256 committed;
  crypto::Hash256 conflicting;
  NodeId producer;  // producer of the conflicting block
};

class Chain {
 public:
  /// Starts from a genesis block (height 0).
  explicit Chain(Block genesis);

  /// Appends a block whose body is already checked. Errors on a wrong
  /// height or a broken prev-hash link; indexes the transactions by the
  /// digests the block carries, and shares the block rather than copying
  /// it.
  [[nodiscard]] Result<void> append(const CheckedBlock& block);

  /// Checks the body (CheckedBlock::check, one hash per transaction), then
  /// appends as above. Errors also on a Merkle root that does not match the
  /// body, or a body that repeats a transaction (see check_body).
  [[nodiscard]] Result<void> append(Block block);

  /// Checks a header observed from a peer; returns fork evidence when it
  /// conflicts with a block this chain already committed at that height.
  [[nodiscard]] std::optional<ForkEvidence> observe_header(const BlockHeader& header) const;

  [[nodiscard]] Height height() const { return blocks_.back()->header.height; }
  [[nodiscard]] const Block& tip() const { return *blocks_.back(); }
  [[nodiscard]] const Block& at(Height h) const { return *blocks_.at(h); }
  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// The height of the block holding the transaction with this digest: one
  /// flat-table probe.
  [[nodiscard]] std::optional<Height> find_transaction(const crypto::Hash256& digest) const;

  /// Latest era configuration recorded on chain (from config transactions).
  [[nodiscard]] EraConfig current_era_config() const;

 private:
  [[nodiscard]] Result<void> check_link(const BlockHeader& header) const;
  void push(const CheckedBlock& block);

  // Blocks are immutable once appended, so copies of a chain share them.
  std::vector<std::shared_ptr<const Block>> blocks_;
  FlatMap<crypto::Hash256, Height> tx_index_;
  EraConfig latest_era_;
};

}  // namespace gpbft::ledger
