// Merkle tree over transaction digests.
//
// Blocks commit to their transaction set via the Merkle root; inclusion
// proofs let lightweight IoT clients verify that a transaction was committed
// without downloading whole blocks (important for constrained devices, §I of
// the paper).
//
// Construction mirrors Bitcoin's: leaves are already-hashed items, interior
// nodes are sha256(left || right), and an odd node at any level is paired
// with itself. Leaf hashes are domain-separated from interior hashes to
// prevent second-preimage splicing attacks.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.hpp"

namespace gpbft::crypto {

/// One step of an inclusion proof: the sibling digest and its side.
struct MerkleStep {
  Hash256 sibling;
  bool sibling_on_left{false};
};

using MerkleProof = std::vector<MerkleStep>;

class MerkleTree {
 public:
  /// Builds the full tree; `leaves` are item digests (already hashed data).
  explicit MerkleTree(std::vector<Hash256> leaves);

  [[nodiscard]] const Hash256& root() const { return levels_.back().front(); }

  /// Inclusion proof for leaf `index`; index must be less than the number
  /// of leaves the tree was built from.
  [[nodiscard]] MerkleProof prove(std::size_t index) const;

  /// Verifies `proof` connects `leaf` to `root`.
  [[nodiscard]] static bool verify(const Hash256& leaf, const MerkleProof& proof,
                                   const Hash256& root);

  /// Root without materializing the tree (for block validation).
  [[nodiscard]] static Hash256 compute_root(const std::vector<Hash256>& leaves);

 private:
  static Hash256 hash_leaf(const Hash256& item);
  static Hash256 hash_interior(const Hash256& left, const Hash256& right);

  std::vector<std::vector<Hash256>> levels_;  // levels_[0] = hashed leaves
};

}  // namespace gpbft::crypto
