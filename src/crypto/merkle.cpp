#include "crypto/merkle.hpp"

namespace gpbft::crypto {

namespace {
// Domain-separation tags, hashed in front of node payloads.
constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kInteriorTag = 0x01;
}  // namespace

Hash256 MerkleTree::hash_leaf(const Hash256& item) {
  Sha256 ctx;
  ctx.update(BytesView(&kLeafTag, 1));
  ctx.update(item.view());
  return ctx.finalize();
}

Hash256 MerkleTree::hash_interior(const Hash256& left, const Hash256& right) {
  Sha256 ctx;
  ctx.update(BytesView(&kInteriorTag, 1));
  ctx.update(left.view());
  ctx.update(right.view());
  return ctx.finalize();
}

MerkleTree::MerkleTree(std::vector<Hash256> leaves) {
  std::vector<Hash256> level;
  if (leaves.empty()) {
    // Empty tree: root is the hash of the empty leaf tag, so empty blocks
    // still commit to a well-defined value.
    level.push_back(hash_leaf(Hash256{}));
  } else {
    level.reserve(leaves.size());
    for (const Hash256& leaf : leaves) level.push_back(hash_leaf(leaf));
  }
  levels_.push_back(std::move(level));

  while (levels_.back().size() > 1) {
    const std::vector<Hash256>& below = levels_.back();
    std::vector<Hash256> above;
    above.reserve((below.size() + 1) / 2);
    for (std::size_t i = 0; i < below.size(); i += 2) {
      const Hash256& left = below[i];
      const Hash256& right = (i + 1 < below.size()) ? below[i + 1] : below[i];
      above.push_back(hash_interior(left, right));
    }
    levels_.push_back(std::move(above));
  }
}

MerkleProof MerkleTree::prove(std::size_t index) const {
  MerkleProof proof;
  std::size_t pos = index;
  for (std::size_t depth = 0; depth + 1 < levels_.size(); ++depth) {
    const std::vector<Hash256>& level = levels_[depth];
    const std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    MerkleStep step;
    step.sibling_on_left = (pos % 2 == 1);
    step.sibling = (sibling < level.size()) ? level[sibling] : level[pos];  // odd: self-pair
    proof.push_back(step);
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Hash256& leaf, const MerkleProof& proof, const Hash256& root) {
  Hash256 acc = hash_leaf(leaf);
  for (const MerkleStep& step : proof) {
    acc = step.sibling_on_left ? hash_interior(step.sibling, acc)
                               : hash_interior(acc, step.sibling);
  }
  return acc == root;
}

Hash256 MerkleTree::compute_root(const std::vector<Hash256>& leaves) {
  return MerkleTree(leaves).root();
}

}  // namespace gpbft::crypto
