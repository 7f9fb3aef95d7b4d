// Proof-of-Work chain substrate.
//
// The paper repeatedly contrasts G-PBFT with PoW ("most IoT-blockchain
// systems take PoW as their underlying consensus... it is hard for IoT
// devices to conduct expensive mining work", §I; Table IV scores PoW low
// speed / high computing overhead). To *measure* those claims rather than
// quote them, this module implements a Nakamoto-style chain:
//
//  * blocks carry a nonce and a difficulty target; the header hash must
//    fall below the target;
//  * fork choice is heaviest chain (sum of per-block work), tracked over a
//    block tree so competing tips and orphans are first-class;
//  * confirmation is probabilistic: a transaction counts as final once its
//    block is `confirmation_depth` below the best tip.
//
// Mining itself is simulated on the discrete-event clock (DESIGN.md §1):
// finding a block is a Poisson process, so each miner draws Exp(difficulty
// / hashrate) for its next solve and re-arms when the tip changes — the
// memorylessness of the exponential makes re-arming statistically exact.
// The hashes a miner *would* have computed accumulate as the energy /
// computing-overhead metric of Table IV.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "ledger/transaction.hpp"

namespace gpbft::pow {

/// Work target: a block's hash (interpreted big-endian) must be strictly
/// below `target_from_difficulty(difficulty)`. Difficulty d means on
/// average d hash evaluations per block.
struct PowBlockHeader {
  Height height{0};
  crypto::Hash256 prev_hash;
  crypto::Hash256 merkle_root;
  std::uint64_t difficulty{1};
  std::uint64_t nonce{0};
  TimePoint timestamp;
  NodeId miner;

  static auto fields(auto& m) {
    return serde::fields(m.height, m.prev_hash, m.merkle_root, m.difficulty, m.nonce,
                         m.timestamp, m.miner);
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<PowBlockHeader> decode(BytesView data) {
    return serde::decode<PowBlockHeader>(data);
  }

  friend bool operator==(const PowBlockHeader&, const PowBlockHeader&) = default;
};

struct PowBlock {
  PowBlockHeader header;
  std::vector<ledger::Transaction> transactions;

  static auto fields(auto& m) {
    return serde::fields(serde::framed(m.header),
                         serde::list<1'000'000, serde::Framed>(m.transactions));
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<PowBlock> decode(BytesView data) {
    return serde::decode<PowBlock>(data);
  }
  [[nodiscard]] crypto::Hash256 hash() const;
  [[nodiscard]] crypto::Hash256 compute_merkle_root() const;

  friend bool operator==(const PowBlock&, const PowBlock&) = default;
};

/// True when `hash` satisfies `difficulty` (expected `difficulty` trials).
[[nodiscard]] bool hash_meets_difficulty(const crypto::Hash256& hash, std::uint64_t difficulty);

/// Grinds nonces until the header's hash meets `proof_difficulty`.
///
/// Two difficulties exist deliberately: header.difficulty is the *consensus*
/// difficulty — it drives the simulated solve times and the fork-choice
/// work sum (millions of hashes per block, paid on the simulated clock).
/// `proof_difficulty` is the scaled-down target actually ground and
/// verified in wall-clock time (~1 k hashes), so validation exercises a
/// genuine proof-of-work check without re-doing the full grind the
/// simulation already charged for. DESIGN.md documents the substitution.
[[nodiscard]] PowBlock mine_block(PowBlock block, std::uint64_t proof_difficulty,
                                  std::uint64_t start_nonce = 0);

/// Difficulty retargeting: every `interval` blocks the difficulty is
/// rescaled so blocks keep landing `target_block_time` apart as the fleet's
/// total hashrate changes (devices join, crash, or are repurposed — churn
/// is the norm in IoT deployments). The per-retarget factor is clamped to
/// [1/max_factor, max_factor], Bitcoin-style.
struct RetargetConfig {
  Height interval{16};
  Duration target_block_time = Duration::seconds(10);
  double max_factor{4.0};
};

/// Block tree with heaviest-chain fork choice.
class PowChain {
 public:
  explicit PowChain(PowBlock genesis, std::uint64_t proof_difficulty = kDefaultProofDifficulty,
                    std::optional<RetargetConfig> retarget = std::nullopt);

  static constexpr std::uint64_t kDefaultProofDifficulty = 1024;

  /// Validates (linkage to a known block, a body its merkle root commits to
  /// with no repeated transaction, proof-of-work) and inserts. Returns
  /// whether the *best tip changed* (a reorg or extension) — the signal for
  /// miners to restart. Unknown parents are buffered as orphans and
  /// connected when the parent arrives.
  [[nodiscard]] Result<bool> add_block(PowBlock block);

  [[nodiscard]] const PowBlock& tip() const;
  [[nodiscard]] crypto::Hash256 tip_hash() const { return best_tip_; }
  [[nodiscard]] Height tip_height() const;

  /// Total accumulated work (sum of difficulty) on the best chain.
  [[nodiscard]] std::uint64_t best_work() const;

  /// Blocks on the best chain, genesis..tip.
  [[nodiscard]] std::vector<PowBlock> best_chain() const;

  /// Depth of the block containing `digest` below the best tip (0 = in the
  /// tip); nullopt when the transaction is not on the best chain.
  [[nodiscard]] std::optional<Height> confirmation_depth(const crypto::Hash256& digest) const;

  /// Consensus difficulty required of the block that extends `parent`.
  /// Without retargeting this is the parent's difficulty; with it, the
  /// retarget rule applies at each interval boundary. Unknown parents get
  /// the genesis difficulty.
  [[nodiscard]] std::uint64_t next_difficulty(const crypto::Hash256& parent) const;

  /// Best-chain delta of the most recent add_block() call: hashes of blocks
  /// that joined the best chain (ancestor→tip order) and of blocks that
  /// left it (tip→ancestor order). Both are empty when the tip did not
  /// move. Powers the miners' reorg-aware mempool maintenance: connected
  /// transactions leave the mempool, disconnected ones are resurrected
  /// unless the new branch reconfirmed them.
  [[nodiscard]] const std::vector<crypto::Hash256>& last_connected() const {
    return last_connected_;
  }
  [[nodiscard]] const std::vector<crypto::Hash256>& last_disconnected() const {
    return last_disconnected_;
  }

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  /// The connected block with `block_hash`, or nullptr (orphans and unknown
  /// hashes are not served). Powers the parent-fetch sync path in Miner.
  [[nodiscard]] const PowBlock* find_block(const crypto::Hash256& block_hash) const;
  /// Blocks known but not on the best chain (stale/orphaned work).
  [[nodiscard]] std::size_t stale_count() const;
  [[nodiscard]] std::size_t pending_orphans() const { return orphans_.size(); }
  [[nodiscard]] bool contains(const crypto::Hash256& block_hash) const {
    return blocks_.contains(block_hash);
  }

 private:
  struct Entry {
    PowBlock block;
    std::uint64_t chain_work{0};  // cumulative from genesis
  };

  [[nodiscard]] Result<bool> connect(PowBlock block);
  void try_connect_orphans(const crypto::Hash256& parent);
  void reindex_best_chain();
  void record_reorg_deltas(const crypto::Hash256& old_tip);

  std::uint64_t proof_difficulty_;
  std::optional<RetargetConfig> retarget_;
  std::unordered_map<crypto::Hash256, Entry> blocks_;
  std::multimap<crypto::Hash256, PowBlock> orphans_;  // parent hash -> block
  crypto::Hash256 genesis_hash_;
  crypto::Hash256 best_tip_;
  std::vector<crypto::Hash256> last_connected_;
  std::vector<crypto::Hash256> last_disconnected_;
  // digest -> (block hash, height) for best-chain confirmation queries.
  std::unordered_map<crypto::Hash256, crypto::Hash256> tx_to_block_;
};

/// A deterministic PoW genesis block (consensus difficulty in the header,
/// ground against the proof difficulty).
[[nodiscard]] PowBlock make_pow_genesis(
    std::uint64_t difficulty, std::uint64_t proof_difficulty = PowChain::kDefaultProofDifficulty);

}  // namespace gpbft::pow
