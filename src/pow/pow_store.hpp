// Durable image of a PoW best chain, in the framing every chain image
// shares (ledger/store: write_image / read_image) under its own magic:
//
//   "GPBFTPOW" | u32 version | varint count | count x length-prefixed
//   encoded PowBlocks (genesis first) | sha256 integrity tail
//
// Only the best chain is persisted (side branches and orphans are
// reconstructible from gossip, and a reorg past a restart is equivalent to
// having restarted with a slightly stale snapshot). Deserialization checks
// the integrity tail and framing; proof-of-work and linkage validation
// happen when the blocks are re-added to a PowChain (Miner::restore_chain),
// which keeps the trust anchored in consensus rules rather than the disk.
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "pow/pow_chain.hpp"

namespace gpbft::pow {

inline constexpr std::uint32_t kPowChainFileVersion = 1;

[[nodiscard]] Bytes serialize_pow_chain(const PowChain& chain);

/// Parses an image produced by serialize_pow_chain. Returns the block list
/// (genesis first) or an error on any corruption — torn writes and bit rot
/// fail the integrity tail before any block is decoded.
[[nodiscard]] Result<std::vector<PowBlock>> deserialize_pow_chain(BytesView image);

}  // namespace gpbft::pow
