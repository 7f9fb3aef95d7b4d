// Chain persistence.
//
// Serializes a chain to a single file and restores it with full
// re-validation (hash linkage, Merkle roots), so a node can stop and
// resume without replaying consensus — the operational feature an
// IoT-blockchain deployment needs for devices that reboot.
//
// Every durable chain image — this ledger's and PoW's (pow/pow_store) —
// shares one framing, written by write_image and parsed by read_image
// (little-endian, serde framing):
//   8-byte magic | format version u32 | block count varint |
//   length-prefixed encoded blocks, genesis first |
//   sha256 over everything before it (integrity tail)
// The ledger's magic is "GPBFTCHN"; the blocks are ledger::Block encodings.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "ledger/chain.hpp"

namespace gpbft::ledger {

inline constexpr std::uint32_t kChainFileVersion = 1;

/// What tells one image kind from another under the shared framing.
struct ImageFormat {
  std::string_view magic;    ///< exactly 8 bytes
  std::uint32_t version;
  std::string_view label;    ///< error-message prefix, e.g. "chain file"
};

/// Frames `count` blocks, block i encoded by `encode_block(i)`, into an
/// image: one encode and one copy per block, one SHA-256 per image.
[[nodiscard]] Bytes write_image(const ImageFormat& format, std::size_t count,
                                const std::function<Bytes(std::size_t)>& encode_block);

/// Checks an image's integrity tail, magic, version and framing and returns
/// views of its encoded blocks (genesis first; at least one). Decoding and
/// validating them is the caller's job.
[[nodiscard]] Result<std::vector<BytesView>> read_image(const ImageFormat& format,
                                                        BytesView image);

/// Serializes `chain` (genesis..tip) into an in-memory image.
[[nodiscard]] Bytes serialize_chain(const Chain& chain);

/// Parses and re-validates an image produced by serialize_chain. Errors on
/// bad magic/version, a corrupted integrity tail, or any block that fails
/// chain validation.
[[nodiscard]] Result<Chain> deserialize_chain(BytesView image);

/// Writes the chain image to `path` (atomically via a temp file + rename).
[[nodiscard]] Result<void> save_chain(const Chain& chain, const std::string& path);

/// Loads and validates a chain from `path`.
[[nodiscard]] Result<Chain> load_chain(const std::string& path);

}  // namespace gpbft::ledger
