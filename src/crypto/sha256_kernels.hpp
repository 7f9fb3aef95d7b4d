// SHA-256 compression kernels (private to src/crypto and its tests).
//
// A kernel folds `nblocks` consecutive 64-byte message blocks at `data` into
// the eight-word chaining `state` (FIPS 180-4 §6.2.2). Two implementations
// exist: the portable FIPS 180-4 loop, which runs everywhere and is the
// reference, and an x86-64 SHA-extensions kernel. Sha256 picks one per
// process from CPUID on first use; both produce bit-identical states, which
// tests/crypto_test.cpp checks by calling them side by side.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gpbft::crypto::detail {

using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t nblocks);

/// The portable FIPS 180-4 loop.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks);

/// The SHA-extensions kernel, or nullptr when this CPU lacks SHA, SSE4.1 or
/// SSSE3 (always nullptr off x86-64).
[[nodiscard]] Sha256Compress sha256_compress_x86_sha();

}  // namespace gpbft::crypto::detail
