// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for transaction/block hashing, Merkle trees, chain addresses and as
// the compression function inside HMAC. Compression runs on the x86-64 SHA
// extensions when the CPU has them and on a portable loop otherwise
// (crypto/sha256_kernels.hpp); digests are identical either way. Verified
// against the NIST example vectors and a known-answer table in
// tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace gpbft::crypto {

/// A 256-bit digest with value semantics; ordered and hashable so it can key
/// maps (e.g. the PBFT message log indexed by request digest).
struct Hash256 {
  std::array<std::uint8_t, 32> bytes{};

  friend constexpr auto operator<=>(const Hash256&, const Hash256&) = default;

  [[nodiscard]] std::string hex() const;
  [[nodiscard]] BytesView view() const { return BytesView(bytes.data(), bytes.size()); }
  [[nodiscard]] bool is_zero() const;

  /// Stable short form for logs ("a1b2c3d4").
  [[nodiscard]] std::string short_hex() const;
};

/// Incremental SHA-256 context.
class Sha256 {
 public:
  /// The eight chaining words between blocks.
  using State = std::array<std::uint32_t, 8>;

  Sha256();

  /// A context that has absorbed `blocks` whole 64-byte blocks and holds
  /// `state` — what state() read from such a context.
  [[nodiscard]] static Sha256 resume(const State& state, std::uint64_t blocks) {
    return Sha256(state, blocks * 64);
  }

  void update(BytesView data);
  void update(std::string_view data);

  /// The chaining state; a mid-state that resume() can continue only when
  /// the input so far is a whole number of blocks.
  [[nodiscard]] const State& state() const { return state_; }

  /// Finalizes and returns the digest; the context must not be reused after.
  [[nodiscard]] Hash256 finalize();

 private:
  // The buffer stays unwritten: with buffer_len_ 0 nothing reads it before
  // update() fills it.
  Sha256(const State& state, std::uint64_t total_len) : state_(state), total_len_(total_len) {}

  State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_{0};
  std::uint64_t total_len_{0};
};

/// One-shot convenience.
[[nodiscard]] Hash256 sha256(BytesView data);
[[nodiscard]] Hash256 sha256(std::string_view data);

/// sha256(sha256(x)) — used for chain addresses.
[[nodiscard]] Hash256 sha256d(BytesView data);

/// The compression kernel this process runs: "x86-sha" or "portable".
/// Benchmarks record it so numbers from hosts without SHA extensions are
/// not compared against ones with them.
[[nodiscard]] const char* sha256_kernel();

}  // namespace gpbft::crypto

template <>
struct std::hash<gpbft::crypto::Hash256> {
  std::size_t operator()(const gpbft::crypto::Hash256& h) const noexcept {
    // The digest is uniformly distributed; fold the first 8 bytes.
    std::size_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | h.bytes[static_cast<std::size_t>(i)];
    return v;
  }
};
