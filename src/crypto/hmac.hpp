// HMAC-SHA256 (RFC 2104), verified against the RFC 4231 test vectors.
//
// Message authentication in this system follows the MAC-based variant of
// Castro-Liskov PBFT: replicas share pairwise session keys (distributed via
// the genesis key registry, appropriate for the consortium chains G-PBFT
// targets) and authenticate protocol messages with HMAC tags.
//
// Two surfaces:
//   - hmac_sha256(): one-shot, for one-off callers (key derivation, tests).
//   - HmacKey: a precomputed key context. The ipad/opad key schedule of
//     HMAC is exactly one SHA-256 block each; a context absorbs both pads
//     once at construction and keeps only the two resulting 32-byte
//     mid-states, 64 bytes in all, so a cached key fills one cache line. A
//     message resumes a SHA-256 context from each mid-state, so a session
//     key reused across thousands of tags pays the two extra compression
//     calls exactly once instead of per message. Output is bit-identical to
//     hmac_sha256 (proven in tests/crypto_test.cpp).
#pragma once

#include <span>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace gpbft::crypto {

/// Precomputed HMAC-SHA256 key context: the SHA-256 mid-states after the
/// keyed inner and outer pads, resumed per message. Copyable; mac() never
/// mutates the context.
class alignas(64) HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(BytesView key);

  /// HMAC-SHA256 over `data`; equals hmac_sha256(key, data).
  [[nodiscard]] Hash256 mac(BytesView data) const;
  /// As above over the concatenation of `parts` — lets callers stream a
  /// prefix + payload into the MAC without materializing the buffer.
  [[nodiscard]] Hash256 mac(std::span<const BytesView> parts) const;

 private:
  Sha256::State inner_{};  // mid-state after the one block key ^ ipad
  Sha256::State outer_{};  // mid-state after the one block key ^ opad
};
static_assert(sizeof(HmacKey) == 64);

/// HMAC-SHA256 over `data` with `key` (any key length).
[[nodiscard]] Hash256 hmac_sha256(BytesView key, BytesView data);

/// Constant-time tag comparison; prevents timing side channels on verify.
[[nodiscard]] bool constant_time_equal(BytesView a, BytesView b);

}  // namespace gpbft::crypto
