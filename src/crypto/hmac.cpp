#include "crypto/hmac.hpp"

#include <array>

namespace gpbft::crypto {

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, 64> block_key{};
  if (key.size() > 64) {
    const Hash256 hashed = sha256(key);
    std::copy(hashed.bytes.begin(), hashed.bytes.end(), block_key.begin());
  } else {
    std::copy(key.begin(), key.end(), block_key.begin());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }
  // Each pad is exactly one SHA-256 block, so after these updates the
  // contexts hold compressed mid-states with empty buffers: the chaining
  // words are all a message needs to resume from.
  Sha256 inner;
  inner.update(BytesView(ipad.data(), ipad.size()));
  inner_ = inner.state();
  Sha256 outer;
  outer.update(BytesView(opad.data(), opad.size()));
  outer_ = outer.state();
}

Hash256 HmacKey::mac(BytesView data) const {
  const std::array<BytesView, 1> parts{data};
  return mac(std::span<const BytesView>(parts.data(), parts.size()));
}

Hash256 HmacKey::mac(std::span<const BytesView> parts) const {
  Sha256 inner = Sha256::resume(inner_, 1);
  for (const BytesView part : parts) inner.update(part);
  const Hash256 inner_digest = inner.finalize();

  Sha256 outer = Sha256::resume(outer_, 1);
  outer.update(inner_digest.view());
  return outer.finalize();
}

Hash256 hmac_sha256(BytesView key, BytesView data) { return HmacKey(key).mac(data); }

bool constant_time_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace gpbft::crypto
