#include "crypto/authenticator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "serde/writer.hpp"

namespace gpbft::crypto {

namespace {

/// Payload parts one tag streams; the MAC prefix takes the eighth slot.
constexpr std::size_t kMaxTagParts = 7;

/// The truncated tag of `payload_parts` from `sender` under `key`.
std::array<std::uint8_t, 8> tag_with(const HmacKey& key, NodeId sender,
                                     std::span<const BytesView> payload_parts) {
  // Byte-identical to the historical Writer-built input: u64(sender) in
  // fixed 8-byte LE, varint(payload length), payload bytes — streamed as
  // parts instead of materialized per receiver. The sender direction is
  // bound into the MAC input so A->B and B->A tags differ even though the
  // session key is symmetric.
  std::uint64_t payload_len = 0;
  for (const BytesView part : payload_parts) payload_len += part.size();

  std::array<std::uint8_t, 18> prefix;  // 8-byte sender + <= 10-byte varint
  std::size_t prefix_len = 0;
  std::uint64_t sender_le = sender.value;
  for (int i = 0; i < 8; ++i) {
    prefix[prefix_len++] = static_cast<std::uint8_t>(sender_le & 0xffu);
    sender_le >>= 8;
  }
  std::uint64_t v = payload_len;
  while (v >= 0x80) {
    prefix[prefix_len++] = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  prefix[prefix_len++] = static_cast<std::uint8_t>(v);

  std::array<BytesView, kMaxTagParts + 1> parts;
  parts[0] = BytesView(prefix.data(), prefix_len);
  std::size_t count = 1;
  for (const BytesView part : payload_parts) parts[count++] = part;

  const Hash256 mac = key.mac(std::span<const BytesView>(parts.data(), count));
  std::array<std::uint8_t, 8> truncated;
  std::copy(mac.bytes.begin(), mac.bytes.begin() + 8, truncated.begin());
  return truncated;
}

}  // namespace

KeyRegistry::KeyRegistry(std::uint64_t genesis_seed) : genesis_seed_(genesis_seed) {}

Hash256 KeyRegistry::identity_key(NodeId id) const {
  serde::Writer w;
  w.string("gpbft-identity-key");
  w.u64(genesis_seed_);
  w.u64(id.value);
  return sha256(BytesView(w.buffer().data(), w.buffer().size()));
}

Hash256 KeyRegistry::session_key(NodeId a, NodeId b) const {
  serde::Writer w;
  w.string("gpbft-session-key");
  w.u64(std::max(a, b).value);
  return hmac_sha256(identity_key(std::min(a, b)).view(),
                     BytesView(w.buffer().data(), w.buffer().size()));
}

const HmacKey& KeyRegistry::session_mac(NodeId lo, NodeId hi) const {
  const auto [slot, inserted] = session_slots_.try_emplace((lo.value << 32) | hi.value);
  if (inserted) {
    *slot = static_cast<std::uint32_t>(sessions_.size());
    sessions_.emplace_back(session_key(lo, hi).view());
  }
  return sessions_[*slot];
}

std::array<std::uint8_t, 8> KeyRegistry::tag(NodeId sender, NodeId receiver,
                                             std::span<const BytesView> payload_parts) const {
  if (payload_parts.size() > kMaxTagParts) {
    std::fprintf(stderr, "KeyRegistry::tag: %zu payload parts, at most %zu\n",
                 payload_parts.size(), kMaxTagParts);
    std::abort();
  }
  const NodeId lo = std::min(sender, receiver);
  const NodeId hi = std::max(sender, receiver);
  if ((hi.value >> 32) != 0) {
    return tag_with(HmacKey(session_key(lo, hi).view()), sender, payload_parts);
  }
  return tag_with(session_mac(lo, hi), sender, payload_parts);
}

}  // namespace gpbft::crypto
