#include "crypto/authenticator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "serde/writer.hpp"

namespace gpbft::crypto {

namespace {

/// Payload parts one tag streams; the MAC prefix takes the eighth slot.
constexpr std::size_t kMaxTagParts = 7;

}  // namespace

KeyRegistry::KeyRegistry(std::uint64_t genesis_seed) : genesis_seed_(genesis_seed) {}

Hash256 KeyRegistry::identity_key(NodeId id) const {
  serde::Writer w;
  w.string("gpbft-identity-key");
  w.u64(genesis_seed_);
  w.u64(id.value);
  return sha256(BytesView(w.buffer().data(), w.buffer().size()));
}

const KeyRegistry::SessionEntry& KeyRegistry::session_entry(NodeId a, NodeId b) const {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  const Link link{lo.value, hi.value};
  if (const auto it = sessions_.find(link); it != sessions_.end()) return it->second;

  serde::Writer w;
  w.string("gpbft-session-key");
  w.u64(hi.value);
  SessionEntry entry;
  entry.key = hmac_sha256(identity_key(lo).view(), BytesView(w.buffer().data(), w.buffer().size()));
  entry.mac = HmacKey(entry.key.view());
  return sessions_.emplace(link, std::move(entry)).first->second;
}

Hash256 KeyRegistry::session_key(NodeId a, NodeId b) const { return session_entry(a, b).key; }

std::array<std::uint8_t, 8> KeyRegistry::tag(NodeId sender, NodeId receiver,
                                             std::span<const BytesView> payload_parts) const {
  if (payload_parts.size() > kMaxTagParts) {
    std::fprintf(stderr, "KeyRegistry::tag: %zu payload parts, at most %zu\n",
                 payload_parts.size(), kMaxTagParts);
    std::abort();
  }
  const SessionEntry& entry = session_entry(sender, receiver);

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

  const Hash256 mac = entry.mac.mac(std::span<const BytesView>(parts.data(), count));
  std::array<std::uint8_t, 8> truncated;
  std::copy(mac.bytes.begin(), mac.bytes.begin() + 8, truncated.begin());
  return truncated;
}

}  // namespace gpbft::crypto
