#include "crypto/authenticator.hpp"

#include <algorithm>
#include <mutex>

#include "serde/writer.hpp"

namespace gpbft::crypto {

KeyRegistry::KeyRegistry(std::uint64_t genesis_seed) : genesis_seed_(genesis_seed) {}

const Hash256& KeyRegistry::identity_key(NodeId id) const {
  {
    std::shared_lock lock(identity_mu_);
    const auto it = identity_cache_.find(id);
    // References are stable (node-based map, never erased), so returning
    // one after dropping the lock is safe.
    if (it != identity_cache_.end()) return it->second;
  }

  serde::Writer w;
  w.string("gpbft-identity-key");
  w.u64(genesis_seed_);
  w.u64(id.value);
  const Hash256 key = sha256(BytesView(w.buffer().data(), w.buffer().size()));

  std::unique_lock lock(identity_mu_);
  // try_emplace: a concurrent caller may have derived the same (pure,
  // deterministic) value while we did; first insert wins, results agree.
  return identity_cache_.try_emplace(id, key).first->second;
}

const KeyRegistry::SessionEntry& KeyRegistry::session_entry(NodeId a, NodeId b) const {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  const std::pair<std::uint64_t, std::uint64_t> link{lo.value, hi.value};
  SessionShard& shard = sessions_[(lo.value * 31 + hi.value) % kSessionShards];
  {
    std::shared_lock lock(shard.mu);
    const auto it = shard.entries.find(link);
    if (it != shard.entries.end()) return it->second;
  }

  serde::Writer w;
  w.string("gpbft-session-key");
  w.u64(hi.value);
  SessionEntry entry;
  entry.key = hmac_sha256(identity_key(lo).view(), BytesView(w.buffer().data(), w.buffer().size()));
  entry.mac = HmacKey(entry.key.view());

  std::unique_lock lock(shard.mu);
  return shard.entries.try_emplace(link, std::move(entry)).first->second;
}

Hash256 KeyRegistry::session_key(NodeId a, NodeId b) const { return session_entry(a, b).key; }

std::array<std::uint8_t, 8> KeyRegistry::tag(NodeId sender, NodeId receiver,
                                             std::span<const BytesView> payload_parts) const {
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

  std::array<BytesView, 8> parts;
  parts[0] = BytesView(prefix.data(), prefix_len);
  std::size_t count = 1;
  for (const BytesView part : payload_parts) parts[count++] = part;

  const Hash256 mac = entry.mac.mac(std::span<const BytesView>(parts.data(), count));
  std::array<std::uint8_t, 8> truncated;
  std::copy(mac.bytes.begin(), mac.bytes.begin() + 8, truncated.begin());
  return truncated;
}

Authenticator KeyRegistry::authenticate(NodeId sender, const std::vector<NodeId>& receivers,
                                        std::span<const BytesView> payload_parts) const {
  Authenticator auth;
  auth.sender = sender;
  auth.tags.reserve(receivers.size());
  for (NodeId receiver : receivers) {
    auth.tags.push_back(AuthTag{receiver, tag(sender, receiver, payload_parts)});
  }
  return auth;
}

Authenticator KeyRegistry::authenticate(NodeId sender, const std::vector<NodeId>& receivers,
                                        BytesView payload) const {
  const std::array<BytesView, 1> parts{payload};
  return authenticate(sender, receivers, std::span<const BytesView>(parts.data(), parts.size()));
}

bool KeyRegistry::verify(const Authenticator& auth, NodeId receiver,
                         std::span<const BytesView> payload_parts) const {
  for (const AuthTag& entry : auth.tags) {
    if (entry.receiver != receiver) continue;
    const std::array<std::uint8_t, 8> expected = tag(auth.sender, receiver, payload_parts);
    return constant_time_equal(BytesView(entry.tag.data(), entry.tag.size()),
                               BytesView(expected.data(), expected.size()));
  }
  return false;
}

bool KeyRegistry::verify(const Authenticator& auth, NodeId receiver, BytesView payload) const {
  const std::array<BytesView, 1> parts{payload};
  return verify(auth, receiver, std::span<const BytesView>(parts.data(), parts.size()));
}

}  // namespace gpbft::crypto
