// Chain addresses.
//
// A node's on-chain address is derived from its identity key:
// address = first 20 bytes of sha256d(key material). Addresses appear in
// Crypto-Spatial Coordinates (geohash + address, §III-B3) and in the fee /
// reward ledger of the incentive mechanism.
#pragma once

#include <array>
#include <compare>
#include <string>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace gpbft::crypto {

struct Address {
  std::array<std::uint8_t, 20> bytes{};

  friend constexpr auto operator<=>(const Address&, const Address&) = default;

  [[nodiscard]] std::string hex() const;
  [[nodiscard]] BytesView view() const { return BytesView(bytes.data(), bytes.size()); }
};

/// Derives an address from arbitrary identity-key material.
[[nodiscard]] Address derive_address(BytesView key_material);

/// Deterministic per-node address used throughout the simulation.
[[nodiscard]] Address address_for_node(NodeId id);

/// address_for_node, kept for each node its owner has asked about, so a hot
/// path pays the double SHA-256 once per node.
class AddressCache {
 public:
  /// By value: the next call may move the cached entries.
  [[nodiscard]] Address of(NodeId id);

 private:
  FlatMap<NodeId, Address> addresses_;
};

}  // namespace gpbft::crypto

template <>
struct std::hash<gpbft::crypto::Address> {
  std::size_t operator()(const gpbft::crypto::Address& a) const noexcept {
    std::size_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | a.bytes[static_cast<std::size_t>(i)];
    return v;
  }
};
