#include "crypto/address.hpp"

#include "crypto/sha256.hpp"
#include "serde/writer.hpp"

namespace gpbft::crypto {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}

std::string Address::hex() const {
  std::string out;
  out.reserve(40);
  for (std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Address derive_address(BytesView key_material) {
  const Hash256 digest = sha256d(key_material);
  Address addr;
  std::copy(digest.bytes.begin(), digest.bytes.begin() + 20, addr.bytes.begin());
  return addr;
}

Address address_for_node(NodeId id) {
  serde::Writer w;
  w.string("gpbft-node-identity");
  w.u64(id.value);
  return derive_address(BytesView(w.buffer().data(), w.buffer().size()));
}

Address AddressCache::of(NodeId id) {
  const auto [address, inserted] = addresses_.try_emplace(id);
  if (inserted) *address = address_for_node(id);
  return *address;
}

}  // namespace gpbft::crypto
