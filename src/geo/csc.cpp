#include "geo/csc.hpp"

#include <algorithm>
#include <array>

#include "crypto/sha256.hpp"

namespace gpbft::geo {

namespace {
constexpr int kSuffixDigits = 10;

/// The suffix digits of sha256 over the bytes serde::Writer writes for the
/// cell's text then the raw address: a one-byte varint length (a cell has at
/// most 12 digits), the digits, the 20 address bytes.
std::uint64_t identity_suffix(GeoCell cell, const crypto::Address& address) {
  std::array<std::uint8_t, 1 + GeoCell::kMaxPrecision + 20> input{};
  const auto digits = cell.digits();
  const std::size_t length = static_cast<std::size_t>(cell.precision());
  input[0] = static_cast<std::uint8_t>(length);
  std::copy_n(digits.begin(), length, input.begin() + 1);
  std::copy(address.bytes.begin(), address.bytes.end(),
            input.begin() + 1 + static_cast<std::ptrdiff_t>(length));
  const crypto::Hash256 digest =
      crypto::sha256(BytesView(input.data(), 1 + length + address.bytes.size()));
  std::uint64_t suffix = 0;
  for (int i = 0; i < kSuffixDigits; ++i) {
    suffix = (suffix << 5) | (digest.bytes[static_cast<std::size_t>(i)] & 0x1f);
  }
  return suffix;
}
}  // namespace

Csc::Csc(GeoCell cell, const crypto::Address& address)
    : cell_(cell), suffix_(identity_suffix(cell, address)) {}

std::string Csc::str() const {
  std::string out = cell_.str();
  out.push_back('-');
  for (int shift = 5 * (kSuffixDigits - 1); shift >= 0; shift -= 5) {
    out.push_back(kGeohashAlphabet[(suffix_ >> shift) & 0x1f]);
  }
  return out;
}

}  // namespace gpbft::geo
