#include "serde/reader.hpp"

#include <cstring>

namespace gpbft::serde {

Result<std::uint8_t> Reader::u8() {
  if (remaining() < 1) return make_error("serde: truncated u8");
  return data_[pos_++];
}

Result<std::uint16_t> Reader::u16() {
  if (remaining() < 2) return make_error("serde: truncated u16");
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::uint32_t> Reader::u32() {
  if (remaining() < 4) return make_error("serde: truncated u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::uint64_t> Reader::u64() {
  if (remaining() < 8) return make_error("serde: truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::int64_t> Reader::i64() {
  auto v = u64();
  if (!v) return make_error(v.error());
  return static_cast<std::int64_t>(v.value());
}

Result<double> Reader::f64() {
  auto bits = u64();
  if (!bits) return make_error(bits.error());
  double v = 0;
  const std::uint64_t b = bits.value();
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

Result<bool> Reader::boolean() {
  auto v = u8();
  if (!v) return make_error(v.error());
  if (v.value() > 1) return make_error("serde: invalid bool byte");
  return v.value() == 1;
}

Result<std::uint64_t> Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return make_error("serde: truncated varint");
    if (shift >= 64) return make_error("serde: varint overflow");
    const std::uint8_t byte = data_[pos_++];
    // At shift 63 only the low bit still fits in a u64; higher payload
    // bits would be shifted out silently, so two distinct encodings
    // could alias to one value.
    if (shift == 63 && (byte & 0x7e) != 0) return make_error("serde: varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<BytesView> Reader::raw(std::size_t n) {
  if (remaining() < n) return make_error("serde: truncated raw bytes");
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<BytesView> Reader::bytes_view(std::size_t max_len) {
  auto len = varint();
  if (!len) return make_error(len.error());
  if (len.value() > max_len) return make_error("serde: length exceeds limit");
  // Check the declared length against what is actually left before anyone
  // sizes an allocation from it: a tampered length prefix must never drive
  // a reservation larger than the buffer it claims to describe.
  if (len.value() > remaining()) return make_error("serde: declared length exceeds remaining bytes");
  return raw(static_cast<std::size_t>(len.value()));
}

Result<Bytes> Reader::bytes(std::size_t max_len) {
  auto view = bytes_view(max_len);
  if (!view) return make_error(view.error());
  return Bytes(view.value().begin(), view.value().end());
}

Result<std::string> Reader::string(std::size_t max_len) {
  auto view = bytes_view(max_len);
  if (!view) return make_error(view.error());
  return std::string(view.value().begin(), view.value().end());
}

}  // namespace gpbft::serde
