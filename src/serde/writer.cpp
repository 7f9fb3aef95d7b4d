#include "serde/writer.hpp"

#include <bit>
#include <cstring>

namespace gpbft::serde {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

void Writer::raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

void Writer::bytes(BytesView data) {
  varint(data.size());
  raw(data);
}

void Writer::string(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

}  // namespace gpbft::serde
