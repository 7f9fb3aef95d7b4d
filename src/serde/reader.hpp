// Binary wire-format reader; exact inverse of serde::Writer.
//
// Reads never throw: each accessor reports malformed/truncated input through
// Result, and decoding code propagates the failure so a Byzantine peer
// cannot crash a replica with a bad payload.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace gpbft::serde {

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<std::int64_t> i64();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<bool> boolean();
  [[nodiscard]] Result<std::uint64_t> varint();

  /// Exactly n raw bytes (e.g. a fixed-width hash), as a view into the
  /// reader's underlying buffer — no copy. Valid only while the bytes
  /// handed to the Reader's constructor live.
  [[nodiscard]] Result<BytesView> raw(std::size_t n);

  /// varint length-prefixed byte string. `max_len` bounds attacker-supplied
  /// lengths before any allocation happens.
  [[nodiscard]] Result<Bytes> bytes(std::size_t max_len = kDefaultMaxLen);
  /// As bytes(), but a view like raw()'s.
  [[nodiscard]] Result<BytesView> bytes_view(std::size_t max_len = kDefaultMaxLen);
  [[nodiscard]] Result<std::string> string(std::size_t max_len = kDefaultMaxLen);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

  static constexpr std::size_t kDefaultMaxLen = 16 * 1024 * 1024;

 private:
  BytesView data_;
  std::size_t pos_{0};
};

}  // namespace gpbft::serde
