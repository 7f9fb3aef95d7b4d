// Binary wire-format writer.
//
// All protocol messages, transactions and blocks are encoded with this
// little-endian codec: fixed-width integers, LEB128 varints for lengths,
// length-prefixed byte strings. The format is deliberately simple so that
// message sizes are predictable — the communication-cost experiments
// (Figs. 5-6 of the paper) account bytes of exactly these encodings.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace gpbft::serde {

class Writer {
 public:
  Writer() = default;

  /// Sizes the buffer for `n` more bytes, so an encoder that knows its
  /// output size writes into one allocation.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);

  /// Unsigned LEB128 varint.
  void varint(std::uint64_t v);

  /// Raw bytes, no length prefix (caller knows the width, e.g. hashes).
  void raw(BytesView data);

  /// varint length prefix followed by the bytes.
  void bytes(BytesView data);
  void string(std::string_view s);

  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bytes varint(v) writes.
[[nodiscard]] std::size_t varint_size(std::uint64_t v);

}  // namespace gpbft::serde
