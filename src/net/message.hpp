// Wire envelope delivered between simulated nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace gpbft::net {

/// Protocol-level message kind; interpreted by the receiving node. Kept in
/// the envelope (not the payload) so the network layer can account traffic
/// per message class.
using MessageType = std::uint16_t;

/// Refcounted immutable payload buffer.
///
/// Broadcast fan-out used to deep-copy the payload once per destination and
/// twice more inside the delivery events; at 202 nodes that memcpy bound
/// the simulator (docs/performance.md). A Payload shares one immutable
/// Bytes buffer instead: copying an envelope bumps a refcount. The buffer
/// is never mutated after construction — senders build the bytes first and
/// hand them over, receivers only read — so sharing is safe by constraint,
/// not by locking.
///
/// Reads go through the same surface Bytes offered (data/size/empty/
/// operator[]/iterators), so handler code is unchanged; to replace the
/// content, assign a freshly built Bytes.
class Payload {
 public:
  Payload() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): Bytes is the natural
  // literal at every send site; conversion is the API.
  Payload(Bytes bytes) : data_(std::make_shared<const Bytes>(std::move(bytes))) {}
  Payload& operator=(Bytes bytes) {
    data_ = std::make_shared<const Bytes>(std::move(bytes));
    return *this;
  }

  [[nodiscard]] const Bytes& bytes() const { return data_ ? *data_ : empty_bytes(); }
  [[nodiscard]] std::size_t size() const { return bytes().size(); }
  [[nodiscard]] bool empty() const { return bytes().empty(); }
  [[nodiscard]] const std::uint8_t* data() const { return bytes().data(); }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return bytes()[i]; }
  [[nodiscard]] Bytes::const_iterator begin() const { return bytes().begin(); }
  [[nodiscard]] Bytes::const_iterator end() const { return bytes().end(); }
  [[nodiscard]] BytesView view() const { return BytesView(data(), size()); }

  friend bool operator==(const Payload& a, const Payload& b) { return a.bytes() == b.bytes(); }
  friend bool operator==(const Payload& a, const Bytes& b) { return a.bytes() == b; }

 private:
  static const Bytes& empty_bytes() {
    static const Bytes kNone;
    return kNone;
  }

  std::shared_ptr<const Bytes> data_;
};

struct Envelope {
  NodeId from;
  NodeId to;
  MessageType type{0};
  Payload payload;

  /// Size on the wire: payload plus a fixed transport header (addresses,
  /// type, length, checksum — 32 bytes, a realistic UDP-framing overhead).
  [[nodiscard]] std::size_t wire_size() const { return payload.size() + kHeaderBytes; }

  static constexpr std::size_t kHeaderBytes = 32;
};

}  // namespace gpbft::net
