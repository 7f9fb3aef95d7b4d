#include "pbft/messages.hpp"

#include <array>
#include <span>

#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::pbft {

const char* message_type_name(net::MessageType type) {
  switch (type) {
    case msg_type::kClientRequest: return "REQUEST";
    case msg_type::kPrePrepare: return "PRE-PREPARE";
    case msg_type::kPrepare: return "PREPARE";
    case msg_type::kCommit: return "COMMIT";
    case msg_type::kReply: return "REPLY";
    case msg_type::kCheckpoint: return "CHECKPOINT";
    case msg_type::kViewChange: return "VIEW-CHANGE";
    case msg_type::kNewView: return "NEW-VIEW";
    case msg_type::kSyncRequest: return "SYNC-REQUEST";
    case msg_type::kSyncResponse: return "SYNC-RESPONSE";
    case msg_type::kGeoReport: return "GEO-REPORT";
    case msg_type::kEraHalt: return "ERA-HALT";
    case msg_type::kEraLaunch: return "ERA-LAUNCH";
    default: return "UNKNOWN";
  }
}

// --- sealing ---------------------------------------------------------------------

namespace {

/// The authenticated payload, expressed as HMAC-streamable parts: body bytes
/// followed by the envelope's MessageType (little-endian u16, encoded into
/// the caller-provided scratch). See the seal() declaration for why the type
/// must be bound into the tag.
std::array<BytesView, 2> mac_parts(BytesView body, net::MessageType type,
                                   std::array<std::uint8_t, 2>& type_le) {
  type_le[0] = static_cast<std::uint8_t>(type & 0xffu);
  type_le[1] = static_cast<std::uint8_t>(type >> 8);
  return {body, BytesView(type_le.data(), type_le.size())};
}

}  // namespace

Bytes seal(const crypto::KeyRegistry& keys, NodeId sender, NodeId receiver, net::MessageType type,
           BytesView body, bool compute_macs) {
  GPBFT_PROFILE_SCOPE("crypto.seal");
  serde::Writer w;
  w.reserve(serde::varint_size(body.size()) + body.size() + 8 + 8);
  w.bytes(body);
  w.u64(sender.value);
  if (compute_macs) {
    std::array<std::uint8_t, 2> type_le;
    const auto parts = mac_parts(body, type, type_le);
    const std::array<std::uint8_t, 8> tag =
        keys.tag(sender, receiver, std::span<const BytesView>(parts.data(), parts.size()));
    w.raw(BytesView(tag.data(), tag.size()));
  } else {
    const std::array<std::uint8_t, 8> zero{};
    w.raw(BytesView(zero.data(), zero.size()));
  }
  return w.take();
}

Result<BytesView> open_view(const crypto::KeyRegistry& keys, NodeId sender, NodeId receiver,
                            net::MessageType type, BytesView sealed, bool compute_macs) {
  GPBFT_PROFILE_SCOPE("crypto.open");
  serde::Reader r(sealed);
  auto body_view = r.bytes_view();
  if (!body_view) return make_error(body_view.error());
  const BytesView body = body_view.value();
  auto claimed_sender = r.u64();
  if (!claimed_sender) return make_error(claimed_sender.error());
  if (claimed_sender.value() != sender.value) {
    return make_error("seal: sender mismatch (spoofed envelope)");
  }
  auto tag = r.raw(8);
  if (!tag) return make_error(tag.error());
  if (!r.exhausted()) return make_error("seal: trailing bytes");

  if (compute_macs) {
    std::array<std::uint8_t, 2> type_le;
    const auto parts = mac_parts(body, type, type_le);
    const std::array<std::uint8_t, 8> expected =
        keys.tag(sender, receiver, std::span<const BytesView>(parts.data(), parts.size()));
    if (!crypto::constant_time_equal(tag.value(), BytesView(expected.data(), expected.size()))) {
      return make_error("seal: HMAC verification failed (body or type forged)");
    }
  }
  return body;
}

void detail::fan_out(net::Network& network, const crypto::KeyRegistry& keys, NodeId from,
                     std::span<const NodeId> peers, net::MessageType type, BytesView body,
                     bool compute_macs) {
  net::Payload sealed;
  for (NodeId peer : peers) {
    if (peer == from) continue;
    // With MACs off the seal is receiver-independent (a zero tag), so one
    // sealed buffer serves the whole fan-out: N refcount bumps instead of N
    // seals and N payload copies. This is the broadcast hot path of every
    // sweep (sim::default_options runs with compute_macs=false).
    if (compute_macs || sealed.empty()) {
      sealed = seal(keys, from, peer, type, body, compute_macs);
    }
    network.send(net::Envelope{from, peer, type, sealed});
  }
}

}  // namespace gpbft::pbft
