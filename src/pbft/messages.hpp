// PBFT wire messages (Castro & Liskov, OSDI'99) plus the G-PBFT additions.
//
// Every message body is encoded with the serde codec and sealed with a
// pairwise HMAC authenticator for its receiver (crypto/authenticator.hpp).
// The seal/open helpers implement that framing uniformly, so byte counts on
// the simulated wire include realistic authentication overhead.
#pragma once

#include <span>
#include <vector>

#include "common/result.hpp"
#include "crypto/authenticator.hpp"
#include "ledger/block.hpp"
#include "net/message.hpp"
#include "serde/codec.hpp"

namespace gpbft::net {
class Network;
}  // namespace gpbft::net

namespace gpbft::pbft {

// Message-type registry for the whole protocol family. G-PBFT types live
// here too so traffic accounting sees one flat namespace.
namespace msg_type {
inline constexpr net::MessageType kClientRequest = 1;
inline constexpr net::MessageType kPrePrepare = 2;
inline constexpr net::MessageType kPrepare = 3;
inline constexpr net::MessageType kCommit = 4;
inline constexpr net::MessageType kReply = 5;
inline constexpr net::MessageType kCheckpoint = 6;
inline constexpr net::MessageType kViewChange = 7;
inline constexpr net::MessageType kNewView = 8;
inline constexpr net::MessageType kSyncRequest = 9;
inline constexpr net::MessageType kSyncResponse = 10;
// --- G-PBFT (§III of the paper) ---
inline constexpr net::MessageType kGeoReport = 20;
inline constexpr net::MessageType kEraHalt = 21;
inline constexpr net::MessageType kEraLaunch = 22;
}  // namespace msg_type

[[nodiscard]] const char* message_type_name(net::MessageType type);

// --- bodies -----------------------------------------------------------------
//
// Each body declares its wire layout once, as a field list (serde/codec.hpp),
// and each sealed body names its MessageType as kType, so it is sent with
// send_sealed() and decoded by type in one step.

struct ClientRequest {
  static constexpr net::MessageType kType = msg_type::kClientRequest;
  ledger::Transaction transaction;

  static auto fields(auto& m) { return serde::fields(m.transaction); }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<ClientRequest> decode(BytesView data) {
    return serde::decode<ClientRequest>(data);
  }
};

struct PrePrepare {
  static constexpr net::MessageType kType = msg_type::kPrePrepare;
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;  // hash of the proposed block
  ledger::Block block;

  static auto fields(auto& m) {
    return serde::fields(m.view, m.seq, m.digest, serde::framed(m.block));
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<PrePrepare> decode(BytesView data) {
    return serde::decode<PrePrepare>(data);
  }
};

struct Prepare {
  static constexpr net::MessageType kType = msg_type::kPrepare;
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;
  NodeId replica;

  static auto fields(auto& m) { return serde::fields(m.view, m.seq, m.digest, m.replica); }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<Prepare> decode(BytesView data) {
    return serde::decode<Prepare>(data);
  }
};

struct Commit {
  static constexpr net::MessageType kType = msg_type::kCommit;
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;
  NodeId replica;

  static auto fields(auto& m) { return serde::fields(m.view, m.seq, m.digest, m.replica); }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<Commit> decode(BytesView data) {
    return serde::decode<Commit>(data);
  }
};

/// Reply sent to the transaction's sender once its block executes.
struct Reply {
  static constexpr net::MessageType kType = msg_type::kReply;
  ViewId view{0};
  NodeId replica;
  crypto::Hash256 tx_digest;
  Height height{0};  // chain height at which the transaction landed

  static auto fields(auto& m) { return serde::fields(m.view, m.replica, m.tx_digest, m.height); }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<Reply> decode(BytesView data) { return serde::decode<Reply>(data); }
};

struct CheckpointMsg {
  static constexpr net::MessageType kType = msg_type::kCheckpoint;
  SeqNum seq{0};
  crypto::Hash256 chain_digest;  // hash of the chain tip at that checkpoint
  NodeId replica;

  static auto fields(auto& m) { return serde::fields(m.seq, m.chain_digest, m.replica); }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<CheckpointMsg> decode(BytesView data) {
    return serde::decode<CheckpointMsg>(data);
  }
};

/// Proof that an instance prepared in some view (carried in VIEW-CHANGE).
struct PreparedProof {
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;
  ledger::Block block;

  static auto fields(auto& m) {
    return serde::fields(m.view, m.seq, m.digest, serde::framed(m.block));
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<PreparedProof> decode(BytesView data) {
    return serde::decode<PreparedProof>(data);
  }
};

struct ViewChangeMsg {
  static constexpr net::MessageType kType = msg_type::kViewChange;
  ViewId new_view{0};
  SeqNum last_executed{0};
  std::vector<PreparedProof> prepared;
  NodeId replica;

  static auto fields(auto& m) {
    return serde::fields(m.new_view, m.last_executed,
                         serde::list<10'000, serde::Framed>(m.prepared), m.replica);
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<ViewChangeMsg> decode(BytesView data) {
    return serde::decode<ViewChangeMsg>(data);
  }
};

struct NewViewMsg {
  static constexpr net::MessageType kType = msg_type::kNewView;
  ViewId new_view{0};
  std::vector<ViewChangeMsg> proofs;       // the 2f+1 view-change certificate
  std::vector<PrePrepare> preprepares;     // re-proposals for prepared instances
  NodeId primary;

  static auto fields(auto& m) {
    return serde::fields(m.new_view, serde::list<10'000, serde::Framed>(m.proofs),
                         serde::list<10'000, serde::Framed>(m.preprepares), m.primary);
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<NewViewMsg> decode(BytesView data) {
    return serde::decode<NewViewMsg>(data);
  }
};

/// Chain-sync: a replica that observes f+1 COMMITs for a height it cannot
/// execute (it missed the proposal — e.g. it joined the committee while the
/// PRE-PREPARE was in flight, or messages were dropped) fetches the missing
/// blocks from a peer. Responses are validated against the chain's hash
/// linkage and any locally held commit certificates before adoption.
struct SyncRequest {
  static constexpr net::MessageType kType = msg_type::kSyncRequest;
  Height from_height{0};
  NodeId requester;

  static auto fields(auto& m) { return serde::fields(m.from_height, m.requester); }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<SyncRequest> decode(BytesView data) {
    return serde::decode<SyncRequest>(data);
  }
};

struct SyncResponse {
  static constexpr net::MessageType kType = msg_type::kSyncResponse;
  std::vector<ledger::Block> blocks;
  NodeId responder;

  static auto fields(auto& m) {
    return serde::fields(serde::list<100'000, serde::Framed>(m.blocks), m.responder);
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<SyncResponse> decode(BytesView data) {
    return serde::decode<SyncResponse>(data);
  }
};

// --- G-PBFT bodies ----------------------------------------------------------

/// Periodic location upload (§III-B3): the device's CSC cell and coordinates.
struct GeoReportMsg {
  static constexpr net::MessageType kType = msg_type::kGeoReport;
  NodeId device;
  double latitude{0};
  double longitude{0};
  TimePoint reported_at;

  static auto fields(auto& m) {
    return serde::fields(m.device, m.latitude, m.longitude, m.reported_at);
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<GeoReportMsg> decode(BytesView data) {
    return serde::decode<GeoReportMsg>(data);
  }
};

/// Era-switch control messages (§III-E): the lead endorser announces a halt,
/// then — once the configuration block commits — the launch of the new era.
struct EraHaltMsg {
  static constexpr net::MessageType kType = msg_type::kEraHalt;
  EraId closing_era{0};
  NodeId sender;

  static auto fields(auto& m) { return serde::fields(m.closing_era, m.sender); }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<EraHaltMsg> decode(BytesView data) {
    return serde::decode<EraHaltMsg>(data);
  }
};

struct EraLaunchMsg {
  static constexpr net::MessageType kType = msg_type::kEraLaunch;
  ledger::EraConfig config;
  Height config_height{0};  // height of the block carrying the config tx
  NodeId sender;

  /// State transfer for members joining mid-chain: the blocks the receiver
  /// is missing. Empty for members that followed the chain themselves. The
  /// bytes are accounted on the simulated wire like any other traffic.
  std::vector<ledger::Block> blocks;

  /// The config's roster and cells ride inline; its reputation scores do
  /// not travel in a launch.
  static auto fields(auto& m) {
    return serde::fields(m.config.era, serde::list<100'000>(m.config.endorsers),
                         serde::list<100'000, serde::Text<64>>(m.config.cells), m.config_height,
                         m.sender, serde::list<1'000'000, serde::Framed>(m.blocks));
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<EraLaunchMsg> decode(BytesView data) {
    return serde::decode<EraLaunchMsg>(data);
  }
};

// --- sealing ----------------------------------------------------------------

/// Appends the sender's HMAC tag for `receiver` to `body`. When
/// `compute_macs` is false the tag bytes are still appended (zeroed) so
/// wire sizes are identical; open_view() skips verification symmetrically.
///
/// The MAC binds the envelope's MessageType alongside the body: Prepare and
/// Commit share one field layout, so a tag over the body alone would let an
/// in-flight adversary retype a genuine Prepare into a forged Commit (or
/// any other same-layout confusion) without breaking verification. The type
/// rides in the envelope header, not the payload, so binding it costs no
/// wire bytes.
[[nodiscard]] Bytes seal(const crypto::KeyRegistry& keys, NodeId sender, NodeId receiver,
                         net::MessageType type, BytesView body, bool compute_macs);

/// Splits and verifies a sealed payload; on success returns a view of the
/// body *inside* `sealed` — valid only while the sealed bytes live. The
/// per-delivery hot path: handlers decode straight out of the arrival
/// buffer instead of paying an allocation and copy per message.
[[nodiscard]] Result<BytesView> open_view(const crypto::KeyRegistry& keys, NodeId sender,
                                          NodeId receiver, net::MessageType type, BytesView sealed,
                                          bool compute_macs);

namespace detail {
void fan_out(net::Network& network, const crypto::KeyRegistry& keys, NodeId from,
             std::span<const NodeId> peers, net::MessageType type, BytesView body,
             bool compute_macs);
}  // namespace detail

/// The send path of every sealed body: encodes `msg` once and sends it from
/// `from` to each of `peers` but `from` itself, in order, sealed for its
/// receiver. With MACs off the seal is receiver-independent, so every
/// envelope shares one sealed buffer; with MACs on each gets its own seal.
template <typename Msg>
void send_sealed(net::Network& network, const crypto::KeyRegistry& keys, NodeId from,
                 std::span<const NodeId> peers, const Msg& msg, bool compute_macs) {
  const Bytes body = serde::encode(msg);
  detail::fan_out(network, keys, from, peers, Msg::kType, body, compute_macs);
}

}  // namespace gpbft::pbft
