// PBFT wire messages (Castro & Liskov, OSDI'99) plus the G-PBFT additions.
//
// Every message body is encoded with the serde codec and sealed with a
// pairwise HMAC authenticator for its receiver (crypto/authenticator.hpp).
// The seal/open helpers implement that framing uniformly, so byte counts on
// the simulated wire include realistic authentication overhead.
#pragma once

#include <vector>

#include "common/result.hpp"
#include "crypto/authenticator.hpp"
#include "ledger/block.hpp"
#include "net/message.hpp"

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

struct ClientRequest {
  ledger::Transaction transaction;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ClientRequest> decode(BytesView data);
};

struct PrePrepare {
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;  // hash of the proposed block
  ledger::Block block;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<PrePrepare> decode(BytesView data);
};

struct Prepare {
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;
  NodeId replica;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<Prepare> decode(BytesView data);
};

struct Commit {
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;
  NodeId replica;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<Commit> decode(BytesView data);
};

/// Reply sent to the transaction's sender once its block executes.
struct Reply {
  ViewId view{0};
  NodeId replica;
  crypto::Hash256 tx_digest;
  Height height{0};  // chain height at which the transaction landed

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<Reply> decode(BytesView data);
};

struct CheckpointMsg {
  SeqNum seq{0};
  crypto::Hash256 chain_digest;  // hash of the chain tip at that checkpoint
  NodeId replica;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<CheckpointMsg> decode(BytesView data);
};

/// Proof that an instance prepared in some view (carried in VIEW-CHANGE).
struct PreparedProof {
  ViewId view{0};
  SeqNum seq{0};
  crypto::Hash256 digest;
  ledger::Block block;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<PreparedProof> decode(BytesView data);
};

struct ViewChangeMsg {
  ViewId new_view{0};
  SeqNum last_executed{0};
  std::vector<PreparedProof> prepared;
  NodeId replica;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ViewChangeMsg> decode(BytesView data);
};

struct NewViewMsg {
  ViewId new_view{0};
  std::vector<ViewChangeMsg> proofs;       // the 2f+1 view-change certificate
  std::vector<PrePrepare> preprepares;     // re-proposals for prepared instances
  NodeId primary;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<NewViewMsg> decode(BytesView data);
};

/// Chain-sync: a replica that observes f+1 COMMITs for a height it cannot
/// execute (it missed the proposal — e.g. it joined the committee while the
/// PRE-PREPARE was in flight, or messages were dropped) fetches the missing
/// blocks from a peer. Responses are validated against the chain's hash
/// linkage and any locally held commit certificates before adoption.
struct SyncRequest {
  Height from_height{0};
  NodeId requester;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<SyncRequest> decode(BytesView data);
};

struct SyncResponse {
  std::vector<ledger::Block> blocks;
  NodeId responder;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<SyncResponse> decode(BytesView data);
};

// --- G-PBFT bodies ----------------------------------------------------------

/// Periodic location upload (§III-B3): the device's CSC cell and coordinates.
struct GeoReportMsg {
  NodeId device;
  double latitude{0};
  double longitude{0};
  TimePoint reported_at;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<GeoReportMsg> decode(BytesView data);
};

/// Era-switch control messages (§III-E): the lead endorser announces a halt,
/// then — once the configuration block commits — the launch of the new era.
struct EraHaltMsg {
  EraId closing_era{0};
  NodeId sender;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<EraHaltMsg> decode(BytesView data);
};

struct EraLaunchMsg {
  ledger::EraConfig config;
  Height config_height{0};  // height of the block carrying the config tx
  NodeId sender;

  /// State transfer for members joining mid-chain: the blocks the receiver
  /// is missing. Empty for members that followed the chain themselves. The
  /// bytes are accounted on the simulated wire like any other traffic.
  std::vector<ledger::Block> blocks;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<EraLaunchMsg> decode(BytesView data);
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

}  // namespace gpbft::pbft
