#include "pbft/messages.hpp"

#include <array>
#include <span>

#include "obs/profiler.hpp"

#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::pbft {

namespace {

void put_hash(serde::Writer& w, const crypto::Hash256& h) { w.raw(h.view()); }

Result<crypto::Hash256> get_hash(serde::Reader& r) {
  auto raw = r.raw(32);
  if (!raw) return make_error(raw.error());
  crypto::Hash256 h;
  std::copy(raw.value().begin(), raw.value().end(), h.bytes.begin());
  return h;
}

void put_block(serde::Writer& w, const ledger::Block& block) {
  const Bytes encoded = block.encode();
  w.bytes(BytesView(encoded.data(), encoded.size()));
}

Result<ledger::Block> get_block(serde::Reader& r) {
  auto raw = r.bytes();
  if (!raw) return make_error(raw.error());
  return ledger::Block::decode(BytesView(raw.value().data(), raw.value().size()));
}

}  // namespace

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

// --- ClientRequest ----------------------------------------------------------

Bytes ClientRequest::encode() const { return transaction.encode(); }

Result<ClientRequest> ClientRequest::decode(BytesView data) {
  auto tx = ledger::Transaction::decode(data);
  if (!tx) return make_error(tx.error());
  return ClientRequest{std::move(tx.value())};
}

// --- PrePrepare ---------------------------------------------------------------

Bytes PrePrepare::encode() const {
  serde::Writer w;
  w.u64(view);
  w.u64(seq);
  put_hash(w, digest);
  put_block(w, block);
  return w.take();
}

Result<PrePrepare> PrePrepare::decode(BytesView data) {
  serde::Reader r(data);
  PrePrepare m;
  auto view = r.u64();
  if (!view) return make_error(view.error());
  m.view = view.value();
  auto seq = r.u64();
  if (!seq) return make_error(seq.error());
  m.seq = seq.value();
  auto digest = get_hash(r);
  if (!digest) return make_error(digest.error());
  m.digest = digest.value();
  auto block = get_block(r);
  if (!block) return make_error(block.error());
  m.block = std::move(block.value());
  if (!r.exhausted()) return make_error("pre-prepare: trailing bytes");
  return m;
}

// --- Prepare / Commit ---------------------------------------------------------

namespace {
template <typename T>
Bytes encode_vote(const T& m) {
  serde::Writer w;
  w.u64(m.view);
  w.u64(m.seq);
  put_hash(w, m.digest);
  w.u64(m.replica.value);
  return w.take();
}

template <typename T>
Result<T> decode_vote(BytesView data, const char* what) {
  serde::Reader r(data);
  T m;
  auto view = r.u64();
  if (!view) return make_error(view.error());
  m.view = view.value();
  auto seq = r.u64();
  if (!seq) return make_error(seq.error());
  m.seq = seq.value();
  auto digest = get_hash(r);
  if (!digest) return make_error(digest.error());
  m.digest = digest.value();
  auto replica = r.u64();
  if (!replica) return make_error(replica.error());
  m.replica = NodeId{replica.value()};
  if (!r.exhausted()) return make_error(std::string(what) + ": trailing bytes");
  return m;
}
}  // namespace

Bytes Prepare::encode() const { return encode_vote(*this); }
Result<Prepare> Prepare::decode(BytesView data) { return decode_vote<Prepare>(data, "prepare"); }

Bytes Commit::encode() const { return encode_vote(*this); }
Result<Commit> Commit::decode(BytesView data) { return decode_vote<Commit>(data, "commit"); }

// --- Reply --------------------------------------------------------------------

Bytes Reply::encode() const {
  serde::Writer w;
  w.u64(view);
  w.u64(replica.value);
  put_hash(w, tx_digest);
  w.u64(height);
  return w.take();
}

Result<Reply> Reply::decode(BytesView data) {
  serde::Reader r(data);
  Reply m;
  auto view = r.u64();
  if (!view) return make_error(view.error());
  m.view = view.value();
  auto replica = r.u64();
  if (!replica) return make_error(replica.error());
  m.replica = NodeId{replica.value()};
  auto digest = get_hash(r);
  if (!digest) return make_error(digest.error());
  m.tx_digest = digest.value();
  auto height = r.u64();
  if (!height) return make_error(height.error());
  m.height = height.value();
  if (!r.exhausted()) return make_error("reply: trailing bytes");
  return m;
}

// --- Checkpoint -----------------------------------------------------------------

Bytes CheckpointMsg::encode() const {
  serde::Writer w;
  w.u64(seq);
  put_hash(w, chain_digest);
  w.u64(replica.value);
  return w.take();
}

Result<CheckpointMsg> CheckpointMsg::decode(BytesView data) {
  serde::Reader r(data);
  CheckpointMsg m;
  auto seq = r.u64();
  if (!seq) return make_error(seq.error());
  m.seq = seq.value();
  auto digest = get_hash(r);
  if (!digest) return make_error(digest.error());
  m.chain_digest = digest.value();
  auto replica = r.u64();
  if (!replica) return make_error(replica.error());
  m.replica = NodeId{replica.value()};
  if (!r.exhausted()) return make_error("checkpoint: trailing bytes");
  return m;
}

// --- PreparedProof ----------------------------------------------------------------

Bytes PreparedProof::encode() const {
  serde::Writer w;
  w.u64(view);
  w.u64(seq);
  put_hash(w, digest);
  put_block(w, block);
  return w.take();
}

Result<PreparedProof> PreparedProof::decode(BytesView data) {
  serde::Reader r(data);
  PreparedProof m;
  auto view = r.u64();
  if (!view) return make_error(view.error());
  m.view = view.value();
  auto seq = r.u64();
  if (!seq) return make_error(seq.error());
  m.seq = seq.value();
  auto digest = get_hash(r);
  if (!digest) return make_error(digest.error());
  m.digest = digest.value();
  auto block = get_block(r);
  if (!block) return make_error(block.error());
  m.block = std::move(block.value());
  if (!r.exhausted()) return make_error("prepared-proof: trailing bytes");
  return m;
}

// --- ViewChange -----------------------------------------------------------------

Bytes ViewChangeMsg::encode() const {
  serde::Writer w;
  w.u64(new_view);
  w.u64(last_executed);
  w.varint(prepared.size());
  for (const PreparedProof& proof : prepared) {
    const Bytes encoded = proof.encode();
    w.bytes(BytesView(encoded.data(), encoded.size()));
  }
  w.u64(replica.value);
  return w.take();
}

Result<ViewChangeMsg> ViewChangeMsg::decode(BytesView data) {
  serde::Reader r(data);
  ViewChangeMsg m;
  auto new_view = r.u64();
  if (!new_view) return make_error(new_view.error());
  m.new_view = new_view.value();
  auto last_exec = r.u64();
  if (!last_exec) return make_error(last_exec.error());
  m.last_executed = last_exec.value();
  auto count = r.varint();
  if (!count) return make_error(count.error());
  if (count.value() > 10'000) return make_error("view-change: too many proofs");
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto raw = r.bytes();
    if (!raw) return make_error(raw.error());
    auto proof = PreparedProof::decode(BytesView(raw.value().data(), raw.value().size()));
    if (!proof) return make_error(proof.error());
    m.prepared.push_back(std::move(proof.value()));
  }
  auto replica = r.u64();
  if (!replica) return make_error(replica.error());
  m.replica = NodeId{replica.value()};
  if (!r.exhausted()) return make_error("view-change: trailing bytes");
  return m;
}

// --- NewView --------------------------------------------------------------------

Bytes NewViewMsg::encode() const {
  serde::Writer w;
  w.u64(new_view);
  w.varint(proofs.size());
  for (const ViewChangeMsg& proof : proofs) {
    const Bytes encoded = proof.encode();
    w.bytes(BytesView(encoded.data(), encoded.size()));
  }
  w.varint(preprepares.size());
  for (const PrePrepare& pp : preprepares) {
    const Bytes encoded = pp.encode();
    w.bytes(BytesView(encoded.data(), encoded.size()));
  }
  w.u64(primary.value);
  return w.take();
}

Result<NewViewMsg> NewViewMsg::decode(BytesView data) {
  serde::Reader r(data);
  NewViewMsg m;
  auto new_view = r.u64();
  if (!new_view) return make_error(new_view.error());
  m.new_view = new_view.value();

  auto proof_count = r.varint();
  if (!proof_count) return make_error(proof_count.error());
  if (proof_count.value() > 10'000) return make_error("new-view: too many proofs");
  for (std::uint64_t i = 0; i < proof_count.value(); ++i) {
    auto raw = r.bytes();
    if (!raw) return make_error(raw.error());
    auto vc = ViewChangeMsg::decode(BytesView(raw.value().data(), raw.value().size()));
    if (!vc) return make_error(vc.error());
    m.proofs.push_back(std::move(vc.value()));
  }

  auto pp_count = r.varint();
  if (!pp_count) return make_error(pp_count.error());
  if (pp_count.value() > 10'000) return make_error("new-view: too many pre-prepares");
  for (std::uint64_t i = 0; i < pp_count.value(); ++i) {
    auto raw = r.bytes();
    if (!raw) return make_error(raw.error());
    auto pp = PrePrepare::decode(BytesView(raw.value().data(), raw.value().size()));
    if (!pp) return make_error(pp.error());
    m.preprepares.push_back(std::move(pp.value()));
  }

  auto primary = r.u64();
  if (!primary) return make_error(primary.error());
  m.primary = NodeId{primary.value()};
  if (!r.exhausted()) return make_error("new-view: trailing bytes");
  return m;
}

// --- chain sync -------------------------------------------------------------------

Bytes SyncRequest::encode() const {
  serde::Writer w;
  w.u64(from_height);
  w.u64(requester.value);
  return w.take();
}

Result<SyncRequest> SyncRequest::decode(BytesView data) {
  serde::Reader r(data);
  SyncRequest m;
  auto from = r.u64();
  if (!from) return make_error(from.error());
  m.from_height = from.value();
  auto requester = r.u64();
  if (!requester) return make_error(requester.error());
  m.requester = NodeId{requester.value()};
  if (!r.exhausted()) return make_error("sync-request: trailing bytes");
  return m;
}

Bytes SyncResponse::encode() const {
  serde::Writer w;
  w.varint(blocks.size());
  for (const ledger::Block& block : blocks) {
    const Bytes encoded = block.encode();
    w.bytes(BytesView(encoded.data(), encoded.size()));
  }
  w.u64(responder.value);
  return w.take();
}

Result<SyncResponse> SyncResponse::decode(BytesView data) {
  serde::Reader r(data);
  SyncResponse m;
  auto count = r.varint();
  if (!count) return make_error(count.error());
  if (count.value() > 100'000) return make_error("sync-response: too many blocks");
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto raw = r.bytes();
    if (!raw) return make_error(raw.error());
    auto block = ledger::Block::decode(BytesView(raw.value().data(), raw.value().size()));
    if (!block) return make_error(block.error());
    m.blocks.push_back(std::move(block.value()));
  }
  auto responder = r.u64();
  if (!responder) return make_error(responder.error());
  m.responder = NodeId{responder.value()};
  if (!r.exhausted()) return make_error("sync-response: trailing bytes");
  return m;
}

// --- G-PBFT bodies ---------------------------------------------------------------

Bytes GeoReportMsg::encode() const {
  serde::Writer w;
  w.u64(device.value);
  w.f64(latitude);
  w.f64(longitude);
  w.i64(reported_at.ns);
  return w.take();
}

Result<GeoReportMsg> GeoReportMsg::decode(BytesView data) {
  serde::Reader r(data);
  GeoReportMsg m;
  auto device = r.u64();
  if (!device) return make_error(device.error());
  m.device = NodeId{device.value()};
  auto lat = r.f64();
  if (!lat) return make_error(lat.error());
  m.latitude = lat.value();
  auto lng = r.f64();
  if (!lng) return make_error(lng.error());
  m.longitude = lng.value();
  auto ts = r.i64();
  if (!ts) return make_error(ts.error());
  m.reported_at = TimePoint{ts.value()};
  if (!r.exhausted()) return make_error("geo-report: trailing bytes");
  return m;
}

Bytes EraHaltMsg::encode() const {
  serde::Writer w;
  w.u64(closing_era);
  w.u64(sender.value);
  return w.take();
}

Result<EraHaltMsg> EraHaltMsg::decode(BytesView data) {
  serde::Reader r(data);
  EraHaltMsg m;
  auto era = r.u64();
  if (!era) return make_error(era.error());
  m.closing_era = era.value();
  auto sender = r.u64();
  if (!sender) return make_error(sender.error());
  m.sender = NodeId{sender.value()};
  if (!r.exhausted()) return make_error("era-halt: trailing bytes");
  return m;
}

Bytes EraLaunchMsg::encode() const {
  serde::Writer w;
  w.u64(config.era);
  w.varint(config.endorsers.size());
  for (NodeId id : config.endorsers) w.u64(id.value);
  w.varint(config.cells.size());
  for (const std::string& cell : config.cells) w.string(cell);
  w.u64(config_height);
  w.u64(sender.value);
  w.varint(blocks.size());
  for (const ledger::Block& block : blocks) {
    const Bytes encoded = block.encode();
    w.bytes(BytesView(encoded.data(), encoded.size()));
  }
  return w.take();
}

Result<EraLaunchMsg> EraLaunchMsg::decode(BytesView data) {
  serde::Reader r(data);
  EraLaunchMsg m;
  auto era = r.u64();
  if (!era) return make_error(era.error());
  m.config.era = era.value();
  auto count = r.varint();
  if (!count) return make_error(count.error());
  if (count.value() > 100'000) return make_error("era-launch: roster too large");
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto id = r.u64();
    if (!id) return make_error(id.error());
    m.config.endorsers.push_back(NodeId{id.value()});
  }
  auto cell_count = r.varint();
  if (!cell_count) return make_error(cell_count.error());
  if (cell_count.value() > 100'000) return make_error("era-launch: too many cells");
  for (std::uint64_t i = 0; i < cell_count.value(); ++i) {
    auto cell = r.string(64);
    if (!cell) return make_error(cell.error());
    m.config.cells.push_back(std::move(cell.value()));
  }
  auto height = r.u64();
  if (!height) return make_error(height.error());
  m.config_height = height.value();
  auto sender = r.u64();
  if (!sender) return make_error(sender.error());
  m.sender = NodeId{sender.value()};
  auto block_count = r.varint();
  if (!block_count) return make_error(block_count.error());
  if (block_count.value() > 1'000'000) return make_error("era-launch: too many blocks");
  for (std::uint64_t i = 0; i < block_count.value(); ++i) {
    auto raw = r.bytes();
    if (!raw) return make_error(raw.error());
    auto block = ledger::Block::decode(BytesView(raw.value().data(), raw.value().size()));
    if (!block) return make_error(block.error());
    m.blocks.push_back(std::move(block.value()));
  }
  if (!r.exhausted()) return make_error("era-launch: trailing bytes");
  return m;
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
    if (!crypto::constant_time_equal(BytesView(tag.value().data(), tag.value().size()),
                                     BytesView(expected.data(), expected.size()))) {
      return make_error("seal: HMAC verification failed (body or type forged)");
    }
  }
  return body;
}

Result<Bytes> open(const crypto::KeyRegistry& keys, NodeId sender, NodeId receiver,
                   net::MessageType type, BytesView sealed, bool compute_macs) {
  auto body = open_view(keys, sender, receiver, type, sealed, compute_macs);
  if (!body) return make_error(body.error());
  return Bytes(body.value().begin(), body.value().end());
}

}  // namespace gpbft::pbft
