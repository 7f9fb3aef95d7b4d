#include "ledger/transaction.hpp"

#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::ledger {

namespace {

std::size_t length_prefixed_size(std::size_t n) { return serde::varint_size(n) + n; }

/// Bytes encode() writes for `tx`, field by field in its order.
std::size_t encoded_size(const Transaction& tx) {
  const EraConfig& config = tx.era_config;
  std::size_t n = 1 + 8 + tx.sender_address.bytes.size() + 8 +
                  length_prefixed_size(tx.payload.size()) + 8 + 8;
  n += serde::varint_size(config.endorsers.size()) + 8 * config.endorsers.size();
  n += serde::varint_size(config.cells.size());
  for (const std::string& cell : config.cells) n += length_prefixed_size(cell.size());
  n += 8 + 8 + 8;
  if (!config.scores.empty()) {
    n += serde::varint_size(config.scores.size()) + (8 + 8 + 1) * config.scores.size();
  }
  return n;
}

}  // namespace

Bytes Transaction::encode() const {
  serde::Writer w;
  w.reserve(encoded_size(*this));
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(sender.value);
  w.raw(sender_address.view());
  w.u64(request_id);
  w.bytes(BytesView(payload.data(), payload.size()));
  w.u64(fee);
  w.u64(era_config.era);
  w.varint(era_config.endorsers.size());
  for (NodeId id : era_config.endorsers) w.u64(id.value);
  w.varint(era_config.cells.size());
  for (const std::string& cell : era_config.cells) w.string(cell);
  // Geographic information trailer, at the end of the body (§III-B2).
  w.f64(geo.point.longitude);
  w.f64(geo.point.latitude);
  w.i64(geo.timestamp.ns);
  // Optional reputation tail: only written when non-empty, so runs with
  // reputation disabled encode byte-identically to the legacy format.
  if (!era_config.scores.empty()) {
    w.varint(era_config.scores.size());
    for (const ReputationScore& s : era_config.scores) {
      w.u64(s.device.value);
      w.i64(s.score);
      w.u8(s.quarantined ? 1 : 0);
    }
  }
  return w.take();
}

Result<Transaction> Transaction::decode(BytesView data) {
  serde::Reader r(data);
  Transaction tx;

  auto kind = r.u8();
  if (!kind) return make_error(kind.error());
  if (kind.value() > 1) return make_error("transaction: unknown kind");
  tx.kind = static_cast<TxKind>(kind.value());

  auto sender = r.u64();
  if (!sender) return make_error(sender.error());
  tx.sender = NodeId{sender.value()};

  auto addr = r.raw(20);
  if (!addr) return make_error(addr.error());
  std::copy(addr.value().begin(), addr.value().end(), tx.sender_address.bytes.begin());

  auto request_id = r.u64();
  if (!request_id) return make_error(request_id.error());
  tx.request_id = request_id.value();

  auto payload = r.bytes();
  if (!payload) return make_error(payload.error());
  tx.payload = std::move(payload.value());

  auto fee = r.u64();
  if (!fee) return make_error(fee.error());
  tx.fee = fee.value();

  auto era = r.u64();
  if (!era) return make_error(era.error());
  tx.era_config.era = era.value();

  auto count = r.varint();
  if (!count) return make_error(count.error());
  if (count.value() > 100'000) return make_error("transaction: roster too large");
  if (count.value() > r.remaining()) return make_error("transaction: roster exceeds payload");
  tx.era_config.endorsers.reserve(static_cast<std::size_t>(count.value()));
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto id = r.u64();
    if (!id) return make_error(id.error());
    tx.era_config.endorsers.push_back(NodeId{id.value()});
  }

  auto cell_count = r.varint();
  if (!cell_count) return make_error(cell_count.error());
  if (cell_count.value() > 100'000) return make_error("transaction: too many cells");
  for (std::uint64_t i = 0; i < cell_count.value(); ++i) {
    auto cell = r.string(64);
    if (!cell) return make_error(cell.error());
    tx.era_config.cells.push_back(std::move(cell.value()));
  }

  auto lng = r.f64();
  if (!lng) return make_error(lng.error());
  auto lat = r.f64();
  if (!lat) return make_error(lat.error());
  auto ts = r.i64();
  if (!ts) return make_error(ts.error());
  tx.geo.point = geo::GeoPoint{lat.value(), lng.value()};
  tx.geo.timestamp = TimePoint{ts.value()};

  // The reputation tail is present only when bytes remain past the trailer.
  if (!r.exhausted()) {
    auto score_count = r.varint();
    if (!score_count) return make_error(score_count.error());
    if (score_count.value() == 0) return make_error("transaction: empty reputation tail");
    if (score_count.value() > 100'000) return make_error("transaction: too many scores");
    if (score_count.value() > r.remaining()) {
      return make_error("transaction: score count exceeds payload");
    }
    tx.era_config.scores.reserve(static_cast<std::size_t>(score_count.value()));
    for (std::uint64_t i = 0; i < score_count.value(); ++i) {
      auto device = r.u64();
      if (!device) return make_error(device.error());
      auto score = r.i64();
      if (!score) return make_error(score.error());
      auto quarantined = r.u8();
      if (!quarantined) return make_error(quarantined.error());
      if (quarantined.value() > 1) return make_error("transaction: bad quarantine flag");
      tx.era_config.scores.push_back(
          ReputationScore{NodeId{device.value()}, score.value(), quarantined.value() == 1});
    }
  }

  if (!r.exhausted()) return make_error("transaction: trailing bytes");
  return tx;
}

crypto::Hash256 Transaction::digest() const {
  const Bytes encoded = encode();
  return crypto::sha256(BytesView(encoded.data(), encoded.size()));
}

Transaction make_normal_tx(NodeId sender, RequestId request_id, Bytes payload, Amount fee,
                           const geo::GeoReport& geo) {
  Transaction tx;
  tx.kind = TxKind::Normal;
  tx.sender = sender;
  tx.sender_address = crypto::address_for_node(sender);
  tx.request_id = request_id;
  tx.payload = std::move(payload);
  tx.fee = fee;
  tx.geo = geo;
  return tx;
}

Transaction make_geo_report_tx(NodeId sender, RequestId request_id, const geo::GeoReport& geo) {
  return make_normal_tx(sender, request_id, Bytes{}, 0, geo);
}

bool is_geo_report_tx(const Transaction& tx) {
  return tx.kind == TxKind::Normal && tx.payload.empty() && tx.fee == 0;
}

Transaction make_config_tx(NodeId sender, RequestId request_id, EraConfig config,
                           const geo::GeoReport& geo) {
  Transaction tx;
  tx.kind = TxKind::Config;
  tx.sender = sender;
  tx.sender_address = crypto::address_for_node(sender);
  tx.request_id = request_id;
  tx.era_config = std::move(config);
  tx.geo = geo;
  return tx;
}

}  // namespace gpbft::ledger
