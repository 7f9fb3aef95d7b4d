// Transactions (§III-B2 of the paper).
//
// Two kinds exist:
//  * Normal transactions change application state (sensor readings, payment
//    records, RFID signal strength, ...). Clients and endorsers propose them.
//  * Configuration transactions modify chain configuration — adding new or
//    removing obsolete endorsers at an era switch. Only current endorsers
//    propose them, and they carry the next era's roster.
//
// Both kinds carry the proposer's geographic information <longitude,
// latitude, timestamp> at the end of the transaction body, exactly as the
// paper specifies; those trailers are one source of reports for the
// election table.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "crypto/address.hpp"
#include "crypto/sha256.hpp"
#include "geo/geopoint.hpp"
#include "serde/codec.hpp"

namespace gpbft::ledger {

enum class TxKind : std::uint8_t { Normal = 0, Config = 1 };

/// Era-switch payload of a configuration transaction: the full roster of the
/// next era (keeping the roster explicit makes era switches self-contained
/// on chain, so a node can recover membership from blocks alone).
///
/// `cells` records each endorser's *enrolled* geographic cell (geohash) —
/// the location it was elected at. The genesis block carries the core
/// devices' locations this way (§III-C), and every later configuration
/// transaction carries the cells of its roster, so re-authentication can
/// demote an endorser whose reports no longer match its enrolled location
/// even if the move happened before the current lookback window.
/// One device's reputation state as persisted inside a configuration
/// transaction (milli fixed-point score plus the quarantine latch). The
/// full ledger — not just the seated roster — rides along, so a restarted
/// endorser rebuilds the same scores, including quarantined attackers.
struct ReputationScore {
  NodeId device;
  std::int64_t score{0};
  bool quarantined{false};

  static auto fields(auto& m) { return serde::fields(m.device, m.score, m.quarantined); }

  friend bool operator==(const ReputationScore&, const ReputationScore&) = default;
};

struct EraConfig {
  EraId era{0};
  std::vector<NodeId> endorsers;
  std::vector<std::string> cells;  // parallel to `endorsers`; may be empty
  /// Reputation snapshot, ascending by device id. Empty when reputation is
  /// disabled — and then not encoded at all (Transaction's tail), keeping
  /// the wire format (and every golden hash) identical to the
  /// pre-reputation one.
  std::vector<ReputationScore> scores;

  friend bool operator==(const EraConfig&, const EraConfig&) = default;
};

struct Transaction {
  TxKind kind{TxKind::Normal};
  NodeId sender;
  crypto::Address sender_address;
  RequestId request_id{0};
  Bytes payload;          // application data (normal) or empty (config)
  Amount fee{0};
  EraConfig era_config;   // meaningful only when kind == Config

  // Geographic information trailer (§III-B2): appended to the body.
  geo::GeoReport geo;

  /// The wire layout (serde/codec.hpp). The geographic trailer closes the
  /// body, longitude first (§III-B2); the reputation scores follow it only
  /// when there are any.
  static auto fields(auto& m) {
    return serde::fields(serde::byte_enum<TxKind::Config>(m.kind), m.sender, m.sender_address,
                         m.request_id, m.payload, m.fee, m.era_config.era,
                         serde::list<100'000>(m.era_config.endorsers),
                         serde::list<100'000, serde::Text<64>>(m.era_config.cells),
                         m.geo.point.longitude, m.geo.point.latitude, m.geo.timestamp,
                         serde::tail<100'000>(m.era_config.scores));
  }
  [[nodiscard]] Bytes encode() const { return serde::encode(*this); }
  [[nodiscard]] static Result<Transaction> decode(BytesView data) {
    return serde::decode<Transaction>(data);
  }

  /// SHA-256 over the encoding; identifies the transaction everywhere
  /// (mempool dedup, PBFT request digests, Merkle leaves). Every call
  /// re-encodes and re-hashes, so a replica computes it only where a
  /// transaction enters: once per REQUEST (Replica::accept_request) and
  /// once per block body (CheckedBlock::check). From there the digest is
  /// carried, beside its mempool entry and in the CheckedBlock's
  /// digests(), through execution.
  [[nodiscard]] crypto::Hash256 digest() const;

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// Convenience builders used by workloads, tests and examples.
[[nodiscard]] Transaction make_normal_tx(NodeId sender, RequestId request_id, Bytes payload,
                                         Amount fee, const geo::GeoReport& geo);
[[nodiscard]] Transaction make_config_tx(NodeId sender, RequestId request_id, EraConfig config,
                                         const geo::GeoReport& geo);

/// A pure location-report transaction: normal kind, empty payload, zero fee,
/// only the geographic trailer matters. Used when the deployment records geo
/// reports on chain (the paper's G(v, t) is chain-based, §III-D), making the
/// election table reconstructible from blocks alone.
[[nodiscard]] Transaction make_geo_report_tx(NodeId sender, RequestId request_id,
                                             const geo::GeoReport& geo);

/// True when `tx` is a location-report transaction.
[[nodiscard]] bool is_geo_report_tx(const Transaction& tx);

}  // namespace gpbft::ledger
