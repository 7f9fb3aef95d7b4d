// Crypto-Spatial Coordinates (CSC).
//
// Per §III-B3, a CSC associates an IoT device's location with its blockchain
// address: CSC = f(geohash, contract address). It is hierarchical — a prefix
// names a containing area — and resolves to about one square meter. We
// realise the CSC as:
//
//   csc_string = geohash "-" base32( sha256( len || geohash || address )[0..10] )
//
// (each of the ten digest bytes gives one base-32 digit from its low 5
// bits), prefixed by the geohash itself so the hierarchical-prefix property
// of geohash carries over to CSC comparisons, while the hashed suffix binds
// the location claim to one chain identity (two devices at the same place
// still have distinct CSCs; the *cell* part is what the Sybil rule
// compares).
//
// A Csc holds both parts as integers: the cell as a GeoCell and the suffix
// as its ten 5-bit digits, so making, copying and comparing one allocates
// nothing. Only str() builds the text, for ElectionTable::render. The one
// SHA-256 is paid in the constructor; a caller that already holds the CSC of
// the same cell and address (Endorser::record_geo, for a device that stayed
// put) copies it instead.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "crypto/address.hpp"
#include "geo/geohash.hpp"

namespace gpbft::geo {

class Csc {
 public:
  Csc() = default;
  Csc(GeoCell cell, const crypto::Address& address);
  Csc(const GeoPoint& point, const crypto::Address& address, int precision = kCscPrecision)
      : Csc(GeoCell::of(point, precision), address) {}

  /// Full CSC string: "<geohash>-<identity suffix>".
  [[nodiscard]] std::string str() const;

  /// The location cell alone (geohash prefix).
  [[nodiscard]] GeoCell cell() const { return cell_; }

  /// True when two CSCs claim the same geographic cell — the comparison the
  /// Sybil detector and Algorithm 1 rely on.
  [[nodiscard]] bool same_cell(const Csc& other) const { return cell_ == other.cell_; }

  friend auto operator<=>(const Csc&, const Csc&) = default;

 private:
  GeoCell cell_;
  std::uint64_t suffix_{0};  // ten base-32 digits, 5 bits each, first digit highest
};

}  // namespace gpbft::geo
