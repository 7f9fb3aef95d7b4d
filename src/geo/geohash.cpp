#include "geo/geohash.hpp"

#include <algorithm>
#include <cmath>

namespace gpbft::geo {

namespace {
int base32_value(char c) {
  const std::size_t i = kGeohashAlphabet.find(c);
  return i == std::string_view::npos ? -1 : static_cast<int>(i);
}

/// Halves the longitude and latitude ranges in turn, longitude first, and
/// hands each of the `bits` choices to `emit` (true: the upper half). Every
/// midpoint is a short dyadic fraction, so each comparison is exact.
template <typename Emit>
void bisect(const GeoPoint& point, int bits, Emit&& emit) {
  double lat_min = -90.0, lat_max = 90.0;
  double lng_min = -180.0, lng_max = 180.0;
  for (int bit = 0; bit < bits; ++bit) {
    if (bit % 2 == 0) {
      const double mid = (lng_min + lng_max) / 2;
      const bool upper = point.longitude >= mid;
      (upper ? lng_min : lng_max) = mid;
      emit(upper);
    } else {
      const double mid = (lat_min + lat_max) / 2;
      const bool upper = point.latitude >= mid;
      (upper ? lat_min : lat_max) = mid;
      emit(upper);
    }
  }
}
}  // namespace

GeoCell GeoCell::of(const GeoPoint& point, int precision) {
  precision = std::clamp(precision, 1, kMaxPrecision);
  std::uint64_t bits = 0;
  bisect(point, 5 * precision, [&](bool upper) { bits = (bits << 1) | (upper ? 1 : 0); });
  return GeoCell((bits << (64 - 5 * precision)) | static_cast<std::uint64_t>(precision));
}

std::optional<GeoCell> GeoCell::parse(std::string_view hash) {
  if (hash.size() > static_cast<std::size_t>(kMaxPrecision)) return std::nullopt;
  std::uint64_t word = hash.size();
  for (std::size_t i = 0; i < hash.size(); ++i) {
    const int value = base32_value(hash[i]);
    if (value < 0) return std::nullopt;
    word |= static_cast<std::uint64_t>(value) << (59 - 5 * i);
  }
  return GeoCell(word);
}

std::array<char, GeoCell::kMaxPrecision> GeoCell::digits() const {
  std::array<char, kMaxPrecision> out{};
  for (int i = 0; i < precision(); ++i) {
    out[static_cast<std::size_t>(i)] = kGeohashAlphabet[(word_ >> (59 - 5 * i)) & 0x1f];
  }
  return out;
}

std::string GeoCell::str() const {
  const auto chars = digits();
  return std::string(chars.data(), static_cast<std::size_t>(precision()));
}

std::string geohash_encode(const GeoPoint& point, int precision) {
  precision = std::clamp(precision, 1, 22);
  std::string hash;
  hash.reserve(static_cast<std::size_t>(precision));
  int current = 0;
  int count = 0;
  bisect(point, 5 * precision, [&](bool upper) {
    current = (current << 1) | (upper ? 1 : 0);
    if (++count == 5) {
      hash.push_back(kGeohashAlphabet[static_cast<std::size_t>(current)]);
      current = 0;
      count = 0;
    }
  });
  return hash;
}

std::optional<GeoBox> geohash_decode(const std::string& hash) {
  if (hash.empty()) return std::nullopt;

  GeoBox box{-90.0, 90.0, -180.0, 180.0};
  bool even_bit = true;
  for (char c : hash) {
    const int value = base32_value(c);
    if (value < 0) return std::nullopt;
    for (int shift = 4; shift >= 0; --shift) {
      const int bit = (value >> shift) & 1;
      if (even_bit) {
        const double mid = (box.lng_min + box.lng_max) / 2;
        if (bit) {
          box.lng_min = mid;
        } else {
          box.lng_max = mid;
        }
      } else {
        const double mid = (box.lat_min + box.lat_max) / 2;
        if (bit) {
          box.lat_min = mid;
        } else {
          box.lat_max = mid;
        }
      }
      even_bit = !even_bit;
    }
  }
  return box;
}

std::optional<GeoPoint> geohash_decode_center(const std::string& hash) {
  const auto box = geohash_decode(hash);
  if (!box) return std::nullopt;
  return box->center();
}

std::optional<std::string> geohash_adjacent(const std::string& hash, Direction direction) {
  const auto box = geohash_decode(hash);
  if (!box) return std::nullopt;

  const double lat_span = box->lat_max - box->lat_min;
  const double lng_span = box->lng_max - box->lng_min;
  GeoPoint center = box->center();

  int lat_step = 0, lng_step = 0;
  switch (direction) {
    case Direction::North: lat_step = 1; break;
    case Direction::NorthEast: lat_step = 1; lng_step = 1; break;
    case Direction::East: lng_step = 1; break;
    case Direction::SouthEast: lat_step = -1; lng_step = 1; break;
    case Direction::South: lat_step = -1; break;
    case Direction::SouthWest: lat_step = -1; lng_step = -1; break;
    case Direction::West: lng_step = -1; break;
    case Direction::NorthWest: lat_step = 1; lng_step = -1; break;
  }

  center.latitude += lat_step * lat_span;
  center.longitude += lng_step * lng_span;
  // Stepping past a pole has no neighbour; longitude wraps.
  if (center.latitude > 90.0 || center.latitude < -90.0) return std::nullopt;
  if (center.longitude >= 180.0) center.longitude -= 360.0;
  if (center.longitude < -180.0) center.longitude += 360.0;

  return geohash_encode(center, static_cast<int>(hash.size()));
}

std::optional<std::vector<std::string>> geohash_neighbors(const std::string& hash) {
  if (!geohash_decode(hash)) return std::nullopt;
  std::vector<std::string> out;
  for (const Direction d :
       {Direction::North, Direction::NorthEast, Direction::East, Direction::SouthEast,
        Direction::South, Direction::SouthWest, Direction::West, Direction::NorthWest}) {
    if (auto neighbor = geohash_adjacent(hash, d)) out.push_back(std::move(*neighbor));
  }
  return out;
}

CellSize geohash_cell_size(int precision) {
  precision = std::clamp(precision, 1, 22);
  const int total_bits = precision * 5;
  const int lng_bits = (total_bits + 1) / 2;
  const int lat_bits = total_bits / 2;
  // 1 degree latitude ~ 111 320 m; longitude the same at the equator.
  const double lat_deg = 180.0 / std::pow(2.0, lat_bits);
  const double lng_deg = 360.0 / std::pow(2.0, lng_bits);
  return CellSize{lat_deg * 111'320.0, lng_deg * 111'320.0};
}

}  // namespace gpbft::geo
