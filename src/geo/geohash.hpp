// Geohash encoding (base-32 interleaved latitude/longitude).
//
// Crypto-Spatial Coordinates (§III-B3) are built on geohash: a shorter hash
// names a larger cell, a longer one a more specific location; 12 characters
// give sub-meter resolution, matching the paper's "about one square meter".
//
// GeoCell is a cell of up to 12 digits as one 64-bit value, for the code that
// handles a cell per report (the Sybil filter, CSCs, the election table).
// The string functions below are for the text that leaves the process:
// configuration blocks, the deployment area, rendered tables and logs.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geo/geopoint.hpp"

namespace gpbft::geo {

/// Geohash cell bounding box returned by decode.
struct GeoBox {
  double lat_min{0}, lat_max{0};
  double lng_min{0}, lng_max{0};

  [[nodiscard]] GeoPoint center() const {
    return GeoPoint{(lat_min + lat_max) / 2, (lng_min + lng_max) / 2};
  }
  [[nodiscard]] bool contains(const GeoPoint& p) const {
    return p.latitude >= lat_min && p.latitude <= lat_max && p.longitude >= lng_min &&
           p.longitude <= lng_max;
  }
};

/// Sub-meter precision used for CSCs.
inline constexpr int kCscPrecision = 12;

/// The 32 geohash digits; a digit's index is its 5-bit value.
inline constexpr std::string_view kGeohashAlphabet = "0123456789bcdefghjkmnpqrstuvwxyz";

/// A geohash cell as a value. Its 5 × precision interleaved bits (longitude
/// first, as geohash_encode bisects) fill one 64-bit word from the top, the
/// precision (0 to 12 digits) sits in the word's low 4 bits, and every other
/// bit is zero. So two cells are equal exactly when their words are, a word
/// keys a table, and a prefix test is one masked compare. The default cell
/// has precision 0: the whole world, which every cell is within.
class GeoCell {
 public:
  static constexpr int kMaxPrecision = 12;

  constexpr GeoCell() = default;

  /// The cell of `point` at `precision` digits, clamped to [1, 12]. Its
  /// str() is geohash_encode(point, precision).
  [[nodiscard]] static GeoCell of(const GeoPoint& point, int precision = kCscPrecision);

  /// The cell `hash` names: 0 to 12 geohash digits. Nullopt on 13 or more,
  /// or on any character outside the alphabet (upper case included).
  [[nodiscard]] static std::optional<GeoCell> parse(std::string_view hash);

  [[nodiscard]] int precision() const { return static_cast<int>(word_ & 0xf); }
  /// The whole value, bits and precision: distinct cells have distinct words.
  [[nodiscard]] std::uint64_t word() const { return word_; }

  /// True when `area` is a prefix of this cell: a shorter geohash names a
  /// larger area, and the empty one the whole world.
  [[nodiscard]] bool within(GeoCell area) const {
    const std::uint64_t prefix = ~(~std::uint64_t{0} >> (5 * area.precision()));
    return area.precision() <= precision() && ((word_ ^ area.word_) & prefix) == 0;
  }

  /// The digits, in the first precision() characters; no allocation.
  [[nodiscard]] std::array<char, kMaxPrecision> digits() const;
  [[nodiscard]] std::string str() const;

  friend constexpr auto operator<=>(const GeoCell&, const GeoCell&) = default;

 private:
  explicit constexpr GeoCell(std::uint64_t word) : word_(word) {}

  std::uint64_t word_{0};
};

/// Encodes a point to `precision` base-32 characters (1..22).
[[nodiscard]] std::string geohash_encode(const GeoPoint& point, int precision = kCscPrecision);

/// Decodes a geohash to its cell; nullopt on invalid characters/empty input.
[[nodiscard]] std::optional<GeoBox> geohash_decode(const std::string& hash);

/// Decoded cell center as a point; nullopt on invalid input.
[[nodiscard]] std::optional<GeoPoint> geohash_decode_center(const std::string& hash);

/// Cell edge sizes (meters, approximate at the equator) for a precision.
struct CellSize {
  double lat_meters{0};
  double lng_meters{0};
};
[[nodiscard]] CellSize geohash_cell_size(int precision);

/// Compass directions for neighbour lookups.
enum class Direction { North, NorthEast, East, SouthEast, South, SouthWest, West, NorthWest };

/// The adjacent cell in `direction` at the same precision; nullopt for
/// invalid input or when stepping past the poles. Longitude wraps at the
/// antimeridian.
[[nodiscard]] std::optional<std::string> geohash_adjacent(const std::string& hash,
                                                          Direction direction);

/// All (up to 8) neighbours of a cell, clockwise from north. Cells at the
/// pole edges have fewer. Nullopt on invalid input.
[[nodiscard]] std::optional<std::vector<std::string>> geohash_neighbors(const std::string& hash);

}  // namespace gpbft::geo
