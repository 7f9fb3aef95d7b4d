// The golden manifest, tests/goldens.sha256: every digest that pins a whole
// seeded run (a chain tip, a metrics or trace export, the bytes on every
// disk, a CLI run's output) is one line of it in sha256sum's format,
// `<64 lowercase hex>  <name>`. The tests and bench_scale look their
// digests up by name here; scripts/ci.sh hashes its CLI outputs with
// sha256sum and diffs them against the same lines. EXPERIMENTS.md
// ("Goldens") says what each name prefix covers and when a digest may be
// re-pinned.
#pragma once

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gpbft::goldens {

class Manifest {
 public:
  /// Parses manifest text. Throws std::runtime_error quoting the line on a
  /// malformed line or a name that appears twice.
  static Manifest parse(std::string_view text) {
    Manifest manifest;
    std::size_t line_no = 0;
    while (!text.empty()) {
      const std::size_t end = std::min(text.find('\n'), text.size());
      const std::string_view line = text.substr(0, end);
      text.remove_prefix(std::min(end + 1, text.size()));
      ++line_no;
      const std::string where = "goldens: line " + std::to_string(line_no) + ": ";
      const bool well_formed =
          line.size() > 66 && line.substr(64, 2) == "  " &&
          std::all_of(line.begin(), line.begin() + 64,
                      [](char c) { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'); }) &&
          std::none_of(line.begin() + 66, line.end(),
                       [](char c) { return c == ' ' || c == '\t' || c == '\r'; });
      if (!well_formed) {
        throw std::runtime_error(where + "not `<64 lowercase hex>  <name>`: \"" +
                                 std::string(line) + "\"");
      }
      const std::string name(line.substr(66));
      if (!manifest.digests_.emplace(name, std::string(line.substr(0, 64))).second) {
        throw std::runtime_error(where + "duplicate name \"" + name + "\"");
      }
    }
    return manifest;
  }

  /// The digest pinned under `name`; throws std::runtime_error naming it
  /// when there is no such entry.
  [[nodiscard]] const std::string& at(std::string_view name) const {
    const auto it = digests_.find(name);
    if (it == digests_.end()) {
      throw std::runtime_error("goldens: no entry named \"" + std::string(name) + "\"");
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string, std::less<>> digests_;
};

/// The checked-in manifest, read on first use (never during static
/// initialisation, so listing the tests does not need the file).
inline const Manifest& checked_in() {
  static const Manifest manifest = [] {
    const std::string path = std::string(GPBFT_SOURCE_DIR) + "/tests/goldens.sha256";
    std::ifstream file(path);
    if (!file) throw std::runtime_error("goldens: cannot read " + path);
    std::ostringstream text;
    text << file.rdbuf();
    return Manifest::parse(text.str());
  }();
  return manifest;
}

/// The checked-in digest pinned under `name`.
inline const std::string& pinned(std::string_view name) { return checked_in().at(name); }

}  // namespace gpbft::goldens
