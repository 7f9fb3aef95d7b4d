// Deterministic per-node metrics registry.
//
// Named counters, gauges and fixed-bucket histograms, keyed by (name, node).
// Node 0 is the deployment-global series; protocol nodes use their NodeId.
// Everything is stored in ordered maps so snapshots are byte-identical for
// identical runs — the registry draws no randomness and never reads the wall
// clock. Handles returned by counter()/gauge()/histogram() are stable for
// the registry's lifetime (map storage), so hot paths resolve a metric once
// and bump the reference afterwards.
//
// Snapshots export as line-oriented JSONL (one metric per line, sorted by
// name then node) and as a human-readable text summary; doubles render with
// %.17g so a parsed value round-trips exactly (the repo-wide convention).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace gpbft::obs {

struct Counter {
  std::uint64_t value{0};
  void add(std::uint64_t delta = 1) { value += delta; }
};

struct Gauge {
  double value{0.0};
  void set(double v) { value = v; }
};

/// Fixed upper-bound buckets (ascending) plus an implicit +inf bucket.
/// counts.size() == bounds.size() + 1.
struct Histogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  double sum{0.0};
  std::uint64_t count{0};

  void observe(double v);
  [[nodiscard]] double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  /// Merges another histogram with identical bounds (aggregation across
  /// nodes); mismatched bounds merge only sum/count.
  void merge(const Histogram& other);
};

/// Default latency buckets (seconds): 1ms .. ~500s, roughly x2 per step.
[[nodiscard]] const std::vector<double>& default_latency_bounds_seconds();

/// Power-of-two count buckets (1 .. 1024): batch sizes, queue depths and
/// other small-integer distributions.
[[nodiscard]] const std::vector<double>& default_count_bounds();

/// Octile buckets over [0, 1]: occupancy ratios and other fractions.
[[nodiscard]] const std::vector<double>& default_fraction_bounds();

class Registry {
 public:
  /// Node 0 addresses the deployment-global series.
  Counter& counter(std::string_view name, NodeId node = NodeId{0});
  Gauge& gauge(std::string_view name, NodeId node = NodeId{0});
  /// `bounds` is consulted only on first creation of (name, node).
  Histogram& histogram(std::string_view name, NodeId node = NodeId{0},
                       const std::vector<double>& bounds = default_latency_bounds_seconds());

  /// Sum of one counter family over every node (including node 0).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;
  /// Merge of one histogram family over every node.
  [[nodiscard]] Histogram histogram_total(std::string_view name) const;
  /// Read-only lookup; nullptr when the series does not exist.
  [[nodiscard]] const Counter* find_counter(std::string_view name, NodeId node = NodeId{0}) const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// One JSON object per line, sorted by (name, node); deterministic bytes.
  [[nodiscard]] std::string to_jsonl() const;
  /// Human-readable rollup: per-family totals, histogram means.
  [[nodiscard]] std::string summary() const;

  void clear();

 private:
  using Key = std::pair<std::string, std::uint64_t>;  // (name, node id)
  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace gpbft::obs
