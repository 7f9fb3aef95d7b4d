#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace gpbft::obs {

namespace {

/// %.17g renders a double so that parsing the text recovers the exact bits
/// (matches bench_util / scenario printing).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void Histogram::observe(double v) {
  if (counts.size() != bounds.size() + 1) counts.assign(bounds.size() + 1, 0);
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), v);
  ++counts[static_cast<std::size_t>(it - bounds.begin())];
  sum += v;
  ++count;
}

void Histogram::merge(const Histogram& other) {
  sum += other.sum;
  count += other.count;
  if (bounds == other.bounds && counts.size() == other.counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  }
}

const std::vector<double>& default_latency_bounds_seconds() {
  static const std::vector<double> kBounds = {0.001, 0.002, 0.005, 0.01, 0.02,  0.05, 0.1,
                                              0.2,   0.5,   1.0,   2.0,  5.0,   10.0, 20.0,
                                              50.0,  100.0, 200.0, 500.0};
  return kBounds;
}

const std::vector<double>& default_count_bounds() {
  static const std::vector<double> kBounds = {1.0,  2.0,   4.0,   8.0,   16.0,  32.0,
                                              64.0, 128.0, 256.0, 512.0, 1024.0};
  return kBounds;
}

const std::vector<double>& default_fraction_bounds() {
  static const std::vector<double> kBounds = {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};
  return kBounds;
}

Counter& Registry::counter(std::string_view name, NodeId node) {
  return counters_[Key{std::string(name), node.value}];
}

Gauge& Registry::gauge(std::string_view name, NodeId node) {
  return gauges_[Key{std::string(name), node.value}];
}

Histogram& Registry::histogram(std::string_view name, NodeId node,
                               const std::vector<double>& bounds) {
  auto [it, inserted] = histograms_.try_emplace(Key{std::string(name), node.value});
  if (inserted) {
    it->second.bounds = bounds;
    it->second.counts.assign(bounds.size() + 1, 0);
  }
  return it->second;
}

std::uint64_t Registry::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(Key{std::string(name), 0}); it != counters_.end(); ++it) {
    if (it->first.first != name) break;
    total += it->second.value;
  }
  return total;
}

Histogram Registry::histogram_total(std::string_view name) const {
  Histogram total;
  for (auto it = histograms_.lower_bound(Key{std::string(name), 0}); it != histograms_.end();
       ++it) {
    if (it->first.first != name) break;
    if (total.bounds.empty() && total.count == 0) {
      total = it->second;
    } else {
      total.merge(it->second);
    }
  }
  return total;
}

const Counter* Registry::find_counter(std::string_view name, NodeId node) const {
  const auto it = counters_.find(Key{std::string(name), node.value});
  return it == counters_.end() ? nullptr : &it->second;
}

std::string Registry::to_jsonl() const {
  std::string out;
  for (const auto& [key, c] : counters_) {
    out += "{\"kind\":\"counter\",\"name\":\"";
    append_json_escaped(out, key.first);
    out += "\",\"node\":" + std::to_string(key.second);
    out += ",\"value\":" + std::to_string(c.value) + "}\n";
  }
  for (const auto& [key, g] : gauges_) {
    out += "{\"kind\":\"gauge\",\"name\":\"";
    append_json_escaped(out, key.first);
    out += "\",\"node\":" + std::to_string(key.second);
    out += ",\"value\":" + format_double(g.value) + "}\n";
  }
  for (const auto& [key, h] : histograms_) {
    out += "{\"kind\":\"histogram\",\"name\":\"";
    append_json_escaped(out, key.first);
    out += "\",\"node\":" + std::to_string(key.second);
    out += ",\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + format_double(h.sum);
    out += ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) out += ',';
      out += format_double(h.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "]}\n";
  }
  return out;
}

std::string Registry::summary() const {
  std::string out;
  std::string last;
  // Counters roll up per family (sum across nodes).
  for (const auto& [key, c] : counters_) {
    (void)c;
    if (key.first == last) continue;
    last = key.first;
    out += "counter   " + key.first + " = " + std::to_string(counter_total(key.first)) + "\n";
  }
  for (const auto& [key, g] : gauges_) {
    out += "gauge     " + key.first;
    if (key.second != 0) out += "[" + std::to_string(key.second) + "]";
    out += " = " + format_double(g.value) + "\n";
  }
  last.clear();
  for (const auto& [key, h] : histograms_) {
    (void)h;
    if (key.first == last) continue;
    last = key.first;
    const Histogram total = histogram_total(key.first);
    out += "histogram " + key.first + " count=" + std::to_string(total.count) +
           " mean=" + format_double(total.mean()) + "\n";
  }
  return out;
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace gpbft::obs
