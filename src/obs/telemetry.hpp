// Telemetry facade: one metrics registry + one trace recorder per
// deployment, reached by every layer through net::Network.
//
// Design constraints (DESIGN.md determinism rules apply here too):
//   - no randomness, no wall clock: the only time source is the simulated
//     clock injected via set_clock(), so telemetry can never perturb a run;
//   - cheap when off: every emitter is gated on enabled() (metrics) or
//     trace_enabled() (spans/instants);
//   - metrics stay on by default, tracing is opt-in (the CLI enables it
//     when --trace-out is given) so the 200-node benches pay no per-block
//     string cost.
//
// The obs library depends only on gpbft_common. Message-type and node names
// live in higher layers, so the facade takes pluggable namers: the sim
// layer installs pbft::message_type_name and per-deployment node labels.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpbft::obs {

class Telemetry {
 public:
  using Clock = std::function<TimePoint()>;
  using MessageNamer = std::function<std::string(std::uint32_t)>;
  using NodeNamer = std::function<std::string(NodeId)>;

  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// A process-wide permanently disabled instance, so layers that may run
  /// without a deployment (unit tests driving a bare Network) never need a
  /// null check. Do not enable or write to it.
  [[nodiscard]] static Telemetry& noop();

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] bool trace_enabled() const { return enabled_ && trace_enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_trace_enabled(bool on) { trace_enabled_ = on; }

  [[nodiscard]] Registry& metrics() { return metrics_; }
  [[nodiscard]] const Registry& metrics() const { return metrics_; }
  [[nodiscard]] TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }

  void set_clock(Clock clock) { clock_ = std::move(clock); }
  [[nodiscard]] TimePoint now() const { return clock_ ? clock_() : TimePoint{}; }

  void set_message_namer(MessageNamer namer) { message_namer_ = std::move(namer); }
  [[nodiscard]] std::string message_name(std::uint32_t type) const {
    return message_namer_ ? message_namer_(type) : "type-" + std::to_string(type);
  }
  void set_node_namer(NodeNamer namer) { node_namer_ = std::move(namer); }
  [[nodiscard]] std::string node_name(NodeId node) const {
    return node_namer_ ? node_namer_(node) : "node-" + std::to_string(node.value);
  }

  // --- gated convenience emitters (all no-ops when the gate is off) ---------
  void count(std::string_view name, NodeId node = NodeId{0}, std::uint64_t delta = 1) {
    if (enabled()) metrics_.counter(name, node).add(delta);
  }
  void observe(std::string_view name, double value, NodeId node = NodeId{0}) {
    if (enabled()) metrics_.histogram(name, node).observe(value);
  }
  /// Like observe(), but the series buckets on power-of-two counts instead
  /// of latency seconds (batch sizes, queue depths). Bounds bind on first
  /// creation, so one name must stick to one observe flavour.
  void observe_count(std::string_view name, double value, NodeId node = NodeId{0}) {
    if (enabled()) metrics_.histogram(name, node, default_count_bounds()).observe(value);
  }
  /// Like observe(), but buckets on octiles of [0, 1] (occupancy ratios).
  void observe_fraction(std::string_view name, double value, NodeId node = NodeId{0}) {
    if (enabled()) metrics_.histogram(name, node, default_fraction_bounds()).observe(value);
  }
  void instant(std::string name, std::string category, NodeId node,
               TraceRecorder::Args args = {}) {
    if (trace_enabled()) trace_.instant(now(), node, std::move(name), std::move(category),
                                        std::move(args));
  }
  void span(TimePoint begin, TimePoint end, NodeId node, std::string name, std::string category,
            TraceRecorder::Args args = {}) {
    if (trace_enabled()) trace_.complete_span(begin, end, node, std::move(name),
                                              std::move(category), std::move(args));
  }
  void async_begin(std::uint64_t id, NodeId node, std::string name, std::string category,
                   TraceRecorder::Args args = {}) {
    if (trace_enabled()) trace_.async_begin(id, now(), node, std::move(name), std::move(category),
                                            std::move(args));
  }
  void async_end(std::uint64_t id, NodeId node, std::string name, std::string category,
                 TraceRecorder::Args args = {}) {
    if (trace_enabled()) trace_.async_end(id, now(), node, std::move(name), std::move(category),
                                          std::move(args));
  }
  void name_node(NodeId node, std::string name) {
    if (trace_enabled()) trace_.set_thread_name(node, std::move(name));
  }

  // --- exporters ------------------------------------------------------------
  /// Write the Perfetto trace / metrics JSONL snapshot; false on I/O error.
  [[nodiscard]] bool write_trace(const std::string& path) const;
  [[nodiscard]] bool write_metrics_jsonl(const std::string& path) const;

 private:
  bool enabled_{true};
  bool trace_enabled_{false};
  Registry metrics_;
  TraceRecorder trace_;
  Clock clock_;
  MessageNamer message_namer_;
  NodeNamer node_namer_;
};

}  // namespace gpbft::obs
