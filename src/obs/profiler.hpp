// Wall-clock profiler: scoped RAII probes over the host's steady clock.
//
// The deterministic telemetry registry (metrics.hpp) answers *what* a run
// computed; this profiler answers *where the host CPU time went* while
// computing it — the attribution layer hot-path work is judged with.
// Design rules:
//
//   - Strictly outside the simulation. The profiler reads
//     std::chrono::steady_clock and nothing else; it never touches RNG
//     streams, event ordering, simulated time or any state a golden hash
//     covers. A profiled run's chain tip, metrics JSONL and Perfetto trace
//     are byte-identical to an unprofiled same-seed run (guarded by
//     tests/profiler_test.cpp, ctest label tier1-profile).
//   - Cheap when off. Probes are gated on one boolean; with the profiler
//     disabled a probe site costs a static-init check plus one branch.
//   - Hierarchical. Active probes form a stack; time is accounted to a
//     call tree keyed by probe site, so a site's *inclusive* time (its
//     whole subtree) and *exclusive* time (inclusive minus children) are
//     both available. The same site reached through different parents gets
//     distinct tree nodes — exactly what a flamegraph wants.
//
// Sites register once per process (static registration: the macro stores
// the id in a function-local static, and registering the same name twice
// returns the same id). The profiler is a process-wide, single-threaded
// singleton, like the simulation it measures.
//
// Exports:
//   to_json()       nested call tree; `calls` and structure are
//                   deterministic for a seeded run, `wall_ns`/`self_ns`
//                   are host measurements (scripts/check_trace.py compares
//                   two runs on the deterministic fields only);
//   to_collapsed()  Brendan Gregg collapsed-stack lines
//                   ("a;b;c <self_ns>") — feed to flamegraph.pl / speedscope;
//   hotspot_table() per-site rollup sorted by exclusive time (the CLI's
//                   `profile` subcommand prints this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gpbft::obs {

class Profiler {
 public:
  using SiteId = std::uint32_t;
  static constexpr SiteId kNoSite = ~SiteId{0};

  [[nodiscard]] static Profiler& instance();

  /// Registers (or looks up) a probe site by name; ids are stable for the
  /// process lifetime and identical names share one id.
  SiteId register_site(std::string name);
  [[nodiscard]] const std::string& site_name(SiteId id) const { return site_names_.at(id); }
  [[nodiscard]] std::size_t site_count() const { return site_names_.size(); }

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Toggle only between runs (with no probes open): enabling or disabling
  /// mid-scope would unbalance the probe stack.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens/closes a frame for `site` under the current tree position.
  /// Callers normally go through ScopedProbe, which pairs these.
  void enter(SiteId site);
  void leave();

  /// Drops all recorded samples (sites persist); resets the stack.
  void clear();

  [[nodiscard]] bool empty() const { return root_.children.empty(); }

  /// Nested call tree: {"profiler":{"sites":K,"tree":{...}}} where every
  /// node carries name / calls / wall_ns / self_ns / children. Names,
  /// calls and child order are deterministic for a seeded run.
  [[nodiscard]] std::string to_json() const;
  /// Collapsed-stack lines, one per tree node with nonzero self time:
  /// "root;a;b <self_ns>". Deterministic order (depth-first, creation
  /// order); values are wall nanoseconds.
  [[nodiscard]] std::string to_collapsed() const;
  /// Per-site rollup (summed over every tree position), sorted by
  /// exclusive wall time, top `top_n` rows.
  [[nodiscard]] std::string hotspot_table(std::size_t top_n = 15) const;

  [[nodiscard]] bool write_json(const std::string& path) const;
  [[nodiscard]] bool write_collapsed(const std::string& path) const;

  /// Total wall nanoseconds under all roots (the denominator of every
  /// percentage the hotspot table prints).
  [[nodiscard]] std::uint64_t total_wall_ns() const;

 private:
  struct Node {
    SiteId site{kNoSite};
    std::uint64_t calls{0};
    std::uint64_t wall_ns{0};  // inclusive
    std::vector<std::unique_ptr<Node>> children;  // creation order

    [[nodiscard]] Node* child(SiteId s);
    [[nodiscard]] std::uint64_t self_ns() const;
  };
  struct Frame {
    Node* node;
    std::uint64_t start_ns;
  };

  Profiler() = default;

  bool enabled_{false};
  std::vector<std::string> site_names_;
  std::map<std::string, SiteId> site_ids_;
  Node root_;
  std::vector<Frame> stack_;
};

/// RAII frame around one probe site. The enabled check is latched at
/// construction so a (misplaced) mid-scope toggle cannot unbalance the
/// profiler's stack.
class ScopedProbe {
 public:
  explicit ScopedProbe(Profiler::SiteId site)
      : profiler_(Profiler::instance()), active_(profiler_.enabled()) {
    if (active_) profiler_.enter(site);
  }
  ~ScopedProbe() {
    if (active_) profiler_.leave();
  }
  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;

 private:
  Profiler& profiler_;
  bool active_;
};

#define GPBFT_PROF_CONCAT_INNER(a, b) a##b
#define GPBFT_PROF_CONCAT(a, b) GPBFT_PROF_CONCAT_INNER(a, b)

/// Static-registration scoped probe: the site registers once (function-local
/// static), then every pass through the scope costs one branch while the
/// profiler is disabled.
#define GPBFT_PROFILE_SCOPE(name)                                                  \
  static const ::gpbft::obs::Profiler::SiteId GPBFT_PROF_CONCAT(gpbft_prof_site_,  \
                                                                __LINE__) =        \
      ::gpbft::obs::Profiler::instance().register_site(name);                      \
  ::gpbft::obs::ScopedProbe GPBFT_PROF_CONCAT(gpbft_prof_probe_, __LINE__)(        \
      GPBFT_PROF_CONCAT(gpbft_prof_site_, __LINE__))

}  // namespace gpbft::obs
