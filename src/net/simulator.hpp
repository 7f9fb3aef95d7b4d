// Discrete-event simulator core.
//
// A single-threaded event loop over a simulated clock. All timing in the
// reproduced experiments (consensus latency, era-switch pauses, geo-report
// periods) is measured on this clock, so runs are bit-for-bit reproducible
// from a seed — the substitution for the paper's wall-clock measurements on
// a server cluster (see DESIGN.md §1).
//
// Events scheduled for the same instant fire in scheduling order (a stable
// sequence number breaks ties), which keeps the simulation deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace gpbft::net {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedules `fn` to run `delay` after the current simulated time.
  /// Negative delays are clamped to zero (fire "now", after current events).
  void schedule(Duration delay, std::function<void()> fn);

  /// Schedules `fn` at an absolute instant (clamped to now if in the past).
  void schedule_at(TimePoint when, std::function<void()> fn);

  /// Runs one event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue is empty or `max_events` have fired.
  void run(std::uint64_t max_events = kNoEventLimit);

  /// Runs events with timestamps <= `deadline`; the clock ends at
  /// max(reached event time, deadline).
  void run_until(TimePoint deadline);

  /// True when no events remain.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// The deepest the event queue has ever been — the high-water mark
  /// telemetry exports as `sim.max_queue_depth` (a backlog signal:
  /// overloaded receivers show up here before latency percentiles move).
  [[nodiscard]] std::size_t max_queue_depth() const { return max_queue_depth_; }

  static constexpr std::uint64_t kNoEventLimit = ~0ull;

 private:
  struct Event {
    TimePoint when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  TimePoint now_{};
  std::uint64_t next_seq_{0};
  std::uint64_t events_processed_{0};
  std::size_t max_queue_depth_{0};
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Rng rng_;
};

}  // namespace gpbft::net
