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
//
// An event is a plain 32-byte record: its instant, its sequence number, the
// EventTarget it fires at and an index the target chooses. The message
// plane (net::Network) schedules its arrival and done events this way, with
// the index naming a slot in its delivery slab, so the two events every
// message costs carry no callable and allocate nothing. Timers are the other
// kind: each keeps its `std::function` in a free-listed slab here, and its
// event names that slot.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace gpbft::net {

/// The receiver of typed events: fire() runs the event scheduled with
/// Simulator::schedule_at(when, target, index), given that index.
class EventTarget {
 public:
  virtual void fire(std::uint32_t index) = 0;

 protected:
  ~EventTarget() = default;
};

/// Records that wait for an event, each in a slot the event names. A freed
/// slot is reused by the next park(), so the vector only grows to the most
/// records ever pending at once.
template <typename T>
class Slab {
 public:
  /// The slot now holding `record`.
  std::uint32_t park(T record) {
    if (free_.empty()) {
      records_.push_back(std::move(record));
      return static_cast<std::uint32_t>(records_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    records_[slot] = std::move(record);
    return slot;
  }
  /// Moves the record out, leaving a default one, and frees the slot.
  T take(std::uint32_t slot) {
    free_.push_back(slot);
    return std::exchange(records_[slot], T{});
  }
  T& operator[](std::uint32_t slot) { return records_[slot]; }

 private:
  std::vector<T> records_;
  std::vector<std::uint32_t> free_;
};

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

  /// Schedules `target.fire(index)` at an absolute instant (clamped to now
  /// if in the past). It takes the same sequence numbers as a timer, so
  /// both kinds interleave in one (when, seq) order.
  void schedule_at(TimePoint when, EventTarget& target, std::uint32_t index);

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
    EventTarget* target;  // null for a timer
    std::uint32_t index;  // the target's slot, or the timer's in timers_
  };
  static_assert(sizeof(Event) <= 32 && std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void push(TimePoint when, EventTarget* target, std::uint32_t index);

  TimePoint now_{};
  std::uint64_t next_seq_{0};
  std::uint64_t events_processed_{0};
  std::size_t max_queue_depth_{0};
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Slab<std::function<void()>> timers_;  // pending timers' callables
  Rng rng_;
};

}  // namespace gpbft::net
