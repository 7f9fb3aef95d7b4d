#include "net/simulator.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace gpbft::net {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

void Simulator::schedule(Duration delay, std::function<void()> fn) {
  if (delay.ns < 0) delay = Duration{0};
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(TimePoint when, std::function<void()> fn) {
  push(when, nullptr, timers_.park(std::move(fn)));
}

void Simulator::schedule_at(TimePoint when, EventTarget& target, std::uint32_t index) {
  push(when, &target, index);
}

void Simulator::push(TimePoint when, EventTarget* target, std::uint32_t index) {
  if (when < now_) when = now_;
  queue_.push(Event{when, next_seq_++, target, index});
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const Event event = queue_.top();
  queue_.pop();
  now_ = event.when;
  Logger::instance().set_sim_time_seconds(now_.to_seconds());
  ++events_processed_;
  {
    GPBFT_PROFILE_SCOPE("sim.event");
    if (event.target != nullptr) {
      event.target->fire(event.index);
    } else {
      // Out of the slab before the call: the timer may schedule others,
      // which can grow the slab and take this slot.
      timers_.take(event.index)();
    }
  }
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && step()) ++fired;
}

void Simulator::run_until(TimePoint deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) step();
  if (now_ < deadline) now_ = deadline;
  Logger::instance().set_sim_time_seconds(now_.to_seconds());
}

}  // namespace gpbft::net
