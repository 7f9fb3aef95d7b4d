#include "sim/mobility.hpp"

namespace gpbft::sim {

void Mobility::move(::gpbft::gpbft::Endorser& device, const geo::GeoPoint& to) {
  device.set_location(to);
  area_.place(device.id(), to);  // ground truth follows: the move is honest
}

void Mobility::random_hop(::gpbft::gpbft::Endorser& device, Duration period,
                          std::size_t slot_base, std::size_t slot_count, Duration start) {
  struct Hopper {
    Mobility* mobility;
    ::gpbft::gpbft::Endorser* device;
    Duration period;
    std::size_t slot_base;
    std::size_t slot_count;
    std::size_t hop{0};
    std::shared_ptr<bool> alive;

    void step(const std::shared_ptr<Hopper>& self) {
      if (!*alive) return;
      const std::size_t slot = slot_base + (hop++ % slot_count);
      mobility->move(*device, mobility->placement_.position(slot));
      mobility->sim_.schedule(period, [self]() { self->step(self); });
    }
  };
  auto hopper = std::make_shared<Hopper>();
  hopper->mobility = this;
  hopper->device = &device;
  hopper->period = period;
  hopper->slot_base = slot_base;
  hopper->slot_count = std::max<std::size_t>(1, slot_count);
  hopper->alive = alive_;
  sim_.schedule(start, [hopper]() { hopper->step(hopper); });
}

void Mobility::relocate_at(::gpbft::gpbft::Endorser& device, Duration when,
                           const geo::GeoPoint& to) {
  auto alive = alive_;
  auto* device_ptr = &device;
  sim_.schedule(when, [this, alive, device_ptr, to]() {
    if (!*alive) return;
    move(*device_ptr, to);
  });
}

}  // namespace gpbft::sim
