#include "sim/storage.hpp"

#include <utility>

namespace gpbft::sim {

const char* disk_fault_name(DiskFaultKind kind) {
  switch (kind) {
    case DiskFaultKind::TornWrite: return "torn-write";
    case DiskFaultKind::BitRot: return "bit-rot";
    case DiskFaultKind::StaleSnapshot: return "stale-snapshot";
  }
  return "unknown";
}

void SimDisk::save(net::Payload image) {
  ++saves_;
  previous_ = std::move(image_);
  image_ = std::move(image);
  if (torn_next_) {
    torn_next_ = false;
    ++faults_applied_;
    if (!image_.empty()) {
      // Power loss mid-write: keep a strict prefix (possibly empty). The
      // integrity tail makes any truncation detectable at load time.
      const auto kept = static_cast<std::ptrdiff_t>(rng_.uniform(0, image_.size() - 1));
      image_ = Bytes(image_.begin(), image_.begin() + kept);
    }
  }
}

void SimDisk::inject(DiskFaultKind kind) {
  switch (kind) {
    case DiskFaultKind::TornWrite:
      torn_next_ = true;
      break;
    case DiskFaultKind::BitRot:
      if (!image_.empty()) {
        const std::uint64_t bit = rng_.uniform(0, image_.size() * 8 - 1);
        Bytes rotten = image_.bytes();
        rotten[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        image_ = std::move(rotten);
        ++faults_applied_;
      }
      break;
    case DiskFaultKind::StaleSnapshot:
      if (!previous_.empty() || !image_.empty()) {
        image_ = previous_;
        ++faults_applied_;
      }
      break;
  }
}

SimDisk& StorageFabric::disk(NodeId id) {
  auto it = disks_.find(id.value);
  if (it == disks_.end()) {
    it = disks_.emplace(id.value, SimDisk(rng_.fork(id.value))).first;
  }
  return it->second;
}

}  // namespace gpbft::sim
