// Deterministic simulated storage: one in-memory "disk" per node.
//
// Every disk holds a chain image in the one framing ledger/store owns
// (write_image / read_image: magic + version + blocks + SHA-256 integrity
// tail; BFT and PoW images differ only in magic and block encoding). The
// format lets a node stop and resume without replaying consensus — but a
// real IoT flash part fails in characteristic ways that the restart
// machinery must survive:
//
//   TornWrite      power loss mid-write: the *next* save lands truncated at
//                  an arbitrary offset. The integrity tail catches it at
//                  load time, so the node falls back to genesis and resyncs.
//   BitRot        a single bit of the stored image flips (flash wear,
//                  cosmic ray). Also caught by the integrity tail.
//   StaleSnapshot the most recent save is lost (write-back cache never
//                  flushed); the disk reverts to the previous image. The
//                  image is *valid* but old — the node restarts behind and
//                  must close the gap via chain sync.
//
// Images are immutable net::Payload buffers, so disks that save the same
// chain share one buffer: the deployment builds each checkpoint image once
// and hands it to every replica that reaches that tip. A fault never
// writes into a shared buffer. TornWrite and BitRot put their damaged copy
// in a fresh buffer of the faulted disk's own, and StaleSnapshot only
// swaps references.
//
// All fault decisions (torn-write offsets, bit positions) draw from a
// dedicated RNG stream forked off the deployment seed, never from the
// simulator's main stream: injecting a disk fault must not perturb
// workload, jitter or protocol randomness, so faulted and clean runs stay
// comparable seed-for-seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace gpbft::sim {

enum class DiskFaultKind : std::uint8_t {
  TornWrite,      ///< next save is truncated at an RNG-chosen offset
  BitRot,         ///< one RNG-chosen bit of the current image flips now
  StaleSnapshot,  ///< the most recent save is lost; previous image restored
};

[[nodiscard]] const char* disk_fault_name(DiskFaultKind kind);

/// One node's non-volatile store. Holds the current image plus the previous
/// one (the file `std::rename` atomically replaced), mirroring what a
/// temp+rename save sequence leaves on a real filesystem.
class SimDisk {
 public:
  explicit SimDisk(Rng rng) : rng_(rng) {}

  /// Persists a new image (a serialized chain), keeping a reference to the
  /// caller's buffer. If a torn write is armed, the disk stores a copy
  /// truncated at a random offset instead.
  void save(net::Payload image);

  [[nodiscard]] const Bytes& image() const { return image_.bytes(); }
  [[nodiscard]] bool empty() const { return image_.empty(); }

  /// Injects a fault. TornWrite arms the *next* save; BitRot and
  /// StaleSnapshot take effect immediately (no-ops on an empty disk).
  void inject(DiskFaultKind kind);

  [[nodiscard]] std::uint64_t saves() const { return saves_; }
  [[nodiscard]] std::uint64_t faults_applied() const { return faults_applied_; }

 private:
  Rng rng_;
  net::Payload image_;
  net::Payload previous_;  // what the last save overwrote, for StaleSnapshot
  bool torn_next_{false};
  std::uint64_t saves_{0};
  std::uint64_t faults_applied_{0};
};

/// The deployment's collection of per-node disks. Disks are created on
/// first use, each with its own RNG stream forked from the fabric seed and
/// the node id, so the fault pattern on one node's disk is independent of
/// how often any other node saves.
class StorageFabric {
 public:
  explicit StorageFabric(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] SimDisk& disk(NodeId id);
  [[nodiscard]] bool has(NodeId id) const { return disks_.contains(id.value); }

  /// Injects a fault into `id`'s disk (creating it if absent, so a fault
  /// can be armed before the node's first save).
  void inject(NodeId id, DiskFaultKind kind) { disk(id).inject(kind); }

 private:
  Rng rng_;
  std::map<std::uint64_t, SimDisk> disks_;
};

}  // namespace gpbft::sim
