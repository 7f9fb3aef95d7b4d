// PBFT replica configuration.
#pragma once

#include <cstddef>

#include "common/sim_time.hpp"

namespace gpbft::pbft {

struct PbftConfig {
  /// Maximum transactions batched into one block proposal.
  std::size_t max_batch_size{8};

  /// Requests that close an accumulating batch immediately: the primary
  /// holds its proposal until this many requests queue (or the close
  /// timeout below passes). 1 reproduces the unbatched behaviour — propose
  /// as soon as the first request arrives — and keeps the event stream
  /// byte-identical to it, because no close timer is ever armed.
  std::size_t batch_close_size{1};

  /// Deadline for a partially filled batch: once its first request queues,
  /// the primary proposes no later than this much after it, whatever the
  /// occupancy. Only consulted when batch_close_size > 1.
  Duration batch_close_timeout = Duration::millis(250);

  /// Log window above the low watermark within which sequences are accepted.
  SeqNum watermark_window{128};

  /// Executions between checkpoints (log GC).
  SeqNum checkpoint_interval{16};

  /// A request not executed within this time triggers a view change.
  Duration request_timeout = Duration::seconds(20);

  /// Backoff added per failed view change attempt.
  Duration view_change_timeout = Duration::seconds(10);

  /// When false, HMAC tags are accounted on the wire but not recomputed —
  /// a simulation-speed knob for large sweeps (correctness suites keep it
  /// on; see DESIGN.md). Tag bytes are always present either way.
  bool compute_macs{true};
};

/// Byzantine behaviours injectable into a replica for fault testing.
enum class FaultMode {
  None,
  /// Crashed-silent: participates in nothing.
  Silent,
  /// Sends PREPAREs whose digest is corrupted (equivocation attempt).
  EquivocateDigest,
  /// As primary, proposes blocks whose Merkle root does not commit to the
  /// body (honest backups must reject them; the view change removes it).
  CorruptProposals,
  /// Floods forged geo-reports (in-cell jitter under the area-registry
  /// truthfulness tolerance) to hold a stationary timer while spamming the
  /// election table — the Sybil-burst election attack. Consensus messages
  /// stay honest; only G-PBFT's geo plane is attacked.
  SybilGeoReports,
};

}  // namespace gpbft::pbft
