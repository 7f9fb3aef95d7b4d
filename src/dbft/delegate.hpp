// dBFT delegate node (the NEO-style baseline of the paper's Table IV).
//
// Differences from plain PBFT, layered on the same engine:
//  * finality is the dBFT 2.0 rule, the engine's full PREPARE + COMMIT
//    exchange. The dBFT 1.0 rule (finalize on a 2f+1 PREPARE quorum, no
//    COMMIT round) forks under message loss + view change, the defect NEO
//    fixed in 2.0; the wire-tamper campaigns reproduced that fork here
//    (docs/protocol.md §12), and the 1.0 rule is gone;
//  * the speaker rotates every block: speaker(height, view) =
//    delegates[(height + view) mod c], so view changes skip a faulty
//    speaker within a height and rotation happens naturally across heights;
//  * block pacing: the speaker publishes a block at a fixed interval (NEO:
//    ~15 s — exactly the "average latency of dBFT to produce a block is 15
//    seconds, not suitable for IoT" critique in §VI-A), not as soon as
//    transactions arrive;
//  * delegates are elected by on-chain stake voting: vote transactions
//    update every node's StakeRegistry deterministically, and at each
//    epoch boundary (every `epoch_blocks`) the roster is recomputed;
//  * published blocks are broadcast to non-delegate observers, so every
//    dBFT node follows the chain and derives the same elections.
#pragma once

#include <functional>
#include <optional>

#include "dbft/stake.hpp"
#include "pbft/replica.hpp"

namespace gpbft::dbft {

/// Message type for blocks published to observers (disjoint ranges: PBFT
/// 1-10, G-PBFT 20-22, PoW 40, dBFT 41).
inline constexpr net::MessageType kPublishedBlock = 41;

/// The body of a published block: the block itself, in its own layout.
struct PublishedBlock {
  static constexpr net::MessageType kType = kPublishedBlock;
  ledger::Block block;

  static auto fields(auto& m) { return serde::fields(m.block); }
};

struct DbftConfig {
  pbft::PbftConfig pbft;
  /// Block production cadence (NEO: ~15 s).
  Duration block_interval = Duration::seconds(15);
  /// Delegates elected per epoch.
  std::size_t delegate_count{7};
  /// Blocks per election epoch.
  SeqNum epoch_blocks{16};
};

/// Builds a stake-vote transaction: `voter` votes for `candidate`. The
/// payload is the tagged candidate id; every replica parses executed vote
/// transactions into its registry.
[[nodiscard]] ledger::Transaction make_vote_tx(NodeId voter, RequestId request_id,
                                               NodeId candidate, const geo::GeoReport& geo);

/// Parses a vote transaction; nullopt when `tx` is not a vote.
[[nodiscard]] std::optional<NodeId> parse_vote_tx(const ledger::Transaction& tx);

class Delegate : public pbft::Replica {
 public:
  /// (era-like) callback after an epoch re-election: (height, new roster).
  using RosterCallback = std::function<void(Height, const std::vector<NodeId>&)>;

  Delegate(NodeId id, ledger::Block genesis, DbftConfig config, StakeRegistry initial_stakes,
           std::vector<NodeId> observers, net::Network& network,
           const crypto::KeyRegistry& keys);

  /// Attaches and arms the replica tick, then the block-interval pacing
  /// timer; a second call is a no-op.
  void start() override;

  [[nodiscard]] bool is_delegate() const;
  [[nodiscard]] const std::vector<NodeId>& delegates() const { return delegates_; }
  [[nodiscard]] const StakeRegistry& stakes() const { return stakes_; }
  [[nodiscard]] std::uint64_t epochs_completed() const { return epochs_completed_; }

  void set_roster_callback(RosterCallback cb) { roster_cb_ = std::move(cb); }

  /// Speaker rotation: delegates[(next height + view) mod c].
  [[nodiscard]] NodeId primary_of(ViewId view) const override;

 protected:
  void on_executed(const ledger::Block& block) override;
  void handle_extra(const net::Envelope& envelope, BytesView body) override;
  /// Pacing gate: a proposal may only happen one block interval after the
  /// previous block.
  [[nodiscard]] bool ready_to_propose() const override {
    return now() - last_block_time_ >= config_.block_interval;
  }

 private:
  void arm_pacing_timer();
  void on_pacing_tick();
  void maybe_reelect(Height height);
  void publish_block(const ledger::Block& block);

  DbftConfig config_;
  StakeRegistry stakes_;
  std::vector<NodeId> delegates_;
  std::vector<NodeId> observers_;  // all dBFT nodes (for block publishing)
  TimePoint last_block_time_{};
  std::uint64_t epochs_completed_{0};
  RosterCallback roster_cb_;
};

}  // namespace gpbft::dbft
