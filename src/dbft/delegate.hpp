// dBFT delegate node (the NEO-style baseline of the paper's Table IV).
//
// Differences from plain PBFT, layered on the same engine:
//  * by default the dBFT 2.0 rule: a block finalizes after the full
//    PREPARE + COMMIT exchange. The original dBFT 1.0 two-phase rule
//    (finalize on a 2f+1 PREPARE quorum, no COMMIT round) is kept as an
//    opt-in ablation knob (`legacy_two_phase`) — it is the historically
//    deployed protocol, but it can fork under message loss + view change
//    (the defect NEO fixed by adding the commit phase in dBFT 2.0), and
//    our wire-tamper campaigns reproduce exactly that fork;
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

struct DbftConfig {
  pbft::PbftConfig pbft;  // two_phase is derived from legacy_two_phase below
  /// Opt into the dBFT 1.0 finality rule (execute at 2f+1 PREPAREs, no
  /// COMMIT round). Off by default: 1.0 forks under message loss + view
  /// change, which is why NEO moved to the three-phase 2.0 protocol.
  bool legacy_two_phase{false};
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
  void handle_extra(const net::Envelope& envelope) override;
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
