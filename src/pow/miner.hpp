// Simulated PoW miner (see pow_chain.hpp for the modeling argument).
//
// Each miner mines on the current best tip: block discovery is a Poisson
// process with rate hashrate/difficulty, so the miner draws an exponential
// solve time on the simulated clock and re-arms whenever the tip changes
// (memorylessness makes the re-arm exact). Found blocks gossip to every
// peer; receivers adopt by heaviest-chain fork choice, which makes forks
// and stale blocks observable under network latency.
//
// Energy accounting: hashes_computed() integrates hashrate over the time
// actually spent mining — the computing-overhead number Table IV contrasts
// with (G-)PBFT's.
#pragma once

#include <functional>
#include <memory>

#include "ledger/mempool.hpp"
#include "net/network.hpp"
#include "pow/pow_chain.hpp"

namespace gpbft::pow {

struct MinerConfig {
  /// Hash evaluations per simulated second (IoT-class device: modest).
  double hashrate{1e6};
  /// Expected hashes per block across the *whole network* is `difficulty`;
  /// with m equal miners a block lands every difficulty/(m*hashrate) s.
  std::uint64_t difficulty{60'000'000};
  std::size_t max_batch_size{32};
  /// Depth at which a transaction counts as confirmed (6 in Bitcoin lore).
  Height confirmation_depth{3};
  /// Scaled-down target actually ground/verified (see mine_block docs).
  std::uint64_t proof_difficulty{PowChain::kDefaultProofDifficulty};
  /// Optional difficulty retargeting rule (consensus-critical: all miners
  /// must share it). Disabled by default: fixed genesis difficulty.
  std::optional<RetargetConfig> retarget{};
};

/// Message type for gossiped PoW blocks (disjoint from the PBFT range).
inline constexpr net::MessageType kPowBlock = 40;
/// Parent-fetch sync: a 32-byte block hash the sender is missing. Blocks
/// are only announced when mined, so a miner that was crashed or
/// partitioned would otherwise buffer descendants as orphans forever; on
/// receiving an orphan it instead asks the announcer for the missing
/// parent, walking back until the chains connect.
inline constexpr net::MessageType kPowBlockRequest = 42;
/// Clients submit transactions with the PBFT ClientRequest type.

class Miner : public net::INetNode {
 public:
  /// (digest, confirmation latency) when a transaction first reaches the
  /// configured confirmation depth on this miner's best chain.
  using ConfirmedCallback = std::function<void(const crypto::Hash256&, Duration)>;
  /// Durability hook, fired whenever the best tip advances; the deployment
  /// layer wires it to the node's simulated disk (see pow_store.hpp).
  using PersistCallback = std::function<void(const PowChain&)>;

  Miner(NodeId id, std::vector<NodeId> peers, PowBlock genesis, MinerConfig config,
        net::Network& network);

  /// Attaches and starts mining.
  void start();
  void stop();

  // --- INetNode ---------------------------------------------------------------
  [[nodiscard]] NodeId id() const override { return id_; }
  void handle(const net::Envelope& envelope) override;

  /// Submits a transaction directly (the harness's client path).
  void submit(ledger::Transaction tx);

  /// Replays a persisted best chain (genesis first) into the block tree
  /// before start(). Every block re-passes proof-of-work and linkage
  /// validation; anything invalid is dropped, so a corrupt-but-well-framed
  /// image degrades to a shorter chain rather than poisoning the tree.
  void restore_chain(const std::vector<PowBlock>& blocks);

  // --- introspection ------------------------------------------------------------
  [[nodiscard]] const PowChain& chain() const { return chain_; }
  [[nodiscard]] double hashes_computed() const { return hashes_computed_; }
  void set_confirmed_callback(ConfirmedCallback cb) { confirmed_cb_ = std::move(cb); }
  void set_persist_callback(PersistCallback cb) { persist_cb_ = std::move(cb); }

 private:
  void arm_mining();
  void maybe_persist();
  void on_block_found(std::uint64_t attempt);
  void on_block_received(PowBlock block, NodeId from);
  void on_block_requested(const crypto::Hash256& block_hash, NodeId requester);
  void account_mining_time();
  void check_confirmations();
  void sync_mempool_with_best_chain();

  NodeId id_;
  std::vector<NodeId> peers_;
  MinerConfig config_;
  net::Network& network_;
  PowChain chain_;
  ledger::Mempool mempool_;

  bool running_{false};
  std::uint64_t attempt_counter_{0};  // invalidates superseded solve events
  TimePoint mining_since_{};
  double hashes_computed_{0};

  // Pending confirmation watches: digest -> submission time.
  std::unordered_map<crypto::Hash256, TimePoint> watched_;
  ConfirmedCallback confirmed_cb_;
  PersistCallback persist_cb_;
  RequestId next_request_{1};

  /// Lifetime token: solve events scheduled on the simulator cannot be
  /// cancelled, so each holds a weak_ptr and no-ops once the miner object
  /// is destroyed (crash–restart rebuilds miners from disk).
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace gpbft::pow
