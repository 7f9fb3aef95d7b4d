// PBFT client — the model of an IoT device submitting transactions.
//
// Per §III-B1 of the paper, a client "will send the transaction to multiple
// endorsers at the same time" to survive message loss; we send to every
// committee member. A transaction counts as committed when f+1 matching
// REPLY messages arrive (matching digest and height); the recorded latency
// — submission to (f+1)-th matching reply — is exactly the quantity Fig. 3
// and Fig. 4 of the paper plot.
#pragma once

#include <functional>
#include <unordered_map>

#include "common/rng.hpp"
#include "crypto/authenticator.hpp"
#include "net/network.hpp"
#include "pbft/config.hpp"
#include "pbft/messages.hpp"
#include "pbft/quorum.hpp"

namespace gpbft::pbft {

class Client : public net::INetNode {
 public:
  /// Invoked when a transaction commits: (digest, height, latency).
  using CommitCallback =
      std::function<void(const crypto::Hash256&, Height, Duration)>;

  Client(NodeId id, std::vector<NodeId> committee, net::Network& network,
         const crypto::KeyRegistry& keys, bool compute_macs = true);

  /// Attaches to the network and arms the retransmission tick: outstanding
  /// transactions whose backoff deadline passed are resubmitted (replicas
  /// deduplicate; already-committed ones answer from the reply cache).
  void start();

  /// Stops the retransmission tick so a simulation can drain to idle.
  void stop() { started_ = false; }

  /// Base retransmission interval; zero disables retries. Successive
  /// retries of one transaction back off exponentially from this base
  /// (doubling per attempt, capped at 8x) with deterministic jitter drawn
  /// from a per-client RNG stream forked off the simulator seed — so the
  /// retry flood after a partition heals is spread out instead of every
  /// client resending in the same tick.
  void set_retry_interval(Duration interval) { retry_interval_ = interval; }

  /// Hard ceiling on one backoff delay (applied after jitter, so setting a
  /// cap never perturbs the deterministic jitter stream). Zero = uncapped
  /// (the legacy 8x-base bound still applies).
  void set_max_backoff(Duration cap) { max_backoff_ = cap; }

  // --- INetNode ---------------------------------------------------------------
  [[nodiscard]] NodeId id() const override { return id_; }
  void handle(const net::Envelope& envelope) override;

  /// Submits a transaction to the whole committee.
  void submit(const ledger::Transaction& tx);

  /// Updates the committee the client talks to (after an era switch).
  void set_committee(std::vector<NodeId> committee);

  void set_commit_callback(CommitCallback cb) { commit_cb_ = std::move(cb); }

  [[nodiscard]] std::uint64_t committed_count() const { return committed_count_; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_.size(); }

 private:
  struct Pending {
    explicit Pending(const std::vector<NodeId>& roster) : votes(roster) {}

    TimePoint submitted_at;
    TimePoint last_sent_at;
    TimePoint next_retry_at;     // backoff deadline for the next resend
    std::uint32_t attempts{0};   // resends so far (drives the backoff)
    ledger::Transaction transaction;  // kept for retransmission
    // Heights claimed by sealed senders (never the body's replica field);
    // commit at f+1 for one height.
    Quorum<Height> votes;
  };

  void send_request(const ledger::Transaction& tx);
  void arm_retry_tick();
  void on_retry_tick();
  [[nodiscard]] Duration backoff_delay(std::uint32_t attempt);

  NodeId id_;
  std::vector<NodeId> committee_;
  net::Network& network_;
  const crypto::KeyRegistry& keys_;
  bool compute_macs_;

  // Stays a node map: on_retry_tick walks it in bucket order, and that order
  // fixes which retries are sent first and which backoff jitter each draws,
  // so a table with another order would change every retried run.
  std::unordered_map<crypto::Hash256, Pending> outstanding_;
  CommitCallback commit_cb_;
  std::uint64_t committed_count_{0};
  Duration retry_interval_ = Duration::seconds(20);
  Duration max_backoff_{0};  // hard delay ceiling; zero = uncapped
  Rng backoff_rng_;  // jitter stream, decorrelated from protocol randomness
  bool started_{false};
};

}  // namespace gpbft::pbft
