// PBFT replica (Castro & Liskov, OSDI'99), adapted to blockchain batching.
//
// The primary of the current view drains the mempool into a block proposal
// and drives the three-phase protocol:
//
//   PRE-PREPARE -> PREPARE (2f matching) -> COMMIT (2f+1 matching) -> execute
//
// Execution appends the block to the replica's chain, applies state, and
// sends a REPLY to each transaction's sender; clients accept f+1 matching
// replies. View changes fire on request timeouts; checkpoints garbage-
// collect the instance log every checkpoint_interval executions.
//
// One consensus instance is in flight at a time (sequence number == block
// height), because each block links to its predecessor's hash. Pending
// transactions queue in the mempool — this receiver-side queueing is what
// produces the latency growth the paper measures for plain PBFT.
//
// The class exposes protected hooks (select_batch, primary_of, current_era,
// on_executed, handle_extra, halted) through which gpbft::Endorser layers
// the era/election machinery on top without duplicating the state machine.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "common/flat_map.hpp"
#include "crypto/authenticator.hpp"
#include "ledger/chain.hpp"
#include "ledger/mempool.hpp"
#include "ledger/state.hpp"
#include "net/network.hpp"
#include "pbft/client_table.hpp"
#include "pbft/config.hpp"
#include "pbft/messages.hpp"
#include "pbft/quorum.hpp"

namespace gpbft::pbft {

class Replica : public net::INetNode {
 public:
  /// Receives each executed block with the digests its body check carried.
  using ExecutedCallback = std::function<void(const ledger::CheckedBlock&)>;
  using PersistCallback = std::function<void(const ledger::Chain&)>;

  Replica(NodeId id, std::vector<NodeId> committee, ledger::Block genesis, PbftConfig config,
          net::Network& network, const crypto::KeyRegistry& keys);
  ~Replica() override = default;

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Attaches to the network and arms the timeout tick; a second call is a
  /// no-op. Subclasses extend it to arm their own timers, which read
  /// started() so that stop() silences them too.
  virtual void start();

  /// Stops rescheduling protocol timers so a simulation can drain to idle.
  void stop() { started_ = false; }

  // --- INetNode --------------------------------------------------------------
  [[nodiscard]] NodeId id() const override { return id_; }
  void handle(const net::Envelope& envelope) override;

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] const ledger::Chain& chain() const { return chain_; }
  [[nodiscard]] const ledger::State& state() const { return state_; }
  [[nodiscard]] ViewId view() const { return view_; }
  [[nodiscard]] const std::vector<NodeId>& committee() const { return committee_; }
  [[nodiscard]] bool is_primary() const { return primary_of(view_) == id_; }
  [[nodiscard]] std::size_t faults_tolerated() const {
    return pbft::faults_tolerated(committee_.size());
  }
  [[nodiscard]] std::size_t mempool_size() const { return mempool_.size(); }
  [[nodiscard]] SeqNum stable_checkpoint() const { return stable_seq_; }
  /// Per-client last-executed-request bookkeeping (reply cache fast path).
  [[nodiscard]] const ClientTable& client_table() const { return client_table_; }

  /// Primary of a view; round-robin over the committee roster by default,
  /// overridden by G-PBFT's geographic-timer weighting.
  [[nodiscard]] virtual NodeId primary_of(ViewId view) const;

  // --- knobs -------------------------------------------------------------------
  void set_fault_mode(FaultMode mode) { fault_mode_ = mode; }
  void set_executed_callback(ExecutedCallback cb) { executed_cb_ = std::move(cb); }

  /// Durability hook: invoked with the chain whenever the replica reaches a
  /// point worth persisting — a stable checkpoint, an executed configuration
  /// block, or adopted sync progress. The deployment layer wires this to the
  /// node's simulated disk.
  void set_persist_callback(PersistCallback cb) { persist_cb_ = std::move(cb); }

  /// Active catch-up after a restart: immediately requests the chain suffix
  /// from the primary plus a rotating alternate, bypassing the evidence
  /// gating of maybe_request_sync (a freshly rebuilt node holds no commit
  /// votes to prove it is behind), and retries a bounded number of times
  /// until the chain advances.
  void begin_resync();

  /// Replays a persisted chain (from deserialize_chain) through the normal
  /// execution path, before start(): protocol state — eras, rosters,
  /// election bookkeeping in subclasses — re-derives via on_executed.
  /// The restored prefix was only ever persisted at agreed durability
  /// points, so it is treated as stable (the watermark window opens above
  /// it). Stops at the first invalid block, keeping what came before.
  [[nodiscard]] Result<void> restore_chain(const ledger::Chain& restored);

 protected:
  // Hooks for the G-PBFT layer -------------------------------------------------
  /// Batch selection for the next proposal; default drains the mempool.
  [[nodiscard]] virtual std::vector<ledger::Transaction> select_batch();
  /// Gate on spontaneous proposals; dBFT's pacing overrides this so blocks
  /// are produced on a fixed cadence instead of as soon as requests queue.
  [[nodiscard]] virtual bool ready_to_propose() const { return true; }
  /// Attempts a proposal if this replica is the primary, a batch exists,
  /// and ready_to_propose() allows it.
  void maybe_propose();
  /// Era stamped into produced blocks (always 0 for plain PBFT).
  [[nodiscard]] virtual EraId current_era() const { return 0; }
  /// Called after a block is appended and applied.
  virtual void on_executed(const ledger::Block& block);
  /// Messages the base protocol does not know (geo reports, era control),
  /// with the body handle() opened from the envelope's sealed payload.
  virtual void handle_extra(const net::Envelope& envelope, BytesView body);
  /// Called when a view change completes; `previous` is the abandoned view
  /// (its primary failed to make progress — G-PBFT penalizes it, §III-B5).
  virtual void on_view_changed(ViewId previous, ViewId current);

  /// While halted (era switch period, §III-E) the replica neither proposes
  /// nor accepts pre-prepares; era-switch machinery drives commits directly.
  void set_halted(bool halted) { halted_ = halted; }
  [[nodiscard]] bool halted() const { return halted_; }

  /// Reconfigures the roster (era switch): resets view/in-flight bookkeeping
  /// while keeping chain, state and mempool. `view` restarts at 0.
  void reconfigure_committee(std::vector<NodeId> committee);

  /// Proposes a specific batch immediately if this replica is the primary
  /// and no instance is in flight (used for configuration blocks).
  bool propose_batch(std::vector<ledger::Transaction> batch);

  /// Sends `msg` sealed to `to`; nothing when `to` is this replica.
  template <typename Msg>
  void send_to(NodeId to, const Msg& msg) {
    send_to_each(std::span<const NodeId>(&to, 1), msg);
  }
  /// Sends `msg` sealed to each of `peers` but this replica (send_sealed).
  template <typename Msg>
  void send_to_each(std::span<const NodeId> peers, const Msg& msg) {
    send_sealed(network_, keys_, id_, peers, msg, config_.compute_macs);
  }

  /// Decodes an opened body as `Msg`; a body that does not decode as its
  /// claimed type is accounted as rejected and yields nothing.
  template <typename Msg>
  [[nodiscard]] std::optional<Msg> decode_or_reject(BytesView body) {
    auto msg = serde::decode<Msg>(body);
    if (!msg) {
      network_.note_rejected(Msg::kType);
      return std::nullopt;
    }
    return std::move(msg.value());
  }

  /// Schedules `fn` guarded by this replica's lifetime token: if the object
  /// is destroyed before the event fires (restart_node rebuilds a node from
  /// disk), the callback is dropped instead of dereferencing freed memory.
  /// Every protocol timer in this class and its subclasses must use this
  /// rather than scheduling a bare `[this]` lambda.
  void schedule_protected(Duration delay, std::function<void()> fn);

  /// Invokes the persist callback with the current chain, if one is set
  /// (exposed so subclasses can persist on their own durability points,
  /// e.g. dBFT's per-block finality).
  void persist_now();

  [[nodiscard]] TimePoint now() const { return network_.simulator().now(); }
  [[nodiscard]] net::Network& network() { return network_; }
  /// The deployment's telemetry sink (metrics always-on, tracing opt-in);
  /// the network's default is the process-wide disabled instance.
  [[nodiscard]] obs::Telemetry& telemetry() { return network_.telemetry(); }
  [[nodiscard]] const crypto::KeyRegistry& keys() const { return keys_; }
  [[nodiscard]] const PbftConfig& config() const { return config_; }
  [[nodiscard]] ledger::Mempool& mempool() { return mempool_; }
  [[nodiscard]] bool in_view_change() const { return in_view_change_; }
  /// Between start() and stop(): protocol timers re-arm only while set.
  [[nodiscard]] bool started() const { return started_; }
  /// Injected Byzantine behaviour, visible to subclasses so the G-PBFT
  /// layer can drive geo-plane attacks (SybilGeoReports) from its timers.
  [[nodiscard]] FaultMode fault_mode() const { return fault_mode_; }

  /// Enqueues a request locally (also used by the G-PBFT layer when it
  /// generates configuration transactions).
  void accept_request(ledger::Transaction tx);

  /// Fast-forwards the chain with validated blocks (state transfer for an
  /// endorser joining mid-chain at an era switch). Stops at the first
  /// invalid block and reports it.
  [[nodiscard]] Result<void> adopt_chain_suffix(const std::vector<ledger::Block>& blocks);

  /// Asks `peer` for the blocks above this chain's tip (at most one request
  /// per request_timeout / 4); the response is adopted as chain sync.
  void request_sync_from(NodeId peer);

 private:
  // One consensus instance (one block height).
  struct Instance {
    explicit Instance(const std::vector<NodeId>& roster)
        : prepare_votes(roster), commit_votes(roster) {}

    ViewId view{0};
    crypto::Hash256 digest;
    // Checked once where it enters (on_preprepare, propose_batch); execute
    // and the requeues read its digests. A CorruptProposals primary keeps
    // the block it built here, not the one whose root it broke.
    std::optional<ledger::CheckedBlock> block;
    bool preprepared{false};
    bool prepared{false};
    bool committed{false};
    bool executed{false};
    bool prepare_sent{false};
    bool commit_sent{false};

    // Phase timestamps (simulated clock) for telemetry: when this replica
    // accepted the pre-prepare, formed its prepare certificate, and formed
    // its commit certificate. Valid only while `preprepared` is set in the
    // current view (reset with the other per-view state).
    TimePoint preprepared_at{};
    TimePoint prepared_at{};
    TimePoint committed_at{};
    // Votes are keyed by digest and scoped to the current view (cleared at
    // view entry; messages from other views are stashed or dropped). A
    // certificate is therefore always "2f(+1) same-view same-digest votes",
    // the form PBFT's quorum-intersection safety argument requires. Votes
    // arriving before the PRE-PREPARE park under their digest.
    Quorum<crypto::Hash256> prepare_votes;
    Quorum<crypto::Hash256> commit_votes;

    // Durable P-set entry (Castro-Liskov §4.4): once an instance prepares,
    // the (view, digest, block) it prepared with must survive view changes
    // — every later VIEW-CHANGE message carries it, which is what makes a
    // committed value impossible to forget (quorum-intersection argument).
    // Vote sets above are per-view and reset on view entry; this is not.
    bool has_prepared{false};
    ViewId prepared_view{0};
    crypto::Hash256 prepared_digest;
    std::optional<ledger::CheckedBlock> prepared_block;
  };

  // Message handlers.
  void on_preprepare(NodeId from, PrePrepare msg);
  void on_prepare(NodeId from, const Prepare& msg);
  void on_commit(NodeId from, const Commit& msg);
  void on_checkpoint(NodeId from, const CheckpointMsg& msg);
  void on_view_change(NodeId from, ViewChangeMsg msg);
  void on_new_view(NodeId from, const NewViewMsg& msg);

  void try_prepare(SeqNum seq);
  void try_commit(SeqNum seq);
  void try_execute();
  void send_prepare(SeqNum seq, Instance& instance);
  void send_commit(SeqNum seq, Instance& instance);
  void maybe_checkpoint();

  void initiate_view_change();
  void enter_new_view(ViewId view, const std::vector<PrePrepare>& reproposals);
  /// Returns an abandoned instance's transactions that are not on chain to
  /// the mempool (dedup prevents double-commit).
  void requeue(const ledger::CheckedBlock& block);
  [[nodiscard]] ViewChangeMsg build_view_change(ViewId new_view) const;

  // Chain sync (see SyncRequest in messages.hpp).
  void maybe_request_sync();
  void send_sync_request(NodeId peer);
  void on_sync_request(const SyncRequest& msg);
  void on_sync_response(const SyncResponse& msg);
  void resync_tick();

  void arm_tick();
  void on_tick();

  /// Schedules the batch-close deadline for the currently accumulating
  /// batch (batch_close_size > 1 only). At most one live timer per batch
  /// epoch; stale timers no-op via the epoch check.
  void arm_batch_timer();
  /// Closes any accumulating batch without proposing it (view changes and
  /// era switches hand the buffered requests to the next primary).
  void reset_batch_state();

  /// The instance at `seq`, created empty on first use.
  Instance& instance_at(SeqNum seq) { return log_.try_emplace(seq, committee_).first->second; }
  [[nodiscard]] bool seq_in_window(SeqNum seq) const;
  /// Opens the envelope; the returned view borrows from the envelope's
  /// payload, valid within handle().
  [[nodiscard]] Result<BytesView> open_or_drop(const net::Envelope& envelope);

  NodeId id_;
  std::vector<NodeId> committee_;
  PbftConfig config_;
  net::Network& network_;
  const crypto::KeyRegistry& keys_;

  ledger::Chain chain_;
  ledger::State state_;
  ledger::Mempool mempool_;

  ViewId view_{0};
  bool halted_{false};
  bool started_{false};

  // Height at which the current committee was installed (0 = genesis
  // roster). Consensus wire messages carry no era tag, so a peer's
  // advertised execution height is the staleness proxy: view-change votes
  // executed below this height were built under a previous roster and must
  // not steer the reconfigured committee's view numbering.
  Height reconfigured_at_height_{0};

  std::map<SeqNum, Instance> log_;
  SeqNum stable_seq_{0};

  // Checkpoint votes, keyed by (seq, chain digest).
  Quorum<std::pair<SeqNum, crypto::Hash256>> checkpoint_votes_{committee_};

  // View change state. view_change_votes_ admits each VIEW-CHANGE, and
  // view_changes_ keeps it by sender, the order a NEW-VIEW forwards them in.
  bool in_view_change_{false};
  ViewId pending_view_{0};
  TimePoint view_change_started_{};
  Quorum<ViewId> view_change_votes_{committee_};
  std::map<ViewId, std::map<NodeId, ViewChangeMsg>> view_changes_;

  // Request timeout tracking: tx digest -> first seen.
  FlatMap<crypto::Hash256, TimePoint> pending_since_;

  // Per-client reply cache (see client_table.hpp); rebuilt by execution,
  // including restore/sync adoption, so a restarted replica serves the same
  // cached replies it did before the crash.
  ClientTable client_table_;

  // Batch accumulation (batch_close_size > 1): when the open batch's first
  // request queued (nullopt = no batch open), and an epoch counter bumped
  // at every close/abandon so in-flight close timers can detect they are
  // stale. batch_timer_epoch_ records the epoch a timer is armed for —
  // at most one live timer per epoch (the simulator cannot cancel events).
  std::optional<TimePoint> batch_opened_at_;
  std::uint64_t batch_epoch_{0};
  std::uint64_t batch_timer_epoch_{~std::uint64_t{0}};

  // Out-of-order buffering: a new primary's PRE-PREPARE can overtake its
  // NEW-VIEW on a jittery network; messages for a future view (or arriving
  // mid-view-change) are stashed and replayed when the view settles. Each
  // keeps its sealed sender, which is who a replayed vote counts for: a
  // body's own replica field is whatever its sender wrote there.
  static constexpr std::size_t kMaxStashed = 256;
  std::vector<std::pair<NodeId, PrePrepare>> stashed_preprepares_;
  std::vector<std::pair<NodeId, Prepare>> stashed_prepares_;
  std::vector<std::pair<NodeId, Commit>> stashed_commits_;

  /// Largest number of blocks served per SyncResponse; a full response is
  /// the signal that more blocks remain and the requester should chain a
  /// follow-up request.
  static constexpr Height kMaxSyncBlocks = 64;

  /// When the last sync request was sent; nullopt until the first one (so a
  /// fresh replica is never rate-limited by a sentinel "long ago" value).
  std::optional<TimePoint> last_sync_request_;

  /// Bounded post-restart catch-up attempts remaining (see begin_resync).
  static constexpr std::uint32_t kResyncAttempts = 5;
  std::uint32_t resync_attempts_left_{0};

  FaultMode fault_mode_{FaultMode::None};
  ExecutedCallback executed_cb_;
  PersistCallback persist_cb_;

  /// Lifetime token for scheduled timers: the simulator cannot cancel
  /// events, so every timer lambda holds a weak_ptr to this and becomes a
  /// no-op once the replica is destroyed (crash–restart rebuilds objects).
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace gpbft::pbft
