// Simulated network with per-node processing queues and fault injection.
//
// Timing model (calibrated in DESIGN.md §4):
//
//   delivery = link propagation (base + jitter)
//            + transmission (wire_size / bandwidth)
//   handling = max(arrival, receiver busy-until)
//            + processing (1/s + wire_size * per-byte cost)
//
// The receiver-side queue is the load-bearing part: the paper's analysis
// (§IV-B) models a node as processing s messages per second, and the
// superlinear PBFT latency of Fig. 3a/4 emerges from exactly this queueing
// once n nodes broadcast O(n) messages each. Byte counters feed the
// communication-cost experiments (Figs. 5-6, Table III).
//
// Each message costs two simulator events: its arrival, which folds it into
// the receiver's busy-until, and its done event, which hands it to the
// receiver's handler. The envelope waits between send and handler in one
// slot of a delivery slab, and both events name that slot, so the message
// plane schedules no callable and, once the slab is warm, allocates nothing
// per message.
//
// Fault injection covers the behaviours the protocols must tolerate: drops,
// crashes, partitions, and per-link degradation (loss, added latency,
// duplication, reordering) plus per-node "brownouts" that slow a node's
// processing rate. Byzantine *content* faults live in the protocol layers
// (a faulty replica sends bad payloads); the network only models
// lossy/partitioned transport.
//
// All fault decisions draw from a dedicated RNG stream (forked off the
// simulator seed), never from the simulator's main stream: toggling a
// partition or a link rule must not perturb jitter, workload or protocol
// randomness, so faulty and clean runs stay comparable seed-for-seed.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/simulator.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace gpbft::net {

/// A node attached to the network. Implementations are the PBFT replica,
/// the G-PBFT endorser, and client/IoT-device models.
class INetNode {
 public:
  virtual ~INetNode() = default;
  [[nodiscard]] virtual NodeId id() const = 0;
  virtual void handle(const Envelope& envelope) = 0;
};

struct NetConfig {
  /// One-way propagation delay per link.
  Duration base_latency = Duration::millis(2);
  /// Uniform jitter added on top of base latency: U[0, jitter].
  Duration jitter = Duration::millis(1);
  /// Link bandwidth in bytes per simulated second (transmission delay).
  double bandwidth_bytes_per_sec = 12.5e6;  // 100 Mbit/s
  /// Receiver processing rate: messages handled per second (the paper's s).
  /// This is the fleet default; per-node overrides model the heterogeneity
  /// the paper builds on — "fixed IoT devices always have more
  /// computational power than other IoT devices such as mobile phones and
  /// sensors" (§III-B). See Network::set_processing_rate.
  double processing_rate_msgs_per_sec = 160.0;
  /// Additional per-byte processing cost (models MAC checks over payloads).
  double processing_secs_per_byte = 0.0;
  /// Probability a message is silently dropped.
  double drop_rate = 0.0;

  friend bool operator==(const NetConfig&, const NetConfig&) = default;
};

/// Per-link fault rule (the chaos engine's richer link faults). Applied to
/// traffic from one node to another on top of the global drop rate.
struct LinkFault {
  /// Extra per-link drop probability (on top of NetConfig::drop_rate).
  double loss{0.0};
  /// Added one-way propagation delay (degraded route).
  Duration extra_latency{};
  /// Probability the message is delivered twice (retransmit ghosts).
  double duplicate{0.0};
  /// Uniform extra delay U[0, window] per message; a nonzero window lets
  /// later messages overtake earlier ones (reordering).
  Duration reorder_window{};
};

/// Wire-level Byzantine adversary: a rule that corrupts envelopes in
/// flight. Every random decision draws from the network's dedicated tamper
/// stream (forked off the simulator seed, like the fault stream), so
/// installing or removing a rule never perturbs jitter, link faults,
/// workload or protocol randomness — a run with tampering off is
/// byte-identical to one where the feature does not exist.
///
/// Two adversary strengths:
///   - Replace: a man-in-the-middle. The mutant *replaces* the original
///     (the genuine bytes are lost), so the attack doubles as message loss
///     and exercises timeout/recovery paths. Asserted crash-free and
///     invariant-clean, not tip-identical.
///   - Inject: a man-on-the-side. The original is delivered untouched and
///     a mutated ghost copy is injected alongside it. With MACs on, every
///     ghost must be rejected at the wire layer, which makes the whole
///     attack byte-invisible — the REJECT-SAFE invariant (docs/protocol.md
///     §12) demands chain tips identical to the tamper-free run.
struct TamperRule {
  enum class Mode { Replace, Inject };
  Mode mode{Mode::Replace};
  /// Per-message probability that the adversary acts.
  double chance{0.0};

  /// Relative weights of the mutation families (zero disables a family).
  double bitflip{1.0};
  double truncate{1.0};
  double extend{1.0};
  double retype{1.0};    // type confusion: same bytes, different MessageType
  double oversize{1.0};  // forged huge declared lengths (allocation attack)
  double replay{1.0};    // re-deliver an old genuine envelope verbatim

  /// Bit flips per mutated payload: U[1, max_flips].
  std::size_t max_flips{8};
  /// Garbage bytes appended by the extend family: U[1, max_extend].
  std::size_t max_extend{64};
  /// Replayed envelopes are re-delivered after U[0, replay_delay_max].
  Duration replay_delay_max{Duration::millis(500)};
  /// Sliding window of genuine envelopes the replay family can pick from.
  std::size_t replay_history{64};
  /// Message types the adversary never touches (neither mutates nor
  /// records for replay). Used where the model has no end-to-end
  /// authentication to detect forgery — e.g. PoW client transactions.
  std::vector<MessageType> spare_types{};
};

struct NodeTraffic {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_received{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t bytes_received{0};
};

struct NetStats {
  std::uint64_t total_messages{0};
  std::uint64_t total_bytes{0};
  std::uint64_t dropped_messages{0};
  std::uint64_t duplicated_messages{0};
  /// Envelopes the tamper rule mutated (Replace) or forged (Inject).
  std::uint64_t tampered_messages{0};
  /// Genuine envelopes the tamper rule re-delivered out of its history.
  std::uint64_t replayed_messages{0};
  /// Envelopes a receiver refused at the wire-decode layer (bad seal,
  /// undecodable body, unknown type). Mirrors dropped_messages: NetStats
  /// and the `net.msgs_rejected` telemetry always move together.
  std::uint64_t rejected_messages{0};
  std::unordered_map<NodeId, NodeTraffic> per_node;
  std::map<MessageType, std::uint64_t> bytes_by_type;
  std::map<MessageType, std::uint64_t> rejected_by_type;

  [[nodiscard]] double total_kilobytes() const { return static_cast<double>(total_bytes) / 1024.0; }
  void reset() { *this = NetStats{}; }
};

class Network final : private EventTarget {
 public:
  Network(Simulator& sim, NetConfig config);

  /// Registers a node. The pointer must outlive the network (nodes are owned
  /// by the cluster/harness layer). The node starts idle: its busy-until
  /// horizon is reset to now, so a restart (detach + attach) can never
  /// resurrect a pre-crash processing backlog.
  void attach(INetNode* node);
  /// Unregisters a node and drops its processing-rate override and
  /// brownout: a node id re-attached later — an era switch, a restart —
  /// must not inherit the old node's degradation. Its crash flag and
  /// partition group stay (see Peer).
  void detach(NodeId id);

  /// Sends an envelope; accounts traffic and schedules delivery + handling.
  /// Sending to an unknown or crashed destination still costs the sender
  /// bandwidth (the bytes go on the wire) but is not delivered.
  void send(Envelope envelope);

  /// Broadcast helper: one unicast per destination (PBFT's all-to-all).
  /// Every envelope refcounts the same payload buffer — no per-destination
  /// copy.
  void broadcast(NodeId from, const std::vector<NodeId>& destinations, MessageType type,
                 Payload payload);

  /// Overrides one node's processing rate (heterogeneous fleets: powerful
  /// fixed endorsers next to weak sensors). Pass <= 0 to restore default.
  void set_processing_rate(NodeId id, double msgs_per_sec);
  [[nodiscard]] double processing_rate_of(NodeId id) const;

  // --- fault injection -----------------------------------------------------
  void set_drop_rate(double p) { config_.drop_rate = p; }
  void crash(NodeId id) { peers_[id].crashed = true; }
  /// Models a reboot: the node comes back empty-handed, so any processing
  /// backlog accumulated before the crash is discarded (busy-until reset).
  void recover(NodeId id);
  [[nodiscard]] bool is_crashed(NodeId id) const;

  /// Splits the network: messages between nodes in different groups drop.
  /// Nodes not mentioned in any group stay in group 0.
  void partition(const std::vector<std::vector<NodeId>>& groups);
  void heal_partition();

  /// Adds a one-way rule dropping all traffic from `from` to `to`.
  void block_link(NodeId from, NodeId to);
  void unblock_link(NodeId from, NodeId to);

  /// Installs (replaces) a one-way per-link fault rule.
  void set_link_fault(NodeId from, NodeId to, const LinkFault& fault);
  void clear_link_fault(NodeId from, NodeId to);
  /// Rule on a link, or nullptr when the link is clean.
  [[nodiscard]] const LinkFault* link_fault(NodeId from, NodeId to) const;

  /// Installs (replaces) the wire-tamper rule. One global rule at a time —
  /// the adversary owns the whole transport, matching the chaos engine's
  /// one-window-at-a-time scheduling.
  void set_tamper(const TamperRule& rule);
  void clear_tamper();
  /// Active rule, or nullptr when the wire is clean.
  [[nodiscard]] const TamperRule* tamper() const { return tamper_ ? &*tamper_ : nullptr; }

  /// Brownout: divides the node's processing rate by `factor` (>= 1) until
  /// cleared — a time-varying degradation (thermal throttling, contention).
  void set_brownout(NodeId id, double factor);
  void clear_brownout(NodeId id) { set_brownout(id, 1.0); }

  // --- accounting ----------------------------------------------------------
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  void reset_stats();

  /// One wire-layer rejection, wherever it happens (seal/open failure,
  /// undecodable body, unknown message type, malformed fixed-size payload).
  /// Called by receive paths in all four stacks; keyed by the envelope's
  /// claimed type. NetStats and the `net.msgs_rejected` telemetry counters
  /// (total + per-type) always move together — the reject-side mirror of
  /// note_dropped's drop accounting.
  void note_rejected(MessageType type);

  /// Telemetry sink shared by every layer that holds a Network reference
  /// (protocol nodes reach the deployment's registry through here without
  /// any constructor changes). Defaults to the process-wide disabled
  /// instance, so bare-Network tests pay one branch per message and
  /// nothing else. The telemetry must outlive the network.
  void set_telemetry(obs::Telemetry& telemetry);
  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const NetConfig& config() const { return config_; }

 private:
  struct Peer;  // one node id's record, below
  /// The record of `id` if a node is attached there and not crashed.
  [[nodiscard]] Peer* live_peer(NodeId id);
  [[nodiscard]] double processing_rate(const Peer& peer) const;
  [[nodiscard]] bool partitioned_apart(const Peer& sender, NodeId to) const;
  /// Parks the envelope in the delivery slab and schedules its arrival.
  void schedule_delivery(TimePoint arrival, Envelope envelope, std::size_t size);
  /// The slab's event: slot's arrival, or its done event once arrived.
  void fire(std::uint32_t slot) override;
  /// Arrival instant: crash/detach check, serial-queue fold into the
  /// receiver's busy-until, done-event scheduling for the same slot.
  void on_arrival(std::uint32_t slot);
  /// The one receive path: re-checks the receiver's liveness, accounts the
  /// receive, then invokes the handler under its `net.deliver.<TYPE>`
  /// probe. A done event calls it at the end of processing. An Inject-mode
  /// ghost is parked already arrived, so its done event fires at its
  /// arrival instant without folding into the serial processing queue —
  /// the injection happens at the network edge, and the receiver's
  /// wire-integrity check discards forgeries at line rate. This keeps the
  /// genuine plane causally untouched, which is what makes the REJECT-SAFE
  /// invariant (tampered tips byte-identical to clean tips with MACs on)
  /// exact rather than probabilistic.
  void deliver(const Envelope& envelope, std::size_t size);
  /// One drop, wherever it happens (send-time fault, receiver down at
  /// arrival or at processing-done): NetStats and the `net.msgs_dropped`
  /// counter always move together.
  void note_dropped();

  /// Applies the active tamper rule to an in-flight envelope. Replace mode
  /// mutates `envelope`/`size` in place (the mutant continues down the
  /// normal delivery path); Inject mode leaves them untouched and schedules
  /// the mutant as a separate ghost delivery. Draws only from the tamper
  /// stream. Called only when a rule with chance > 0 is installed and the
  /// type is not spared.
  void apply_tamper(Envelope& envelope, std::size_t& size);
  /// Builds the mutated envelope for the drawn family (never replay).
  [[nodiscard]] Envelope mutate_envelope(const Envelope& original, const TamperRule& rule,
                                         int family);
  void note_tampered();

  /// Cached handles so the per-message hot path resolves each accounting
  /// slot once — the NetStats map entries and the telemetry registry rows
  /// (pointers into std::map / std::unordered_map values are stable).
  /// Telemetry rows resolve lazily and only while telemetry is enabled, so
  /// a disabled run never creates registry entries. Both caches are cleared
  /// by reset_stats() and set_telemetry().
  struct TypeHandles {
    std::uint64_t* stat_bytes{nullptr};     // into stats_.bytes_by_type
    std::uint64_t* stat_rejected{nullptr};  // into stats_.rejected_by_type
    obs::Counter* msgs{nullptr};
    obs::Counter* bytes{nullptr};
    obs::Counter* rejected{nullptr};
    /// Profiler site "net.deliver.<TYPE>" — per-event-type wall-clock
    /// attribution, resolved once per type like the counters above.
    obs::Profiler::SiteId deliver_site{obs::Profiler::kNoSite};
  };
  struct NodeHandles {
    NodeTraffic* traffic{nullptr};  // into stats_.per_node
    obs::Counter* msgs_sent{nullptr};
    obs::Counter* bytes_sent{nullptr};
    obs::Counter* msgs_received{nullptr};
    obs::Counter* bytes_received{nullptr};
  };
  [[nodiscard]] TypeHandles& type_handles(MessageType type);
  [[nodiscard]] NodeHandles& node_handles(Peer& peer, NodeId id);
  void resolve_node_telemetry(NodeHandles& handles, NodeId id);

  /// One message from send to its handler. Its arrival and done events
  /// fire in order, and the done event delivers exactly this message. That
  /// picks what a per-receiver FIFO would: a receiver's done events are
  /// scheduled in arrival order, and ties fire in scheduling order. It also
  /// stays right where a FIFO would not, when a recover()/attach() reset of
  /// busy-until lets a post-reboot message finish before pre-crash
  /// stragglers.
  struct Delivery {
    Envelope envelope;
    std::size_t size{0};
    bool arrived{false};  // true: the slot's next event is its done event
  };

  /// Everything the network knows about one node id. A record is made on
  /// first use (attach, send, crash, a rate, brownout or partition call)
  /// and never erased, so a reference held across a handler call stays
  /// valid. Lifecycle:
  ///   - attach sets `node` and resets `busy_until` to now;
  ///   - detach clears `node`, `rate_override` and `brownout`; the crash
  ///     flag, partition group and handles stay (queued done events still
  ///     fire and drop), so a node restarted while crashed or cut off stays
  ///     so;
  ///   - recover clears `crashed` and resets `busy_until`;
  ///   - partition assigns every record's group, heal_partition zeroes it;
  ///   - reset_stats and set_telemetry clear `handles`.
  struct Peer {
    INetNode* node{nullptr};  // null while detached
    TimePoint busy_until;     // the serial processor's horizon
    double rate_override{0.0};  // msgs/s; <= 0 means the fleet default
    double brownout{1.0};       // rate divisor; 1 means none
    bool crashed{false};
    int partition_group{0};
    NodeHandles handles;
  };

  Simulator& sim_;
  NetConfig config_;
  Rng fault_rng_;   // dedicated stream for every fault decision
  Rng tamper_rng_;  // dedicated stream for every tamper decision
  std::unordered_map<NodeId, Peer> peers_;
  Slab<Delivery> deliveries_;  // in-flight messages
  bool partitioned_{false};
  std::set<std::pair<std::uint64_t, std::uint64_t>> blocked_links_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, LinkFault> link_faults_;
  std::optional<TamperRule> tamper_;
  /// Genuine envelopes seen while a rule with a replay family was active;
  /// the replay mutation re-delivers one of these verbatim. Bounded by
  /// TamperRule::replay_history; payloads are refcount bumps, not copies.
  std::deque<Envelope> replay_log_;
  NetStats stats_;

  obs::Telemetry* telemetry_{&obs::Telemetry::noop()};
  obs::Counter* tel_dropped_{nullptr};
  obs::Counter* tel_duplicated_{nullptr};
  obs::Counter* tel_tampered_{nullptr};
  obs::Counter* tel_rejected_{nullptr};
  obs::Histogram* tel_recv_stall_{nullptr};
  std::vector<TypeHandles> type_handles_;  // dense, indexed by MessageType
};

}  // namespace gpbft::net
