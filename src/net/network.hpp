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
// Every count is kept once: per run in NetStats, per node in that node's
// Peer record. The `net.*` metric rows are not bumped per message;
// publish_metrics() writes them from these counts at export.
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

  friend bool operator==(const NodeTraffic&, const NodeTraffic&) = default;
};

/// One message type's sends, their bytes, and its wire-layer rejections.
struct TypeTraffic {
  std::uint64_t messages{0};
  std::uint64_t bytes{0};
  std::uint64_t rejected{0};

  friend bool operator==(const TypeTraffic&, const TypeTraffic&) = default;
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
  /// undecodable body, unknown type).
  std::uint64_t rejected_messages{0};
  /// Indexed by MessageType, up to the largest type sent or rejected.
  std::vector<TypeTraffic> by_type;

  /// The counts of one type; zero for a type never sent or rejected.
  [[nodiscard]] TypeTraffic of_type(MessageType type) const {
    return type < by_type.size() ? by_type[type] : TypeTraffic{};
  }
  [[nodiscard]] double total_kilobytes() const { return static_cast<double>(total_bytes) / 1024.0; }
  void reset() { *this = NetStats{}; }

  friend bool operator==(const NetStats&, const NetStats&) = default;
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

  /// Installs (replaces) a one-way per-link fault rule. `loss = 1.0` blocks
  /// the link.
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
  /// One node's traffic; zero for a node that never sent or received.
  [[nodiscard]] NodeTraffic traffic_of(NodeId id) const;
  /// Zeroes NetStats and every node's traffic, and so also what
  /// publish_metrics() reports.
  void reset_stats();

  /// One wire-layer rejection, wherever it happens (seal/open failure,
  /// undecodable body, unknown message type, malformed fixed-size payload).
  /// Called by receive paths in all four stacks; keyed by the envelope's
  /// claimed type.
  void note_rejected(MessageType type);

  /// Telemetry sink shared by every layer that holds a Network reference
  /// (protocol nodes reach the deployment's registry through here without
  /// any constructor changes). Defaults to the process-wide disabled
  /// instance. The telemetry must outlive the network.
  void set_telemetry(obs::Telemetry& telemetry);
  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }

  /// Sets (never adds) the `net.*` counter rows to the counts:
  /// `net.{msgs,bytes}.<TYPE>`, each node's
  /// `net.{msgs,bytes}_{sent,received}`, `net.msgs_dropped`,
  /// `net.msgs_duplicated`, `net.msgs_tampered`, `net.msgs_rejected` and
  /// `net.msgs_rejected.<TYPE>`. A row is made only for a count above zero,
  /// and a node's four rows once it sent or received. Does nothing while
  /// metrics are off. Deployment::finalize_telemetry() calls it; a registry
  /// read before then holds no `net.*` counter.
  void publish_metrics();

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
  /// The NetStats entry of `type`, growing the per-type vector to reach it.
  [[nodiscard]] TypeTraffic& type_traffic(MessageType type);

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
  /// Profiler site "net.deliver.<TYPE>", registered on the type's first
  /// delivery: per-event-type wall-clock attribution.
  [[nodiscard]] obs::Profiler::SiteId deliver_site(MessageType type);

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
  ///     flag, partition group and traffic stay (queued done events still
  ///     fire and drop), so a node restarted while crashed or cut off stays
  ///     so;
  ///   - recover clears `crashed` and resets `busy_until`;
  ///   - partition assigns every record's group, heal_partition zeroes it;
  ///   - reset_stats zeroes `traffic`.
  struct Peer {
    INetNode* node{nullptr};  // null while detached
    TimePoint busy_until;     // the serial processor's horizon
    double rate_override{0.0};  // msgs/s; <= 0 means the fleet default
    double brownout{1.0};       // rate divisor; 1 means none
    bool crashed{false};
    int partition_group{0};
    NodeTraffic traffic;
  };

  Simulator& sim_;
  NetConfig config_;
  Rng fault_rng_;   // dedicated stream for every fault decision
  Rng tamper_rng_;  // dedicated stream for every tamper decision
  std::unordered_map<NodeId, Peer> peers_;
  Slab<Delivery> deliveries_;  // in-flight messages
  bool partitioned_{false};
  std::map<std::pair<std::uint64_t, std::uint64_t>, LinkFault> link_faults_;
  std::optional<TamperRule> tamper_;
  /// Genuine envelopes seen while a rule with a replay family was active;
  /// the replay mutation re-delivers one of these verbatim. Bounded by
  /// TamperRule::replay_history; payloads are refcount bumps, not copies.
  std::deque<Envelope> replay_log_;
  NetStats stats_;

  obs::Telemetry* telemetry_{&obs::Telemetry::noop()};
  /// `net.recv_stall_seconds`, resolved on first use while metrics are on;
  /// the one row the network observes per message, having no NetStats twin.
  obs::Histogram* tel_recv_stall_{nullptr};
  std::vector<obs::Profiler::SiteId> deliver_sites_;  // indexed by MessageType
};

}  // namespace gpbft::net
