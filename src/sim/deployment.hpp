// Uniform deployment layer: every consensus protocol behind one interface.
//
// A Deployment owns a whole simulated system — simulator, network, key
// registry, placement, protocol nodes and client devices — and exposes the
// uniform surface the harness drives: start / run_for / run_until_committed
// / committee / stop / stats, plus workload scheduling, Byzantine fault
// toggles and invariant-monitor attachment. The common run/stop plumbing
// lives here exactly once; subclasses contribute only protocol wiring.
//
// The three BFT stacks share one node lifecycle. The base owns their nodes
// as pbft::Replica objects and starts, stops, faults, watches and restarts
// them; each BFT cluster supplies only make_node, the one place it builds
// its node type. A restart reboots the node's network slot, builds a fresh
// node, restores it from its simulated disk, attaches persistence, records
// the restart, starts it and kicks off resync — restore before attach, so a
// replay never writes back. PoW miners are not replicas: PowCluster keeps
// them itself but reuses the same reboot, disk-image, persist and
// restart-bookkeeping helpers, and every stack's save runs through the one
// persist path (profiled as `storage.persist`).
//
// Four deployments exist, one per protocol the paper evaluates (§V):
//
//   PbftCluster  — the baseline: every node is a PBFT replica, the
//                  committee is the whole network (Fig. 3a/5a);
//   GpbftCluster — endorser-capable fixed devices (initial committee +
//                  candidates) with the control plane the harness owns:
//                  AreaRegistry placement and roster fan-out after era
//                  switches (zero simulated-wire cost; see DESIGN.md);
//   DbftCluster  — NEO-style dBFT: every node a delegate-capable member,
//                  blocks paced at a fixed interval, speaker rotation;
//   PowCluster   — simulated Poisson miners with heaviest-chain fork
//                  choice; transactions confirm at a configured depth.
//
// Every deployment is built from one declarative ScenarioSpec, which it keeps
// (spec()). make_deployment() picks the cluster the spec's protocol names;
// callers that need a concrete cluster's API construct it from the spec
// directly (std::make_unique<GpbftCluster>(spec)), and a spec naming another
// protocol aborts the construction.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "dbft/delegate.hpp"
#include "gpbft/endorser.hpp"
#include "pbft/client.hpp"
#include "pbft/replica.hpp"
#include "pow/miner.hpp"
#include "sim/metrics.hpp"
#include "sim/placement.hpp"
#include "sim/scenario.hpp"
#include "sim/storage.hpp"

namespace gpbft::sim {

class InvariantMonitor;
class WorkloadPlane;

/// Node-id layout shared by all deployments: protocol nodes are 1..N,
/// clients 10001..; id 0 is the system/null node.
inline constexpr std::uint64_t kClientIdBase = 10'000;

class Deployment {
 public:
  using SubmitHook = std::function<void(const ledger::Transaction&)>;

  /// Clears the Logger's sim-time prefix: a harness that outlives its
  /// deployment must not stamp later wall-clock log lines with the dead
  /// simulation's final timestamp.
  virtual ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Starts protocol nodes, then client devices.
  void start();
  /// Stops protocol timers so the event queue can drain.
  void stop();

  /// Advances simulated time by `d` (processing all events due in it).
  void run_for(Duration d);

  /// Runs until the workload is done (every client committed `per_client`
  /// transactions) or the deadline passes; returns true when done.
  bool run_until_committed(std::uint64_t per_client, TimePoint deadline);

  /// The description this deployment was built from.
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  /// The current consensus committee (all nodes for PBFT/PoW).
  [[nodiscard]] virtual std::vector<NodeId> committee() const = 0;
  [[nodiscard]] virtual std::size_t committee_size() const { return committee().size(); }
  /// Nodes chaos campaigns may fault (the genesis committee by default:
  /// promoted committees are only ever larger, so a budget computed from
  /// these stays conservative).
  [[nodiscard]] virtual std::vector<NodeId> fault_targets() const { return committee(); }

  /// Schedules the workload. PerClient mode drives one constant-frequency
  /// stream per concrete client; Plane mode builds a WorkloadPlane
  /// multiplexing `workload.devices` virtual devices over those clients.
  /// `recorder` (optional) collects commit latencies; `on_submit`
  /// (optional) fires per submitted transaction — chaos runs wire it to
  /// InvariantMonitor::expect_submission. Either way the streams are gated
  /// on a liveness token that stop() revokes, so pending submission events
  /// cannot outlive the deployment's active phase.
  virtual void schedule_workload(const WorkloadSpec& workload, LatencyRecorder* recorder,
                                 SubmitHook on_submit = {});

  /// The workload plane, when schedule_workload ran in Plane mode.
  [[nodiscard]] WorkloadPlane* plane() { return plane_.get(); }
  [[nodiscard]] const WorkloadPlane* plane() const { return plane_.get(); }

  /// Hex hash of node 0's chain tip (PoW: miner 0's best tip) — the
  /// byte-level fingerprint the REJECT-SAFE tamper campaign compares
  /// across a clean/tampered pair at the same seed.
  [[nodiscard]] virtual std::string tip_hex() const;

  /// Transactions committed (PoW: confirmed at depth) across all clients.
  [[nodiscard]] virtual std::uint64_t committed_count() const;
  [[nodiscard]] virtual std::uint64_t era_switches() const { return 0; }
  [[nodiscard]] virtual double hashes_computed() const { return 0.0; }

  /// Toggles a node's Byzantine behaviour (no-op for PoW: miners model no
  /// equivocation faults; chaos profiles keep byzantine_chance at zero).
  void set_fault_mode(NodeId id, pbft::FaultMode mode);

  /// The most recently seated committee member — the victim a TargetedCrash
  /// chaos event resolves at fire time. G-PBFT tracks promotions across era
  /// switches; protocols without elections fall back to the last fault
  /// target, so the event degrades to a plain crash of a fixed node.
  [[nodiscard]] virtual NodeId latest_elected() const {
    const std::vector<NodeId> targets = fault_targets();
    return targets.empty() ? NodeId{0} : targets.back();
  }

  /// Displaces (`true`) or restores (`false`) a node's physical position at
  /// the mobility-stability boundary (OscillateMobility chaos events).
  /// No-op for protocols without geo reporting.
  virtual void displace_node(NodeId id, bool displaced) {
    (void)id;
    (void)displaced;
  }

  /// Crash–restart with durability: destroys the protocol object (its
  /// scheduled timers die with its lifetime token), rebuilds it from
  /// whatever its simulated disk yields — genesis when the image is absent
  /// or corrupt — re-attaches it and kicks off active resync. Returns false
  /// when `id` is not a protocol node of this deployment. Leaves the disk
  /// itself untouched.
  virtual bool restart_node(NodeId id);
  /// Injects a disk fault into `id`'s simulated disk (see DiskFaultKind).
  void inject_disk_fault(NodeId id, DiskFaultKind kind);
  [[nodiscard]] StorageFabric& storage() { return storage_; }

  /// The deployment-owned telemetry sink. Metrics are on by default; call
  /// `telemetry().set_trace_enabled(true)` before start() to also record
  /// causal traces, and finalize_telemetry() before exporting.
  [[nodiscard]] obs::Telemetry& telemetry() { return telemetry_; }
  /// Writes the network's `net.*` counter rows (Network::publish_metrics),
  /// copies end-of-run gauges (simulator queue high-water mark, events
  /// processed, committee size) into the registry and labels trace rows.
  void finalize_telemetry();

  /// Attaches the invariant monitor to every node's execution path;
  /// restarts re-watch rebuilt nodes and report to
  /// InvariantMonitor::note_restart. PoW has no online execution hook; it
  /// is checked at finish_invariants.
  void watch(InvariantMonitor& monitor);
  /// End-of-run checks: PoW replays every miner's confirmed prefix through
  /// the monitor (agreement/validity/duplicates over confirmed blocks).
  virtual void finish_invariants(InvariantMonitor& monitor);

  [[nodiscard]] net::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const net::NetStats& stats() const { return network_.stats(); }
  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] const crypto::KeyRegistry& keys() const { return keys_; }
  [[nodiscard]] pbft::Client& client(std::size_t i) { return *clients_.at(i); }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

 protected:
  /// Builds the shared plumbing from `spec`; aborts unless spec.protocol is
  /// `protocol`, the one the concrete cluster implements.
  Deployment(const ScenarioSpec& spec, ProtocolKind protocol);

  virtual void start_nodes();
  virtual void stop_nodes();
  /// Whether the workload finished; default: every client committed.
  [[nodiscard]] virtual bool workload_done(std::uint64_t per_client) const;

  /// Builds BFT node `id` without persistence — the one place a BFT
  /// cluster constructs its node type, shared by build_nodes and
  /// restart_node. PoW keeps its miners apart and never calls it.
  [[nodiscard]] virtual std::unique_ptr<pbft::Replica> make_node(NodeId id) {
    (void)id;
    return nullptr;
  }
  /// restart_node's step between the disk restore and attach_persistence;
  /// it sees the restored protocol state. Default: nothing.
  virtual void on_restored(pbft::Replica& node) { (void)node; }
  /// Constructor step: builds nodes 1..count with make_node and attaches
  /// their persistence.
  void build_nodes(std::size_t count);

  /// A reboot: clears `id`'s crash flag and backlog and detaches the dead
  /// node from the network (the caller destroys it).
  void reboot(NodeId id);
  /// `id`'s current disk image; empty when the node never saved or a torn
  /// write left nothing.
  [[nodiscard]] BytesView disk_image(NodeId id);
  /// The one persist path of every stack, under the `storage.persist`
  /// profiler site: saves to `id`'s disk the image of a chain of `blocks`
  /// blocks ending at `tip`. When that matches the last image built, the
  /// disk shares its buffer; otherwise `serialize` builds a new one.
  void persist(NodeId id, const crypto::Hash256& tip, std::size_t blocks,
               const std::function<Bytes()>& serialize);
  /// Wires a replica's persist callback to its node's simulated disk.
  void attach_persistence(pbft::Replica& replica);
  /// Replays `replica`'s disk image through restore_chain. An absent or
  /// corrupt image (torn write, bit rot) leaves the replica at genesis —
  /// the fallback path chain sync then closes.
  void restore_from_disk(pbft::Replica& replica);
  /// Restart telemetry and monitor bookkeeping shared by every stack.
  void note_restarted(NodeId id, Height height);

  const ScenarioSpec spec_;
  obs::Telemetry telemetry_;  // before network_: the network holds a pointer
  net::Simulator sim_;
  net::Network network_;
  crypto::KeyRegistry keys_;
  Placement placement_;
  StorageFabric storage_;
  // persist's one-entry cache: the last image built and the chain it holds
  // (no chain has zero blocks, so the first save always builds).
  net::Payload image_;
  crypto::Hash256 image_tip_;
  std::size_t image_blocks_{0};
  InvariantMonitor* monitor_{nullptr};
  std::vector<std::unique_ptr<pbft::Client>> clients_;
  /// The BFT stacks' protocol nodes, ids 1..N in order (empty for PoW).
  std::vector<std::unique_ptr<pbft::Replica>> nodes_;
  /// Liveness token handed to workload streams; stop() resets it first so
  /// already-queued submission events become no-ops.
  std::shared_ptr<const bool> workload_alive_;
  std::unique_ptr<WorkloadPlane> plane_;
};

// --- PBFT baseline ------------------------------------------------------------

/// spec.nodes replicas and spec.clients clients.
class PbftCluster : public Deployment {
 public:
  explicit PbftCluster(const ScenarioSpec& spec);

  [[nodiscard]] std::vector<NodeId> committee() const override;

  [[nodiscard]] pbft::Replica& replica(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t replica_count() const { return nodes_.size(); }

 protected:
  [[nodiscard]] std::unique_ptr<pbft::Replica> make_node(NodeId id) override;

 private:
  ledger::Block genesis_;            // reconstruction material for restarts
  std::vector<NodeId> member_ids_;
};

// --- G-PBFT deployment ----------------------------------------------------------

/// Endorser-capable fixed devices (ids 1..spec.nodes). The first
/// min(committee.initial, nodes) form the genesis roster; the rest start as
/// candidates and may be promoted by era switches.
class GpbftCluster : public Deployment {
 public:
  explicit GpbftCluster(const ScenarioSpec& spec);

  [[nodiscard]] std::vector<NodeId> committee() const override { return roster_; }
  [[nodiscard]] std::size_t committee_size() const override { return roster_.size(); }
  /// Fault victims are the genesis committee (see fault_targets docs).
  [[nodiscard]] std::vector<NodeId> fault_targets() const override;
  [[nodiscard]] std::uint64_t era_switches() const override { return total_era_switches(); }
  /// The member most recently promoted into the roster (the genesis lead
  /// until the first era switch seats someone new).
  [[nodiscard]] NodeId latest_elected() const override;
  /// Moves the endorser ~33 m north — a different CSC cell inside the same
  /// deployment area — keeping reported location and the area oracle in
  /// sync, so reports stay truthful but the stationarity timer resets.
  void displace_node(NodeId id, bool displaced) override;

  [[nodiscard]] ::gpbft::gpbft::Endorser& endorser(std::size_t i) {
    return static_cast<::gpbft::gpbft::Endorser&>(*nodes_.at(i));
  }
  [[nodiscard]] const ::gpbft::gpbft::Endorser& endorser(std::size_t i) const {
    return static_cast<const ::gpbft::gpbft::Endorser&>(*nodes_.at(i));
  }
  [[nodiscard]] std::size_t endorser_count() const { return nodes_.size(); }
  [[nodiscard]] ::gpbft::gpbft::AreaRegistry& area() { return area_; }
  [[nodiscard]] const std::vector<NodeId>& roster() const { return roster_; }
  [[nodiscard]] EraId era() const { return era_; }
  [[nodiscard]] std::uint64_t total_era_switches() const;

 protected:
  /// Seats the device at its home spot (dropping any mobility
  /// displacement) and wires the roster callback.
  [[nodiscard]] std::unique_ptr<pbft::Replica> make_node(NodeId id) override;
  /// Aims a restored candidate's reports at the live committee.
  void on_restored(pbft::Replica& node) override;

 private:
  void on_roster(EraId era, const std::vector<NodeId>& roster);

  ::gpbft::gpbft::AreaRegistry area_;
  ::gpbft::gpbft::GpbftConfig protocol_;  // resolved config, for restarts
  ledger::Block genesis_;
  std::vector<NodeId> roster_;
  EraId era_{0};
  NodeId latest_elected_{};  // last id newly seated by an era switch
  std::unordered_map<NodeId, geo::GeoPoint> displaced_origin_;  // pre-displacement spots
};

// --- dBFT deployment ------------------------------------------------------------

/// Delegate-capable members (ids 1..spec.nodes); the first
/// min(nodes, dbft.delegates) form the genesis delegate roster.
class DbftCluster : public Deployment {
 public:
  explicit DbftCluster(const ScenarioSpec& spec);

  [[nodiscard]] std::vector<NodeId> committee() const override { return roster_; }

  [[nodiscard]] dbft::Delegate& delegate(std::size_t i) {
    return static_cast<dbft::Delegate&>(*nodes_.at(i));
  }

 protected:
  [[nodiscard]] std::unique_ptr<pbft::Replica> make_node(NodeId id) override;

 private:
  dbft::StakeRegistry stakes_;  // no voting unless a test registers stake
  dbft::DbftConfig dbft_config_;  // reconstruction material for restarts
  ledger::Block genesis_;
  std::vector<NodeId> all_members_;
  std::vector<NodeId> roster_;
};

// --- PoW deployment -------------------------------------------------------------

/// spec.nodes miners. The spec.clients proposing devices gossip their
/// submissions to every miner; PoW has no reply path, so proposers are
/// simulated drivers, not pbft::Clients. A block template holds at most
/// engine.batch_size transactions (block contents, not the batch.* request
/// pipeline), and the difficulty is nodes * pow.hashrate *
/// pow.block_interval: one block per interval network-wide.
class PowCluster : public Deployment {
 public:
  explicit PowCluster(const ScenarioSpec& spec);

  [[nodiscard]] std::vector<NodeId> committee() const override;
  void schedule_workload(const WorkloadSpec& workload, LatencyRecorder* recorder,
                         SubmitHook on_submit = {}) override;
  /// Distinct transactions confirmed at depth on any miner's best chain
  /// (first confirmation records the latency).
  [[nodiscard]] std::uint64_t committed_count() const override { return confirmed_.size(); }
  [[nodiscard]] double hashes_computed() const override;
  bool restart_node(NodeId id) override;
  /// Replays every miner's confirmed prefix (blocks at least
  /// `confirmations` below that miner's tip) through the monitor.
  void finish_invariants(InvariantMonitor& monitor) override;

  [[nodiscard]] pow::Miner& miner(std::size_t i) { return *miners_.at(i); }
  [[nodiscard]] std::string tip_hex() const override {
    return miners_.at(0)->chain().tip_hash().hex();
  }

 protected:
  void start_nodes() override;
  void stop_nodes() override;
  [[nodiscard]] bool workload_done(std::uint64_t per_client) const override;

 private:
  void wire_miner(pow::Miner& miner);

  pow::MinerConfig miner_config_;  // reconstruction material for restarts
  pow::PowBlock genesis_;
  std::vector<NodeId> miner_ids_;
  std::vector<std::unique_ptr<pow::Miner>> miners_;
  std::set<crypto::Hash256> confirmed_;  // union over miners, first wins
  LatencyRecorder* recorder_{nullptr};
};

// --- factory ---------------------------------------------------------------------

/// Builds the cluster for the protocol the spec names.
[[nodiscard]] std::unique_ptr<Deployment> make_deployment(const ScenarioSpec& spec);

}  // namespace gpbft::sim
