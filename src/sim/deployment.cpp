#include "sim/deployment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/logging.hpp"
#include "ledger/store.hpp"
#include "obs/profiler.hpp"
#include "pbft/messages.hpp"
#include "pow/pow_store.hpp"
#include "sim/invariants.hpp"
#include "sim/workload.hpp"
#include "sim/workload_plane.hpp"

namespace gpbft::sim {

namespace {

/// Same correlation rule as the PBFT client's request lifeline: the first
/// 8 bytes of the transaction digest, so PoW submit/confirm async spans pair
/// up with the ones other stacks emit for identical transactions.
std::uint64_t request_trace_id(const crypto::Hash256& digest) {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) id = (id << 8) | digest.bytes[i];
  return id;
}

/// The replica configuration the PBFT, G-PBFT and dBFT engines share.
pbft::PbftConfig replica_config(const ScenarioSpec& spec) {
  pbft::PbftConfig config;
  config.max_batch_size = spec.engine.batch_size;
  config.checkpoint_interval = spec.engine.checkpoint_interval;
  config.compute_macs = spec.engine.compute_macs;
  config.request_timeout = spec.engine.request_timeout;
  config.view_change_timeout = spec.engine.view_change_timeout;
  config.batch_close_size = spec.batch.size;
  config.batch_close_timeout = spec.batch.timeout;
  return config;
}

}  // namespace

// --- Deployment base -----------------------------------------------------------------

Deployment::Deployment(const ScenarioSpec& spec, ProtocolKind protocol)
    : spec_(spec),
      sim_(spec.seed),
      network_(sim_, spec.net),
      keys_(spec.seed ^ 0x67e55044'10b1426full),
      placement_(spec.placement),
      // Disk-fault randomness gets its own stream, decorrelated from the
      // simulator, key and network-fault streams.
      storage_(spec.seed ^ 0x6469736b'5f666c74ull) {
  if (spec.protocol != protocol) {
    std::fprintf(stderr, "Deployment: a %s cluster cannot run a %s scenario\n",
                 protocol_name(protocol), protocol_name(spec.protocol));
    std::abort();
  }
  telemetry_.set_clock([this]() { return sim_.now(); });
  telemetry_.set_message_namer([](std::uint32_t type) -> std::string {
    switch (type) {
      case pow::kPowBlock: return "POW-BLOCK";
      case dbft::kPublishedBlock: return "PUBLISHED-BLOCK";
      case pow::kPowBlockRequest: return "POW-BLOCK-REQUEST";
      default: break;
    }
    const char* name = pbft::message_type_name(type);
    if (std::string_view(name) == "UNKNOWN") return "type-" + std::to_string(type);
    return name;
  });
  telemetry_.set_node_namer([](NodeId id) {
    if (id.value == 0) return std::string("deployment");
    if (id.value > kClientIdBase) {
      return "client-" + std::to_string(id.value - kClientIdBase);
    }
    return "node-" + std::to_string(id.value);
  });
  network_.set_telemetry(telemetry_);
}

Deployment::~Deployment() {
  // The last simulated event's timestamp must not leak onto log lines the
  // harness writes after the deployment is gone.
  Logger::instance().clear_sim_time();
}

void Deployment::inject_disk_fault(NodeId id, DiskFaultKind kind) {
  storage_.inject(id, kind);
  telemetry_.count("disk.faults_injected", id);
  telemetry_.instant("disk.fault", "chaos", id, {{"kind", disk_fault_name(kind)}});
}

void Deployment::finalize_telemetry() {
  if (!telemetry_.enabled()) return;
  obs::Registry& reg = telemetry_.metrics();
  reg.gauge("sim.end_seconds").set(sim_.now().to_seconds());
  reg.gauge("sim.events_processed").set(static_cast<double>(sim_.events_processed()));
  reg.gauge("sim.max_queue_depth").set(static_cast<double>(sim_.max_queue_depth()));
  const std::vector<NodeId> roster = committee();
  reg.gauge("net.committee_size").set(static_cast<double>(roster.size()));
  // Protocol-specific roll-ups reuse the uniform virtual accessors; zero
  // means "not applicable", so the series is only materialized when real.
  if (const double hashes = hashes_computed(); hashes > 0) {
    reg.gauge("pow.hashes_computed").set(hashes);
  }
  if (const std::uint64_t eras = era_switches(); eras > 0) {
    reg.gauge("gpbft.total_era_switches").set(static_cast<double>(eras));
  }
  if (telemetry_.trace_enabled()) {
    for (NodeId id : roster) telemetry_.name_node(id, telemetry_.node_name(id));
    for (const auto& client : clients_) {
      telemetry_.name_node(client->id(), telemetry_.node_name(client->id()));
    }
    // Candidates and other off-committee emitters get a row label too.
    for (const obs::TraceEvent& event : telemetry_.trace().events()) {
      telemetry_.name_node(NodeId{event.tid}, telemetry_.node_name(NodeId{event.tid}));
    }
  }
}

void Deployment::start_nodes() {
  for (auto& node : nodes_) node->start();
}

void Deployment::stop_nodes() {
  for (auto& node : nodes_) node->stop();
}

void Deployment::start() {
  start_nodes();
  for (auto& client : clients_) client->start();
}

void Deployment::stop() {
  // Revoke the workload liveness token before anything else: scheduled
  // submission events (drivers and the plane alike) check it and become
  // no-ops, so nothing feeds requests into the stopping cluster.
  workload_alive_.reset();
  stop_nodes();
  for (auto& client : clients_) client->stop();
}

void Deployment::run_for(Duration d) { sim_.run_until(sim_.now() + d); }

bool Deployment::run_until_committed(std::uint64_t per_client, TimePoint deadline) {
  const Duration chunk = Duration::seconds(1);
  while (sim_.now() < deadline) {
    if (workload_done(per_client)) return true;
    sim_.run_until(sim_.now() + chunk);
  }
  return workload_done(per_client);
}

bool Deployment::workload_done(std::uint64_t per_client) const {
  if (plane_ != nullptr) {
    // Open-loop plane: done once the generation window closed and every
    // submission committed (the plane never waits, so "per client" targets
    // do not apply).
    return plane_->generation_done() && committed_count() >= plane_->submitted();
  }
  return std::all_of(clients_.begin(), clients_.end(), [per_client](const auto& client) {
    return client->committed_count() >= per_client;
  });
}

void Deployment::schedule_workload(const WorkloadSpec& workload, LatencyRecorder* recorder,
                                   SubmitHook on_submit) {
  workload_alive_ = std::make_shared<const bool>(true);
  // Loss-free measurement runs disable retransmission so REQUEST traffic
  // matches the paper's testbed; chaos runs keep retries on.
  if (!workload.client_retries) {
    for (auto& client : clients_) client->set_retry_interval(Duration{0});
  }
  if (workload.mode == WorkloadMode::Plane) {
    std::vector<pbft::Client*> endpoints;
    std::vector<geo::GeoPoint> positions;
    endpoints.reserve(clients_.size());
    positions.reserve(clients_.size());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      endpoints.push_back(clients_[i].get());
      positions.push_back(placement_.position(i));
    }
    plane_ = std::make_unique<WorkloadPlane>(sim_, workload, std::move(endpoints),
                                             std::move(positions), telemetry_);
    plane_->start(recorder, std::move(on_submit), workload_alive_);
    return;
  }
  WorkloadConfig config;
  config.period = workload.period;
  config.payload_bytes = workload.payload_bytes;
  config.fee = workload.fee;
  config.start = workload.start;
  config.stagger = workload.stagger;
  config.count = workload.txs_per_client;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    sim::schedule_workload(sim_, *clients_[i], placement_.position(i), config, i, recorder,
                           on_submit, workload_alive_);
  }
}

std::uint64_t Deployment::committed_count() const {
  std::uint64_t committed = 0;
  for (const auto& client : clients_) committed += client->committed_count();
  return committed;
}

std::string Deployment::tip_hex() const { return nodes_.at(0)->chain().tip().hash().hex(); }

void Deployment::set_fault_mode(NodeId id, pbft::FaultMode mode) {
  for (auto& node : nodes_) {
    if (node->id() == id) node->set_fault_mode(mode);
  }
}

void Deployment::build_nodes(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    nodes_.push_back(make_node(NodeId{i + 1}));
    attach_persistence(*nodes_.back());
  }
}

bool Deployment::restart_node(NodeId id) {
  for (auto& slot : nodes_) {
    if (slot->id() != id) continue;
    reboot(id);
    slot.reset();  // scheduled timers die with the lifetime token

    std::unique_ptr<pbft::Replica> node = make_node(id);
    restore_from_disk(*node);  // replay happens before persistence and the monitor attach
    on_restored(*node);
    attach_persistence(*node);
    if (monitor_ != nullptr) monitor_->watch(*node);
    note_restarted(id, node->chain().height());
    node->start();
    node->begin_resync();
    slot = std::move(node);
    return true;
  }
  return false;
}

void Deployment::reboot(NodeId id) {
  network_.recover(id);  // a reboot clears the crash flag and the backlog
  network_.detach(id);
}

BytesView Deployment::disk_image(NodeId id) {
  if (!storage_.has(id)) return {};
  const Bytes& image = storage_.disk(id).image();
  return BytesView(image.data(), image.size());
}

void Deployment::persist(NodeId id, const crypto::Hash256& tip, std::size_t blocks,
                         const std::function<Bytes()>& serialize) {
  GPBFT_PROFILE_SCOPE("storage.persist");
  // Replicas reach each stable checkpoint one after another, so most saves
  // repeat the image another disk just saved. (tip hash, block count)
  // identifies that image: blocks are hash-linked back to genesis, each
  // header's Merkle root commits to its transaction digests, and every
  // chain here was validated, which rejects repeated digests — the one way
  // two bodies share a root. The disks then share the last image built;
  // any other tip serializes afresh and replaces it.
  if (blocks != image_blocks_ || tip != image_tip_) {
    image_ = serialize();
    image_tip_ = tip;
    image_blocks_ = blocks;
  }
  storage_.disk(id).save(image_);
}

void Deployment::attach_persistence(pbft::Replica& replica) {
  const NodeId id = replica.id();
  replica.set_persist_callback([this, id](const ledger::Chain& chain) {
    persist(id, chain.tip().hash(), chain.size(),
            [&chain]() { return ledger::serialize_chain(chain); });
  });
}

void Deployment::restore_from_disk(pbft::Replica& replica) {
  const NodeId id = replica.id();
  const BytesView image = disk_image(id);
  if (image.empty()) return;
  auto restored = ledger::deserialize_chain(image);
  if (!restored) {
    log_warn(id.str() + ": disk image rejected (" + restored.error() +
             "); restarting from genesis");
    return;
  }
  if (auto adopted = replica.restore_chain(restored.value()); !adopted) {
    log_warn(id.str() + ": restore stopped: " + adopted.error());
  }
}

void Deployment::note_restarted(NodeId id, Height height) {
  telemetry_.count("node.restarts", id);
  telemetry_.instant("restart", "chaos", id, {{"height", std::to_string(height)}});
  if (monitor_ != nullptr) monitor_->note_restart(id, height);
}

void Deployment::watch(InvariantMonitor& monitor) {
  monitor_ = &monitor;
  // The monitor's tallies and violation events join this deployment's
  // registry/trace, so exports carry the invariant verdicts too.
  monitor.set_telemetry(telemetry_);
  for (auto& node : nodes_) monitor.watch(*node);
}

void Deployment::finish_invariants(InvariantMonitor& monitor) { (void)monitor; }

// --- PbftCluster -----------------------------------------------------------------

PbftCluster::PbftCluster(const ScenarioSpec& spec) : Deployment(spec, ProtocolKind::Pbft) {
  // Genesis: the whole network is the committee (plain PBFT).
  ledger::GenesisConfig genesis_config;
  genesis_config.chain_seed = spec.seed;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    genesis_config.initial_endorsers.push_back(
        ledger::EndorserInfo{NodeId{i + 1}, placement_.position(i)});
  }
  genesis_config.policy.min_endorsers = spec.nodes;
  genesis_config.policy.max_endorsers = spec.nodes;
  genesis_ = ledger::make_genesis_block(genesis_config);

  for (std::size_t i = 0; i < spec.nodes; ++i) member_ids_.push_back(NodeId{i + 1});

  build_nodes(spec.nodes);
  for (std::size_t i = 0; i < spec.clients; ++i) {
    clients_.push_back(std::make_unique<pbft::Client>(NodeId{kClientIdBase + i + 1}, member_ids_,
                                                      network_, keys_,
                                                      spec.engine.compute_macs));
  }
}

std::unique_ptr<pbft::Replica> PbftCluster::make_node(NodeId id) {
  return std::make_unique<pbft::Replica>(id, member_ids_, genesis_, replica_config(spec_),
                                         network_, keys_);
}

std::vector<NodeId> PbftCluster::committee() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& replica : nodes_) out.push_back(replica->id());
  return out;
}

// --- GpbftCluster ------------------------------------------------------------------

GpbftCluster::GpbftCluster(const ScenarioSpec& spec) : Deployment(spec, ProtocolKind::Gpbft) {
  protocol_.pbft = replica_config(spec);
  protocol_.geo_reports_on_chain = spec.geo.reports_on_chain;
  ledger::GenesisConfig& genesis = protocol_.genesis;
  genesis.chain_seed = spec.seed;
  genesis.area_prefix = placement_.area_prefix();
  genesis.policy.blacklist = spec.committee.blacklist;
  genesis.policy.whitelist = spec.committee.whitelist;
  genesis.policy.min_endorsers = spec.committee.min;
  genesis.policy.max_endorsers = spec.committee.max;
  genesis.era_period = spec.committee.era_period;
  genesis.geo_report_period = spec.geo.report_period;
  genesis.geo_window = spec.geo.window;
  genesis.min_geo_reports = spec.geo.min_reports;
  genesis.promotion_threshold = spec.geo.promotion_threshold;
  genesis.reputation.enabled = spec.reputation.enabled;
  genesis.reputation.half_life = spec.reputation.half_life;
  genesis.reputation.quarantine_enter = spec.reputation.quarantine_enter;
  genesis.reputation.quarantine_exit = spec.reputation.quarantine_exit;
  genesis.sybil_rate_factor = spec.reputation.sybil_rate_factor;
  const std::size_t committee_size = std::min(spec.committee.initial, spec.nodes);
  for (std::size_t i = 0; i < committee_size; ++i) {
    genesis.initial_endorsers.push_back(
        ledger::EndorserInfo{NodeId{i + 1}, placement_.position(i)});
    roster_.push_back(NodeId{i + 1});
  }
  genesis_ = ledger::make_genesis_block(genesis);

  build_nodes(spec.nodes);

  for (std::size_t i = 0; i < spec.clients; ++i) {
    const NodeId id{kClientIdBase + i + 1};
    // Clients sit next to "their" fixed device (one per node position).
    area_.place(id, placement_.position(i % std::max<std::size_t>(spec.nodes, 1)));
    clients_.push_back(std::make_unique<pbft::Client>(id, roster_, network_, keys_,
                                                      spec.engine.compute_macs));
  }
}

std::unique_ptr<pbft::Replica> GpbftCluster::make_node(NodeId id) {
  // A (re)boot seats the device at its home spot; drop any outstanding
  // mobility displacement so the oracle matches what it will report.
  const geo::GeoPoint home = placement_.position(static_cast<std::size_t>(id.value - 1));
  displaced_origin_.erase(id);
  area_.place(id, home);
  auto endorser = std::make_unique<::gpbft::gpbft::Endorser>(id, home, protocol_, genesis_,
                                                             network_, keys_, &area_);
  // Replaying a disk image re-derives era, roster, production order and
  // enrolled cells from the persisted config blocks (on_executed path) —
  // on_roster's era guard drops the stale callbacks this fires.
  endorser->set_roster_callback(
      [this](EraId era, const std::vector<NodeId>& roster) { on_roster(era, roster); });
  return endorser;
}

void GpbftCluster::on_restored(pbft::Replica& node) {
  // A node whose image predates its own promotion (or that lost its disk)
  // comes back as a candidate; aim its reports at the live committee so
  // the next era can re-admit it.
  auto& endorser = static_cast<::gpbft::gpbft::Endorser&>(node);
  if (endorser.role() == ::gpbft::gpbft::Role::Candidate) endorser.set_known_committee(roster_);
}

void GpbftCluster::on_roster(EraId era, const std::vector<NodeId>& roster) {
  if (era <= era_) return;
  era_ = era;
  // Track the most recent promotion (highest newly seated id of the newest
  // era): TargetedCrash chaos events resolve their victim from this.
  for (NodeId member : roster) {
    if (std::find(roster_.begin(), roster_.end(), member) == roster_.end()) {
      latest_elected_ = member;
    }
  }
  roster_ = roster;
  for (auto& client : clients_) client->set_committee(roster);
  for (std::size_t i = 0; i < endorser_count(); ++i) {
    if (endorser(i).role() == ::gpbft::gpbft::Role::Candidate) {
      endorser(i).set_known_committee(roster);
    }
  }
}

std::vector<NodeId> GpbftCluster::fault_targets() const {
  const std::size_t committee_size = std::min(spec_.committee.initial, spec_.nodes);
  std::vector<NodeId> victims;
  for (std::size_t i = 0; i < committee_size; ++i) victims.push_back(NodeId{i + 1});
  return victims;
}

NodeId GpbftCluster::latest_elected() const {
  if (latest_elected_.value != 0) return latest_elected_;
  return Deployment::latest_elected();  // no promotion yet: a genesis member
}

void GpbftCluster::displace_node(NodeId id, bool displaced) {
  for (std::size_t i = 0; i < endorser_count(); ++i) {
    ::gpbft::gpbft::Endorser& endorser = this->endorser(i);
    if (endorser.id() != id) continue;
    if (displaced) {
      if (displaced_origin_.contains(id)) return;  // already away from home
      const geo::GeoPoint origin = endorser.location();
      displaced_origin_[id] = origin;
      geo::GeoPoint moved = origin;
      // ~33 m north: far beyond the 5 m truthfulness tolerance (a different
      // CSC cell, so the stationarity timer resets) yet still inside the
      // precision-5 deployment area. Oracle and reported location move
      // together — the attack is *mobility*, not lying about position.
      moved.latitude += 0.0003;
      area_.place(id, moved);
      endorser.set_location(moved);
    } else {
      const auto it = displaced_origin_.find(id);
      if (it == displaced_origin_.end()) return;
      area_.place(id, it->second);
      endorser.set_location(it->second);
      displaced_origin_.erase(it);
    }
    telemetry_.instant("mobility.oscillate", "chaos", id,
                       {{"displaced", displaced ? "true" : "false"}});
    return;
  }
}

std::uint64_t GpbftCluster::total_era_switches() const {
  std::uint64_t max_switches = 0;
  for (std::size_t i = 0; i < endorser_count(); ++i) {
    max_switches = std::max(max_switches, endorser(i).era_switches());
  }
  return max_switches;
}

// --- DbftCluster -------------------------------------------------------------------

DbftCluster::DbftCluster(const ScenarioSpec& spec) : Deployment(spec, ProtocolKind::Dbft) {
  const std::size_t delegate_count = std::min(spec.nodes, spec.dbft.delegates);
  ledger::GenesisConfig genesis_config;
  genesis_config.chain_seed = spec.seed;
  for (std::size_t i = 0; i < delegate_count; ++i) {
    genesis_config.initial_endorsers.push_back(
        ledger::EndorserInfo{NodeId{i + 1}, placement_.position(i)});
  }
  genesis_ = ledger::make_genesis_block(genesis_config);

  dbft_config_.pbft = replica_config(spec);
  dbft_config_.block_interval = spec.dbft.block_interval;
  dbft_config_.delegate_count = spec.dbft.delegates;
  dbft_config_.epoch_blocks = spec.dbft.epoch_blocks;

  for (std::size_t i = 0; i < spec.nodes; ++i) all_members_.push_back(NodeId{i + 1});
  roster_.assign(all_members_.begin(), all_members_.begin() + static_cast<long>(delegate_count));

  build_nodes(spec.nodes);
  for (std::size_t i = 0; i < spec.clients; ++i) {
    clients_.push_back(std::make_unique<pbft::Client>(NodeId{kClientIdBase + i + 1}, roster_,
                                                      network_, keys_, spec.engine.compute_macs));
  }
}

std::unique_ptr<pbft::Replica> DbftCluster::make_node(NodeId id) {
  return std::make_unique<dbft::Delegate>(id, genesis_, dbft_config_, stakes_, all_members_,
                                          network_, keys_);
}

// --- PowCluster --------------------------------------------------------------------

namespace {

/// Constant-frequency PoW proposer: submissions travel to every miner as
/// unsealed transaction gossip (there is no reply path; confirmation is
/// observed on the miners' chains).
struct PowDriver {
  net::Simulator* sim;
  net::Network* network;
  std::vector<std::unique_ptr<pow::Miner>>* miners;
  std::uint64_t client_index;
  geo::GeoPoint location;
  Duration period;
  std::uint64_t remaining;
  std::size_t payload_bytes;
  Amount fee;
  Deployment::SubmitHook on_submit;
  RequestId next_request{1};
  // Liveness gate (see Deployment::stop): the simulator cannot cancel
  // events, so a scheduled step otherwise keeps this driver alive — and
  // submitting — after the deployment stopped.
  std::weak_ptr<const bool> alive;

  void step(const std::shared_ptr<PowDriver>& self) {
    if (alive.expired()) return;  // deployment stopped
    if (remaining == 0) return;
    --remaining;
    const NodeId client_id{kClientIdBase + client_index + 1};
    const ledger::Transaction tx =
        make_workload_tx(client_id, next_request++, location, sim->now(), payload_bytes, fee,
                         client_index);
    if (on_submit) on_submit(tx);
    const crypto::Hash256 digest = tx.digest();
    network->telemetry().count("client.submitted", client_id);
    network->telemetry().async_begin(request_trace_id(digest), client_id, "request", "client",
                                     {{"tx", digest.short_hex()}});
    // One encoded buffer refcounted across the whole miner fan-out.
    const net::Payload encoded{tx.encode()};
    for (const auto& miner : *miners) {
      net::Envelope envelope;
      envelope.from = NodeId{kClientIdBase + client_index + 1};
      envelope.to = miner->id();
      envelope.type = pbft::msg_type::kClientRequest;
      envelope.payload = encoded;
      network->send(std::move(envelope));
    }
    if (remaining > 0) {
      sim->schedule(period, [self]() { self->step(self); });
    }
  }
};

}  // namespace

PowCluster::PowCluster(const ScenarioSpec& spec) : Deployment(spec, ProtocolKind::Pow) {
  miner_config_.hashrate = spec.pow.hashrate;
  // Network-wide solve rate = miners * hashrate / difficulty = 1/interval.
  miner_config_.difficulty = static_cast<std::uint64_t>(static_cast<double>(spec.nodes) *
                                                        spec.pow.hashrate *
                                                        spec.pow.block_interval.to_seconds());
  miner_config_.confirmation_depth = spec.pow.confirmations;
  miner_config_.max_batch_size = spec.engine.batch_size;
  genesis_ = pow::make_pow_genesis(miner_config_.difficulty);

  for (std::size_t i = 0; i < spec.nodes; ++i) miner_ids_.push_back(NodeId{i + 1});
  for (NodeId id : miner_ids_) {
    miners_.push_back(std::make_unique<pow::Miner>(id, miner_ids_, genesis_, miner_config_,
                                                   network_));
    wire_miner(*miners_.back());
  }
}

void PowCluster::wire_miner(pow::Miner& miner) {
  // Every miner observes confirmations; a transaction counts once, at its
  // first confirmation anywhere (robust when single miners are crashed or
  // partitioned while a watched transaction confirms).
  const NodeId observer = miner.id();
  miner.set_confirmed_callback([this, observer](const crypto::Hash256& digest, Duration latency) {
    if (confirmed_.insert(digest).second) {
      if (recorder_ != nullptr) recorder_->record(latency);
      telemetry_.observe("pow.confirm_seconds", latency.to_seconds());
      telemetry_.async_end(request_trace_id(digest), observer, "request", "client",
                           {{"depth", std::to_string(spec_.pow.confirmations)}});
    }
  });
  const NodeId id = miner.id();
  miner.set_persist_callback([this, id](const pow::PowChain& chain) {
    persist(id, chain.tip_hash(), chain.tip_height() + 1,
            [&chain]() { return pow::serialize_pow_chain(chain); });
  });
}

bool PowCluster::restart_node(NodeId id) {
  for (auto& slot : miners_) {
    if (slot->id() != id) continue;
    reboot(id);
    slot.reset();

    auto miner = std::make_unique<pow::Miner>(id, miner_ids_, genesis_, miner_config_, network_);
    if (const BytesView image = disk_image(id); !image.empty()) {
      if (auto blocks = pow::deserialize_pow_chain(image)) {
        miner->restore_chain(blocks.value());
      } else {
        log_warn(id.str() + ": pow disk image rejected (" + blocks.error() +
                 "); restarting from genesis");
      }
    }
    wire_miner(*miner);
    // No online execution hook for PoW; the restart is still recorded so
    // restart bookkeeping (and finish_invariants' replay) sees it.
    note_restarted(id, miner->chain().tip_height());
    // Gossip closes the gap: the next announced block triggers the orphan
    // parent-fetch walk back to whatever the restored image ends at.
    miner->start();
    slot = std::move(miner);
    return true;
  }
  return false;
}

void PowCluster::start_nodes() {
  for (auto& miner : miners_) miner->start();
}

void PowCluster::stop_nodes() {
  for (auto& miner : miners_) miner->stop();
}

std::vector<NodeId> PowCluster::committee() const {
  std::vector<NodeId> out;
  out.reserve(miners_.size());
  for (const auto& miner : miners_) out.push_back(miner->id());
  return out;
}

void PowCluster::schedule_workload(const WorkloadSpec& workload, LatencyRecorder* recorder,
                                   SubmitHook on_submit) {
  recorder_ = recorder;
  workload_alive_ = std::make_shared<const bool>(true);
  if (workload.mode == WorkloadMode::Plane) {
    // PoW proposers are gossip drivers, not pbft::Clients, so the plane's
    // endpoint multiplexing does not apply; fall back to per-client streams.
    log_warn("workload.mode=plane is not supported for PoW; using per-client drivers");
  }
  for (std::size_t i = 0; i < spec_.clients; ++i) {
    auto driver = std::make_shared<PowDriver>();
    driver->sim = &sim_;
    driver->network = &network_;
    driver->miners = &miners_;
    driver->client_index = i;
    driver->location = placement_.position(i);
    driver->period = workload.period;
    driver->remaining = workload.txs_per_client;
    driver->payload_bytes = workload.payload_bytes;
    driver->fee = workload.fee;
    driver->on_submit = on_submit;
    driver->alive = workload_alive_;
    sim_.schedule_at(workload.start + workload.stagger * static_cast<std::int64_t>(i),
                     [driver]() { driver->step(driver); });
  }
}

double PowCluster::hashes_computed() const {
  double hashes = 0;
  for (const auto& miner : miners_) hashes += miner->hashes_computed();
  return hashes;
}

bool PowCluster::workload_done(std::uint64_t per_client) const {
  return confirmed_.size() >= per_client * spec_.clients;
}

void PowCluster::finish_invariants(InvariantMonitor& monitor) {
  // Agreement for PoW is probabilistic, bounded by the confirmation depth:
  // honest miners must agree on every block that either of them considers
  // confirmed. Validity/duplicate checks run over the same prefix.
  for (const auto& miner : miners_) {
    const Height tip = miner->chain().tip_height();
    if (tip < spec_.pow.confirmations) continue;
    const Height limit = tip - spec_.pow.confirmations;
    for (const pow::PowBlock& block : miner->chain().best_chain()) {
      const Height height = block.header.height;
      if (height == 0 || height > limit) continue;  // genesis is shared by construction
      monitor.check_block_hash(miner->id(), height, block.hash());
      for (const ledger::Transaction& tx : block.transactions) {
        monitor.check_transaction(miner->id(), height, tx, tx.digest());
      }
    }
  }
}

// --- factory ---------------------------------------------------------------------

std::unique_ptr<Deployment> make_deployment(const ScenarioSpec& spec) {
  switch (spec.protocol) {
    case ProtocolKind::Pbft: return std::make_unique<PbftCluster>(spec);
    case ProtocolKind::Gpbft: return std::make_unique<GpbftCluster>(spec);
    case ProtocolKind::Dbft: return std::make_unique<DbftCluster>(spec);
    case ProtocolKind::Pow: return std::make_unique<PowCluster>(spec);
  }
  return nullptr;
}

}  // namespace gpbft::sim
