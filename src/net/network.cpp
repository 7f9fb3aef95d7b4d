#include "net/network.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace gpbft::net {

Network::Network(Simulator& sim, NetConfig config)
    : sim_(sim),
      config_(config),
      fault_rng_(sim.rng().fork(0x6661756c74ull /* "fault" */)),
      tamper_rng_(sim.rng().fork(0x74616d706572ull /* "tamper" */)) {}

void Network::set_telemetry(obs::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  // Cached handles point into the previous telemetry's registry.
  tel_dropped_ = nullptr;
  tel_duplicated_ = nullptr;
  tel_tampered_ = nullptr;
  tel_rejected_ = nullptr;
  tel_recv_stall_ = nullptr;
  type_handles_.clear();
  for (auto& [id, peer] : peers_) peer.handles = NodeHandles{};
}

void Network::reset_stats() {
  stats_.reset();
  // The stat pointers in the handle caches aimed into the maps the reset
  // just destroyed; the telemetry rows survive but re-resolve cheaply.
  type_handles_.clear();
  for (auto& [id, peer] : peers_) peer.handles = NodeHandles{};
}

Network::TypeHandles& Network::type_handles(MessageType type) {
  // Message types are small consecutive constants (pbft::msg_type, PoW and
  // dBFT gossip kinds), so a dense vector replaces the ordered-map lookup
  // the old per-send accounting paid twice per message.
  if (type >= type_handles_.size()) type_handles_.resize(static_cast<std::size_t>(type) + 1);
  TypeHandles& handles = type_handles_[type];
  if (handles.stat_bytes == nullptr) handles.stat_bytes = &stats_.bytes_by_type[type];
  return handles;
}

Network::NodeHandles& Network::node_handles(Peer& peer, NodeId id) {
  if (peer.handles.traffic == nullptr) peer.handles.traffic = &stats_.per_node[id];
  return peer.handles;
}

void Network::resolve_node_telemetry(NodeHandles& handles, NodeId id) {
  obs::Registry& reg = telemetry_->metrics();
  handles.msgs_sent = &reg.counter("net.msgs_sent", id);
  handles.bytes_sent = &reg.counter("net.bytes_sent", id);
  handles.msgs_received = &reg.counter("net.msgs_received", id);
  handles.bytes_received = &reg.counter("net.bytes_received", id);
}

void Network::attach(INetNode* node) {
  Peer& peer = peers_[node->id()];
  peer.node = node;
  // Unconditional: an id that was crashed/detached mid-queue and re-attached
  // (Deployment::restart_node) starts idle — reboot wipes the backlog.
  peer.busy_until = sim_.now();
}

void Network::detach(NodeId id) {
  const auto it = peers_.find(id);
  if (it == peers_.end()) return;
  it->second.node = nullptr;
  it->second.rate_override = 0.0;
  it->second.brownout = 1.0;
}

Network::Peer* Network::live_peer(NodeId id) {
  const auto it = peers_.find(id);
  if (it == peers_.end() || it->second.node == nullptr || it->second.crashed) return nullptr;
  return &it->second;
}

bool Network::is_crashed(NodeId id) const {
  const auto it = peers_.find(id);
  return it != peers_.end() && it->second.crashed;
}

bool Network::partitioned_apart(const Peer& sender, NodeId to) const {
  if (!partitioned_) return false;
  const auto it = peers_.find(to);
  return sender.partition_group != (it == peers_.end() ? 0 : it->second.partition_group);
}

void Network::note_dropped() {
  stats_.dropped_messages += 1;
  if (telemetry_->enabled()) {
    if (tel_dropped_ == nullptr) tel_dropped_ = &telemetry_->metrics().counter("net.msgs_dropped");
    tel_dropped_->add();
  }
}

void Network::note_rejected(MessageType type) {
  stats_.rejected_messages += 1;
  TypeHandles& by_type = type_handles(type);
  if (by_type.stat_rejected == nullptr) by_type.stat_rejected = &stats_.rejected_by_type[type];
  *by_type.stat_rejected += 1;
  if (telemetry_->enabled()) {
    if (tel_rejected_ == nullptr) {
      tel_rejected_ = &telemetry_->metrics().counter("net.msgs_rejected");
    }
    tel_rejected_->add();
    if (by_type.rejected == nullptr) {
      by_type.rejected = &telemetry_->metrics().counter("net.msgs_rejected." +
                                                        telemetry_->message_name(type));
    }
    by_type.rejected->add();
  }
}

void Network::note_tampered() {
  stats_.tampered_messages += 1;
  if (telemetry_->enabled()) {
    if (tel_tampered_ == nullptr) {
      tel_tampered_ = &telemetry_->metrics().counter("net.msgs_tampered");
    }
    tel_tampered_->add();
  }
}

void Network::set_tamper(const TamperRule& rule) {
  tamper_ = rule;
  // A new adversary starts with an empty capture window.
  replay_log_.clear();
}

void Network::clear_tamper() {
  tamper_.reset();
  replay_log_.clear();
}

Envelope Network::mutate_envelope(const Envelope& original, const TamperRule& rule, int family) {
  Envelope mutant = original;  // payload is a refcount bump until replaced
  switch (family) {
    case 0: {  // bit flips
      Bytes bytes(original.payload.begin(), original.payload.end());
      if (bytes.empty()) {
        // Nothing to flip in the body; corrupt the header type bit instead.
        mutant.type = static_cast<MessageType>(mutant.type ^ 0x1u);
        break;
      }
      const std::uint64_t max_flips = rule.max_flips > 0 ? rule.max_flips : 1;
      const std::uint64_t flips = tamper_rng_.uniform(1, max_flips);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t bit = tamper_rng_.uniform(0, bytes.size() * 8 - 1);
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      mutant.payload = std::move(bytes);
      break;
    }
    case 1: {  // truncation (always drops at least one byte)
      const std::size_t len = original.payload.size();
      const std::size_t keep =
          len == 0 ? 0 : static_cast<std::size_t>(tamper_rng_.uniform(0, len - 1));
      mutant.payload = Bytes(original.payload.begin(),
                             original.payload.begin() + static_cast<std::ptrdiff_t>(keep));
      break;
    }
    case 2: {  // extension: garbage appended past the genuine body
      Bytes bytes(original.payload.begin(), original.payload.end());
      const std::uint64_t max_extend = rule.max_extend > 0 ? rule.max_extend : 1;
      const std::uint64_t extra = tamper_rng_.uniform(1, max_extend);
      for (std::uint64_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(tamper_rng_.uniform(0, 255)));
      }
      mutant.payload = std::move(bytes);
      break;
    }
    case 3: {  // type confusion: genuine bytes under a different type
      // Sparing is bidirectional: a spared type is neither mutated nor
      // forged as a retype target (e.g. PoW campaigns spare client requests
      // because nothing end-to-end authenticates them). Bounded draw count
      // so a rule sparing every type cannot spin forever.
      MessageType retyped = original.type;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto candidate = static_cast<MessageType>(tamper_rng_.uniform(0, 31));
        if (candidate == original.type) continue;
        if (std::find(rule.spare_types.begin(), rule.spare_types.end(), candidate) !=
            rule.spare_types.end()) {
          continue;
        }
        retyped = candidate;
        break;
      }
      mutant.type = retyped;
      break;
    }
    default: {  // oversize: a declared length far beyond the actual buffer
      // A length-prefix of ~2^34 followed by a few real bytes: the attack
      // targets decoders that allocate from declared sizes before checking
      // what is actually on the wire (serde's remaining-bytes clamp).
      Bytes bytes{0xff, 0xff, 0xff, 0xff, 0x3f};
      const std::uint64_t tail = tamper_rng_.uniform(0, 32);
      for (std::uint64_t i = 0; i < tail; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(tamper_rng_.uniform(0, 255)));
      }
      mutant.payload = std::move(bytes);
      break;
    }
  }
  return mutant;
}

void Network::apply_tamper(Envelope& envelope, std::size_t& size) {
  const TamperRule& rule = *tamper_;
  // Record genuine traffic for the replay family before any mutation; the
  // log holds refcounted payloads, bounded by the rule's history window.
  if (rule.replay > 0.0 && rule.replay_history > 0) {
    replay_log_.push_back(envelope);
    while (replay_log_.size() > rule.replay_history) replay_log_.pop_front();
  }
  if (!tamper_rng_.chance(rule.chance)) return;

  const double weights[6] = {rule.bitflip, rule.truncate, rule.extend,
                             rule.retype,  rule.oversize, rule.replay};
  double total = 0.0;
  for (const double w : weights) total += std::max(0.0, w);
  if (total <= 0.0) return;
  double pick = tamper_rng_.uniform_real(0.0, total);
  int family = 0;
  while (family < 5) {
    pick -= std::max(0.0, weights[family]);
    if (pick < 0.0) break;
    ++family;
  }
  if (family == 5 && replay_log_.empty()) family = 0;  // no history yet

  note_tampered();
  const Duration ghost_jitter =
      config_.jitter.ns > 0
          ? Duration{static_cast<std::int64_t>(
                tamper_rng_.uniform(0, static_cast<std::uint64_t>(config_.jitter.ns)))}
          : Duration{0};

  if (family == 5) {
    // Replay a genuine old envelope verbatim, after an adversary-chosen
    // delay — stale views, closed instances, previous eras.
    stats_.replayed_messages += 1;
    const auto index =
        static_cast<std::size_t>(tamper_rng_.uniform(0, replay_log_.size() - 1));
    Envelope replayed = replay_log_[index];
    const Duration delay =
        rule.replay_delay_max.ns > 0
            ? Duration{static_cast<std::int64_t>(
                  tamper_rng_.uniform(0, static_cast<std::uint64_t>(rule.replay_delay_max.ns)))}
            : Duration{0};
    if (rule.mode == TamperRule::Mode::Replace) {
      envelope = std::move(replayed);
      size = envelope.wire_size();
      return;  // the replay takes the original's place on the wire
    }
    const std::size_t ghost_size = replayed.wire_size();
    const Duration transmission = Duration::from_seconds(static_cast<double>(ghost_size) /
                                                         config_.bandwidth_bytes_per_sec);
    const TimePoint arrival =
        sim_.now() + config_.base_latency + transmission + ghost_jitter + delay;
    sim_.schedule_at(arrival, *this,
                     deliveries_.park(Delivery{std::move(replayed), ghost_size, true}));
    return;
  }

  Envelope mutant = mutate_envelope(envelope, rule, family);
  if (rule.mode == TamperRule::Mode::Replace) {
    envelope = std::move(mutant);
    size = envelope.wire_size();  // the mutant's bytes ride the wire now
    return;
  }
  // Man-on-the-side: the genuine envelope continues untouched; the mutant
  // arrives as an extra edge injection with tamper-stream jitter only, so
  // the main stream sees exactly the draws of a clean run and the serial
  // receive queue carries exactly the clean run's load.
  const std::size_t ghost_size = mutant.wire_size();
  const Duration transmission =
      Duration::from_seconds(static_cast<double>(ghost_size) / config_.bandwidth_bytes_per_sec);
  const TimePoint arrival = sim_.now() + config_.base_latency + transmission + ghost_jitter;
  sim_.schedule_at(arrival, *this,
                   deliveries_.park(Delivery{std::move(mutant), ghost_size, true}));
}

void Network::send(Envelope envelope) {
  GPBFT_PROFILE_SCOPE("net.send");
  std::size_t size = envelope.wire_size();

  // Sender-side accounting: bytes leave the NIC regardless of what happens
  // to them downstream. A crashed sender sends nothing.
  Peer& source = peers_[envelope.from];
  if (source.crashed) return;

  stats_.total_messages += 1;
  stats_.total_bytes += size;
  TypeHandles& by_type = type_handles(envelope.type);
  *by_type.stat_bytes += size;
  NodeHandles& sender = node_handles(source, envelope.from);
  sender.traffic->messages_sent += 1;
  sender.traffic->bytes_sent += size;
  if (telemetry_->enabled()) {
    if (by_type.msgs == nullptr) {
      obs::Registry& reg = telemetry_->metrics();
      const std::string name = telemetry_->message_name(envelope.type);
      by_type.msgs = &reg.counter("net.msgs." + name);
      by_type.bytes = &reg.counter("net.bytes." + name);
    }
    by_type.msgs->add();
    by_type.bytes->add(size);
    if (sender.msgs_sent == nullptr) resolve_node_telemetry(sender, envelope.from);
    sender.msgs_sent->add();
    sender.bytes_sent->add(size);
  }

  // Fault decisions are drawn before (and regardless of) the blocked and
  // partition checks, all from the dedicated fault stream: toggling any
  // fault knob never changes which draws the main stream sees, so faulty
  // and clean runs remain comparable seed-for-seed.
  const LinkFault* fault = link_fault(envelope.from, envelope.to);
  const bool dropped = fault_rng_.chance(config_.drop_rate) ||
                       (fault != nullptr && fault_rng_.chance(fault->loss));
  const bool duplicated = fault != nullptr && fault_rng_.chance(fault->duplicate);
  const auto reorder_delay = [this, fault]() {
    return fault != nullptr && fault->reorder_window.ns > 0
               ? Duration{static_cast<std::int64_t>(fault_rng_.uniform(
                     0, static_cast<std::uint64_t>(fault->reorder_window.ns)))}
               : Duration{0};
  };
  const Duration first_reorder = reorder_delay();

  const bool blocked = blocked_links_.contains({envelope.from.value, envelope.to.value});
  if (blocked || partitioned_apart(source, envelope.to) || dropped) {
    note_dropped();
    return;
  }

  // Wire tampering happens after the transport faults (an adversary can
  // only touch bytes that made it onto the wire) and draws exclusively
  // from the tamper stream: with no rule installed this is one branch and
  // zero draws, so the feature is hash-neutral when off.
  if (tamper_.has_value() && tamper_->chance > 0.0 &&
      std::find(tamper_->spare_types.begin(), tamper_->spare_types.end(), envelope.type) ==
          tamper_->spare_types.end()) {
    apply_tamper(envelope, size);
  }

  const Duration jitter =
      config_.jitter.ns > 0
          ? Duration{static_cast<std::int64_t>(
                sim_.rng().uniform(0, static_cast<std::uint64_t>(config_.jitter.ns)))}
          : Duration{0};
  const Duration transmission =
      Duration::from_seconds(static_cast<double>(size) / config_.bandwidth_bytes_per_sec);
  const Duration extra = fault != nullptr ? fault->extra_latency : Duration{0};
  const TimePoint departure = sim_.now() + config_.base_latency + extra + transmission;

  if (duplicated) {
    stats_.duplicated_messages += 1;
    if (telemetry_->enabled()) {
      if (tel_duplicated_ == nullptr) {
        tel_duplicated_ = &telemetry_->metrics().counter("net.msgs_duplicated");
      }
      tel_duplicated_->add();
    }
    // The ghost copy takes its own path through the reorder window; its
    // jitter comes from the fault stream (it only exists because of the
    // fault rule). It shares the payload buffer with the original.
    const Duration ghost_jitter =
        config_.jitter.ns > 0
            ? Duration{static_cast<std::int64_t>(
                  fault_rng_.uniform(0, static_cast<std::uint64_t>(config_.jitter.ns)))}
            : Duration{0};
    schedule_delivery(departure + ghost_jitter + reorder_delay(), envelope, size);
  }
  schedule_delivery(departure + jitter + first_reorder, std::move(envelope), size);
}

void Network::schedule_delivery(TimePoint arrival, Envelope envelope, std::size_t size) {
  // The envelope is parked once, here; the arrival event and the done event
  // it chains to both name its slot. See docs/performance.md for why the
  // two-instant structure itself is load-bearing: arrival-time crash
  // sampling and the serial-queue fold must happen at the arrival instant
  // to keep seeded runs byte-identical.
  sim_.schedule_at(arrival, *this,
                   deliveries_.park(Delivery{std::move(envelope), size, false}));
}

void Network::fire(std::uint32_t slot) {
  if (!deliveries_[slot].arrived) {
    on_arrival(slot);
    return;
  }
  // Out of the slab before the handler runs: its sends park new messages,
  // which can grow the slab and take this slot.
  const Delivery delivery = deliveries_.take(slot);
  deliver(delivery.envelope, delivery.size);
}

void Network::on_arrival(std::uint32_t slot) {
  GPBFT_PROFILE_SCOPE("net.arrival");
  Delivery& delivery = deliveries_[slot];
  Peer* const receiver = live_peer(delivery.envelope.to);
  if (receiver == nullptr) {
    deliveries_.take(slot);  // the message is lost
    note_dropped();
    return;
  }

  // Receiver-side queueing: the node is a serial processor handling
  // messages at its rate (the paper's `s`, §IV-B; per-node overrides for
  // heterogeneous fleets, brownouts for time-varying degradation).
  const Duration processing =
      Duration::from_seconds(1.0 / processing_rate(*receiver) +
                             static_cast<double>(delivery.size) * config_.processing_secs_per_byte);
  const TimePoint start = std::max(sim_.now(), receiver->busy_until);
  const TimePoint done = start + processing;
  receiver->busy_until = done;

  // The receiver-stall histogram is the queueing-delay signal behind the
  // superlinear PBFT curves: time a message waits for the serial
  // processor beyond its arrival instant.
  if (telemetry_->enabled()) {
    if (tel_recv_stall_ == nullptr) {
      tel_recv_stall_ = &telemetry_->metrics().histogram("net.recv_stall_seconds");
    }
    tel_recv_stall_->observe((start - sim_.now()).to_seconds());
  }

  delivery.arrived = true;
  sim_.schedule_at(done, *this, slot);
}

void Network::deliver(const Envelope& envelope, std::size_t size) {
  const NodeId to = envelope.to;
  Peer* const peer = live_peer(to);
  if (peer == nullptr) {
    // The receiver died (or was torn down) before delivery: the message
    // is lost with it.
    note_dropped();
    return;
  }
  NodeHandles& receiver = node_handles(*peer, to);
  receiver.traffic->messages_received += 1;
  receiver.traffic->bytes_received += size;
  if (telemetry_->enabled()) {
    if (receiver.msgs_received == nullptr) resolve_node_telemetry(receiver, to);
    receiver.msgs_received->add();
    receiver.bytes_received->add(size);
  }
  // Per-event-type attribution: the whole handler invocation is accounted
  // to one "net.deliver.<TYPE>" site, resolved once per message type.
  TypeHandles& by_type = type_handles(envelope.type);
  if (by_type.deliver_site == obs::Profiler::kNoSite) {
    by_type.deliver_site = obs::Profiler::instance().register_site(
        "net.deliver." + telemetry_->message_name(envelope.type));
  }
  obs::ScopedProbe deliver_probe(by_type.deliver_site);
  peer->node->handle(envelope);
}

void Network::recover(NodeId id) {
  const auto it = peers_.find(id);
  if (it == peers_.end()) return;
  it->second.crashed = false;
  // Reboot semantics: whatever was queued on the node when it died is gone;
  // it must not resume with a pre-crash processing backlog.
  it->second.busy_until = sim_.now();
}

void Network::broadcast(NodeId from, const std::vector<NodeId>& destinations, MessageType type,
                        Payload payload) {
  for (NodeId to : destinations) {
    if (to == from) continue;
    send(Envelope{from, to, type, payload});
  }
}

void Network::set_processing_rate(NodeId id, double msgs_per_sec) {
  peers_[id].rate_override = msgs_per_sec;
}

double Network::processing_rate(const Peer& peer) const {
  const double rate =
      peer.rate_override > 0 ? peer.rate_override : config_.processing_rate_msgs_per_sec;
  return rate / peer.brownout;
}

double Network::processing_rate_of(NodeId id) const {
  const auto it = peers_.find(id);
  return it == peers_.end() ? config_.processing_rate_msgs_per_sec
                            : processing_rate(it->second);
}

void Network::set_brownout(NodeId id, double factor) {
  peers_[id].brownout = std::max(1.0, factor);
}

void Network::partition(const std::vector<std::vector<NodeId>>& groups) {
  heal_partition();
  int group_index = 0;
  for (const auto& group : groups) {
    for (NodeId id : group) peers_[id].partition_group = group_index;
    ++group_index;
  }
  partitioned_ = true;
}

void Network::heal_partition() {
  for (auto& [id, peer] : peers_) peer.partition_group = 0;
  partitioned_ = false;
}

void Network::block_link(NodeId from, NodeId to) {
  blocked_links_.insert({from.value, to.value});
}

void Network::unblock_link(NodeId from, NodeId to) {
  blocked_links_.erase({from.value, to.value});
}

void Network::set_link_fault(NodeId from, NodeId to, const LinkFault& fault) {
  link_faults_[{from.value, to.value}] = fault;
}

void Network::clear_link_fault(NodeId from, NodeId to) {
  link_faults_.erase({from.value, to.value});
}

const LinkFault* Network::link_fault(NodeId from, NodeId to) const {
  const auto it = link_faults_.find({from.value, to.value});
  return it == link_faults_.end() ? nullptr : &it->second;
}

}  // namespace gpbft::net
