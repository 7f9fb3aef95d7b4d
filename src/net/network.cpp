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
  // The histogram lives in the previous telemetry's registry, and the site
  // names came from its message namer.
  tel_recv_stall_ = nullptr;
  deliver_sites_.clear();
}

void Network::reset_stats() {
  stats_.reset();
  for (auto& [id, peer] : peers_) peer.traffic = NodeTraffic{};
}

NodeTraffic Network::traffic_of(NodeId id) const {
  const auto it = peers_.find(id);
  return it == peers_.end() ? NodeTraffic{} : it->second.traffic;
}

TypeTraffic& Network::type_traffic(MessageType type) {
  // Message types are small consecutive constants (pbft::msg_type, PoW and
  // dBFT gossip kinds), so a dense vector indexed by type suffices.
  if (type >= stats_.by_type.size()) stats_.by_type.resize(static_cast<std::size_t>(type) + 1);
  return stats_.by_type[type];
}

obs::Profiler::SiteId Network::deliver_site(MessageType type) {
  if (type >= deliver_sites_.size()) {
    deliver_sites_.resize(static_cast<std::size_t>(type) + 1, obs::Profiler::kNoSite);
  }
  obs::Profiler::SiteId& site = deliver_sites_[type];
  if (site == obs::Profiler::kNoSite) {
    site = obs::Profiler::instance().register_site("net.deliver." +
                                                   telemetry_->message_name(type));
  }
  return site;
}

void Network::publish_metrics() {
  if (!telemetry_->enabled()) return;
  obs::Registry& reg = telemetry_->metrics();
  const auto set = [&reg](const std::string& name, std::uint64_t count) {
    if (count > 0) reg.counter(name).value = count;
  };
  set("net.msgs_dropped", stats_.dropped_messages);
  set("net.msgs_duplicated", stats_.duplicated_messages);
  set("net.msgs_tampered", stats_.tampered_messages);
  set("net.msgs_rejected", stats_.rejected_messages);
  for (std::size_t type = 0; type < stats_.by_type.size(); ++type) {
    const TypeTraffic& traffic = stats_.by_type[type];
    const std::string name = telemetry_->message_name(static_cast<std::uint32_t>(type));
    set("net.msgs." + name, traffic.messages);
    set("net.bytes." + name, traffic.bytes);
    set("net.msgs_rejected." + name, traffic.rejected);
  }
  for (const auto& [id, peer] : peers_) {
    const NodeTraffic& traffic = peer.traffic;
    if (traffic.messages_sent == 0 && traffic.messages_received == 0) continue;
    reg.counter("net.msgs_sent", id).value = traffic.messages_sent;
    reg.counter("net.bytes_sent", id).value = traffic.bytes_sent;
    reg.counter("net.msgs_received", id).value = traffic.messages_received;
    reg.counter("net.bytes_received", id).value = traffic.bytes_received;
  }
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

void Network::note_rejected(MessageType type) {
  stats_.rejected_messages += 1;
  type_traffic(type).rejected += 1;
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

  stats_.tampered_messages += 1;
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
  TypeTraffic& by_type = type_traffic(envelope.type);
  by_type.messages += 1;
  by_type.bytes += size;
  source.traffic.messages_sent += 1;
  source.traffic.bytes_sent += size;

  // Fault decisions are drawn before (and regardless of) the partition
  // check, all from the dedicated fault stream: toggling any fault knob
  // never changes which draws the main stream sees, so faulty and clean
  // runs remain comparable seed-for-seed.
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

  if (partitioned_apart(source, envelope.to) || dropped) {
    stats_.dropped_messages += 1;
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
    stats_.dropped_messages += 1;
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
  Peer* const peer = live_peer(envelope.to);
  if (peer == nullptr) {
    // The receiver died (or was torn down) before delivery: the message
    // is lost with it.
    stats_.dropped_messages += 1;
    return;
  }
  peer->traffic.messages_received += 1;
  peer->traffic.bytes_received += size;
  // The whole handler invocation is accounted to its type's deliver site.
  obs::ScopedProbe deliver_probe(deliver_site(envelope.type));
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
