#include "pbft/client.hpp"

#include "obs/profiler.hpp"

#include <algorithm>

namespace gpbft::pbft {

namespace {
/// Async-span correlation id for a request lifeline: the first 8 bytes of
/// the transaction digest (stable across nodes, unique per transaction).
std::uint64_t request_trace_id(const crypto::Hash256& digest) {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) id = (id << 8) | digest.bytes[i];
  return id;
}
}  // namespace

Client::Client(NodeId id, std::vector<NodeId> committee, net::Network& network,
               const crypto::KeyRegistry& keys, bool compute_macs)
    : id_(id),
      committee_(std::move(committee)),
      network_(network),
      keys_(keys),
      compute_macs_(compute_macs),
      // fork() is const: deriving the jitter stream does not perturb the
      // simulator's main stream, so adding a client leaves every other
      // random draw in the run unchanged.
      backoff_rng_(network.simulator().rng().fork(0xc11e47b0ull ^ id.value)) {
  std::sort(committee_.begin(), committee_.end());
}

void Client::set_committee(std::vector<NodeId> committee) {
  committee_ = std::move(committee);
  std::sort(committee_.begin(), committee_.end());
  // Replies from the old roster do not count toward the new one's quorum.
  for (auto& [digest, pending] : outstanding_) pending.votes.clear();
}

void Client::start() {
  if (started_) return;
  started_ = true;
  network_.attach(this);
  arm_retry_tick();
}

void Client::arm_retry_tick() {
  if (retry_interval_.ns <= 0) return;
  network_.simulator().schedule(retry_interval_ / 2, [this]() {
    if (!started_) return;
    on_retry_tick();
    arm_retry_tick();
  });
}

void Client::on_retry_tick() {
  const TimePoint now = network_.simulator().now();
  for (auto& [digest, pending] : outstanding_) {
    if (now >= pending.next_retry_at) {
      ++pending.attempts;
      pending.last_sent_at = now;
      pending.next_retry_at = now + backoff_delay(pending.attempts);
      network_.telemetry().count("client.retries", id_);
      network_.telemetry().instant("request.retry", "client", id_,
                                   {{"tx", digest.short_hex()},
                                    {"attempt", std::to_string(pending.attempts)}});
      send_request(pending.transaction);
    }
  }
}

Duration Client::backoff_delay(std::uint32_t attempt) {
  // Bounded exponential backoff: base, 2x, 4x, then capped at 8x the base,
  // each scaled by jitter U[0.75, 1.25) so clients desynchronize. The
  // jitter draw happens before the max_backoff_ clamp, so configuring a
  // cap never shifts the RNG stream — retry schedules stay deterministic
  // across runs and restarts whether or not a cap is set.
  static constexpr std::uint32_t kMaxShift = 3;
  const std::uint32_t shift = std::min(attempt, kMaxShift);
  const double jitter = backoff_rng_.uniform_real(0.75, 1.25);
  const double delay_ns =
      static_cast<double>(retry_interval_.ns) * static_cast<double>(1u << shift) * jitter;
  Duration delay{static_cast<std::int64_t>(delay_ns)};
  if (max_backoff_.ns > 0 && delay > max_backoff_) delay = max_backoff_;
  return delay;
}

void Client::send_request(const ledger::Transaction& tx) {
  send_sealed(network_, keys_, id_, committee_, ClientRequest{tx}, compute_macs_);
}

void Client::submit(const ledger::Transaction& tx) {
  const crypto::Hash256 digest = tx.digest();
  auto [it, inserted] = outstanding_.try_emplace(digest, committee_);
  if (inserted) {
    it->second.submitted_at = network_.simulator().now();
    it->second.transaction = tx;
    network_.telemetry().count("client.submitted", id_);
    network_.telemetry().async_begin(request_trace_id(digest), id_, "request", "client",
                                     {{"tx", digest.short_hex()}});
  }
  it->second.last_sent_at = network_.simulator().now();
  it->second.next_retry_at = it->second.last_sent_at + backoff_delay(it->second.attempts);
  send_request(tx);
}

void Client::handle(const net::Envelope& envelope) {
  GPBFT_PROFILE_SCOPE("pbft.client.handle");
  if (envelope.type != msg_type::kReply) return;  // not addressed to a client role
  auto body = open_view(keys_, envelope.from, id_, envelope.type, envelope.payload.view(),
                        compute_macs_);
  if (!body) {
    network_.note_rejected(envelope.type);
    return;
  }
  auto reply = Reply::decode(body.value());
  if (!reply) {
    network_.note_rejected(envelope.type);
    return;
  }

  const auto it = outstanding_.find(reply.value().tx_digest);
  if (it == outstanding_.end()) return;  // already committed or unknown

  Pending& pending = it->second;
  const Height height = reply.value().height;
  if (!pending.votes.add(envelope.from, height) ||
      pending.votes.count(height) < faults_tolerated(committee_.size()) + 1) {
    return;
  }
  const Duration latency = network_.simulator().now() - pending.submitted_at;
  ++committed_count_;
  const crypto::Hash256 digest = reply.value().tx_digest;
  outstanding_.erase(it);
  obs::Telemetry& tel = network_.telemetry();
  tel.count("client.committed", id_);
  tel.observe("client.request_seconds", latency.to_seconds(), id_);
  tel.async_end(request_trace_id(digest), id_, "request", "client",
                {{"height", std::to_string(height)}});
  if (commit_cb_) commit_cb_(digest, height, latency);
}

}  // namespace gpbft::pbft
