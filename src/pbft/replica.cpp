#include "pbft/replica.hpp"

#include "obs/profiler.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace gpbft::pbft {

Replica::Replica(NodeId id, std::vector<NodeId> committee, ledger::Block genesis,
                 PbftConfig config, net::Network& network, const crypto::KeyRegistry& keys)
    : id_(id),
      committee_(std::move(committee)),
      config_(config),
      network_(network),
      keys_(keys),
      chain_(std::move(genesis)) {
  std::sort(committee_.begin(), committee_.end());
}

void Replica::start() {
  if (started_) return;
  started_ = true;
  network_.attach(this);
  arm_tick();
}

NodeId Replica::primary_of(ViewId view) const {
  return committee_[static_cast<std::size_t>(view % committee_.size())];
}

void Replica::send_to(NodeId to, net::MessageType type, BytesView body) {
  if (to == id_) return;
  net::Envelope envelope;
  envelope.from = id_;
  envelope.to = to;
  envelope.type = type;
  envelope.payload = seal(keys_, id_, to, type, body, config_.compute_macs);
  network_.send(std::move(envelope));
}

void Replica::broadcast_committee(net::MessageType type, BytesView body) {
  send_to_each(committee_, type, body);
}

void Replica::send_to_each(const std::vector<NodeId>& peers, net::MessageType type,
                           BytesView body) {
  if (config_.compute_macs) {
    // Per-receiver MAC tags: every sealed payload differs, seal per peer.
    for (NodeId peer : peers) send_to(peer, type, body);
    return;
  }
  // MACs off: the seal is receiver-independent (zero tag), so one sealed
  // buffer serves the whole fan-out — N refcount bumps instead of N seals
  // and N payload copies. This is the broadcast hot path of every sweep
  // (sim::default_options runs with compute_macs=false).
  const net::Payload payload{seal(keys_, id_, NodeId{0}, type, body, /*compute_macs=*/false)};
  for (NodeId peer : peers) {
    if (peer == id_) continue;
    network_.send(net::Envelope{id_, peer, type, payload});
  }
}

void Replica::schedule_protected(Duration delay, std::function<void()> fn) {
  network_.simulator().schedule(
      delay, [alive = std::weak_ptr<bool>(alive_), fn = std::move(fn)]() {
        if (alive.lock()) fn();
      });
}

void Replica::persist_now() {
  if (!persist_cb_) return;
  persist_cb_(chain_);
  telemetry().count("pbft.persists", id_);
}

Result<BytesView> Replica::open_or_drop(const net::Envelope& envelope) {
  auto body = open_view(keys_, envelope.from, id_, envelope.type, envelope.payload.view(),
                        config_.compute_macs);
  if (!body) {
    log_debug(id_.str() + ": rejecting message with bad seal: " + body.error());
    network_.note_rejected(envelope.type);
  }
  return body;
}

void Replica::handle(const net::Envelope& envelope) {
  GPBFT_PROFILE_SCOPE("pbft.replica.handle");
  if (fault_mode_ == FaultMode::Silent) return;

  const auto body = open_or_drop(envelope);
  if (!body) return;  // seal failure
  const BytesView view = body.value();

  // Wire-layer hardening: a body that opened but does not decode as its
  // claimed type is rejected, accounted, and otherwise ignored — reject,
  // don't crash (docs/protocol.md §12).
  const auto reject = [this, &envelope] { network_.note_rejected(envelope.type); };

  switch (envelope.type) {
    case msg_type::kClientRequest: {
      if (auto m = ClientRequest::decode(view)) {
        accept_request(std::move(m.value().transaction));
      } else {
        reject();
      }
      break;
    }
    case msg_type::kPrePrepare: {
      if (auto m = PrePrepare::decode(view)) {
        on_preprepare(envelope.from, std::move(m.value()));
      } else {
        reject();
      }
      break;
    }
    case msg_type::kPrepare: {
      if (auto m = Prepare::decode(view)) {
        on_prepare(envelope.from, m.value());
      } else {
        reject();
      }
      break;
    }
    case msg_type::kCommit: {
      if (auto m = Commit::decode(view)) {
        on_commit(envelope.from, m.value());
      } else {
        reject();
      }
      break;
    }
    case msg_type::kCheckpoint: {
      if (auto m = CheckpointMsg::decode(view)) {
        on_checkpoint(envelope.from, m.value());
      } else {
        reject();
      }
      break;
    }
    case msg_type::kViewChange: {
      if (auto m = ViewChangeMsg::decode(view)) {
        on_view_change(envelope.from, std::move(m.value()));
      } else {
        reject();
      }
      break;
    }
    case msg_type::kNewView: {
      if (auto m = NewViewMsg::decode(view)) {
        on_new_view(envelope.from, m.value());
      } else {
        reject();
      }
      break;
    }
    case msg_type::kReply: {
      // Replicas do not track outstanding client requests, but they can
      // legitimately receive replies: an endorser that originated a config
      // transaction is that transaction's "client", so the reply cache
      // echoes replies at it. A well-formed reply is a protocol-level
      // no-op here; only a malformed one is a wire fault.
      if (!Reply::decode(view)) reject();
      break;
    }
    case msg_type::kSyncRequest: {
      if (auto m = SyncRequest::decode(view)) {
        on_sync_request(m.value());
      } else {
        reject();
      }
      break;
    }
    case msg_type::kSyncResponse: {
      if (auto m = SyncResponse::decode(view)) {
        on_sync_response(m.value());
      } else {
        reject();
      }
      break;
    }
    default:
      handle_extra(envelope);
      break;
  }
}

void Replica::handle_extra(const net::Envelope& envelope) {
  log_debug(id_.str() + ": unknown message type " + std::to_string(envelope.type));
  network_.note_rejected(envelope.type);
}

// --- client requests ---------------------------------------------------------

void Replica::accept_request(ledger::Transaction tx) {
  const crypto::Hash256 digest = tx.digest();
  if (const ClientTable::Entry* entry = client_table_.find(tx.sender);
      entry != nullptr && entry->last_digest == digest) {
    // Retransmission of this client's most recent executed request: answer
    // from the client table — one map lookup instead of the chain index
    // probe below. Retry storms resolve here.
    telemetry().count("pbft.client_table.hits", id_);
    Reply reply;
    reply.view = view_;
    reply.replica = id_;
    reply.tx_digest = digest;
    reply.height = entry->last_height;
    const Bytes body = reply.encode();
    send_to(tx.sender, msg_type::kReply, BytesView(body.data(), body.size()));
    return;
  }
  if (const auto height = chain_.find_transaction(digest)) {
    // Already committed: a client retransmitting lost its REPLY — answer
    // from the executed state (PBFT's reply cache, Castro-Liskov §4.1).
    Reply reply;
    reply.view = view_;
    reply.replica = id_;
    reply.tx_digest = digest;
    reply.height = *height;
    const Bytes body = reply.encode();
    send_to(tx.sender, msg_type::kReply, BytesView(body.data(), body.size()));
    return;
  }
  if (!mempool_.add(std::move(tx), digest)) return;  // duplicate or full
  pending_since_.try_emplace(digest, now());
  maybe_propose();
}

std::vector<ledger::Transaction> Replica::select_batch() {
  // An accumulated batch must drain in one proposal even when the close
  // size exceeds the per-block cap tuned for the unbatched path.
  const std::size_t cap = std::max(config_.max_batch_size, config_.batch_close_size);
  std::vector<ledger::Transaction> batch =
      mempool_.pop_batch(cap, [this](const crypto::Hash256& digest) {
        return chain_.find_transaction(digest).has_value();
      });
  // A configuration transaction must install exactly the next era. A
  // leftover config tx from an abandoned era switch would otherwise linger
  // in the mempool and later commit a second, contradictory roster for an
  // era that already launched; popping it here discards it for good.
  std::erase_if(batch, [this](const ledger::Transaction& tx) {
    return tx.kind == ledger::TxKind::Config && tx.era_config.era != current_era() + 1;
  });
  return batch;
}

void Replica::on_view_changed(ViewId, ViewId) {}

Result<void> Replica::adopt_chain_suffix(const std::vector<ledger::Block>& blocks) {
  bool adopted_any = false;
  for (const ledger::Block& received : blocks) {
    if (received.header.height <= chain_.height()) continue;  // already have it
    auto checked = ledger::CheckedBlock::check(received);
    Result<void> appended =
        checked ? chain_.append(checked.value()) : make_error("chain: " + checked.error());
    if (!appended) {
      if (adopted_any) persist_now();  // keep the partial progress durable
      return appended;
    }
    const ledger::CheckedBlock& block = checked.value();
    const Height height = block.header().height;
    state_.apply_block(block.block(), committee_);
    for (std::size_t i = 0; i < block.transactions().size(); ++i) {
      const crypto::Hash256& digest = block.digests()[i];
      pending_since_.erase(digest);
      mempool_.remove(digest);
      client_table_.note_executed(block.transactions()[i], digest, height);
    }
    // Retire the instance slot this block occupied, if any.
    const auto it = log_.find(height);
    if (it != log_.end()) it->second.executed = true;
    on_executed(block.block());
    if (executed_cb_) executed_cb_(block);
    adopted_any = true;
    telemetry().count("pbft.blocks_adopted", id_);
  }
  if (adopted_any) persist_now();  // sync progress is a durability point
  return {};
}

Result<void> Replica::restore_chain(const ledger::Chain& restored) {
  std::vector<ledger::Block> suffix;
  suffix.reserve(restored.size());
  for (Height h = 1; h <= restored.height(); ++h) suffix.push_back(restored.at(h));
  auto adopted = adopt_chain_suffix(suffix);
  // Everything on disk passed a durability point (stable checkpoint, config
  // block, adopted sync progress), so the window opens above it — otherwise
  // a node restored past watermark_window could never accept new instances
  // until peers' checkpoint votes arrived.
  stable_seq_ = std::max(stable_seq_, chain_.height());
  return adopted;
}

// --- chain sync ------------------------------------------------------------------

void Replica::maybe_request_sync() {
  const SeqNum next = chain_.height() + 1;
  const auto next_it = log_.find(next);
  if (next_it != log_.end() && next_it->second.block.has_value()) return;  // will execute

  // Evidence that the committee committed past us: f+1 commit votes (in any
  // digest bucket, current view or stashed from newer views) for a height
  // we cannot produce locally.
  const std::size_t f = faults_tolerated();
  bool behind = false;
  for (const auto& [seq, instance] : log_) {
    if (seq < next) continue;
    for (const auto& [digest, voters] : instance.commit_votes) {
      if (voters.size() >= f + 1) {
        behind = true;
        break;
      }
    }
    if (behind) break;
  }
  if (!behind) {
    // A straggler in an older view stashes newer-view commits instead of
    // counting them; enough distinct stashed voters are the same evidence.
    std::map<SeqNum, std::set<NodeId>> stashed_voters;
    for (const auto& [from, commit] : stashed_commits_) {
      if (commit.seq >= next) stashed_voters[commit.seq].insert(from);
    }
    for (const auto& [seq, voters] : stashed_voters) {
      if (voters.size() >= f + 1) {
        behind = true;
        break;
      }
    }
  }
  if (!behind) return;
  if (last_sync_request_ && now() - *last_sync_request_ < config_.request_timeout / 4) {
    return;  // rate limit
  }
  last_sync_request_ = now();

  SyncRequest request;
  request.from_height = next;
  request.requester = id_;
  const Bytes body = request.encode();
  // Ask the current primary plus one rotating alternate (the primary may be
  // the faulty party).
  send_to(primary_of(view_), msg_type::kSyncRequest, BytesView(body.data(), body.size()));
  const NodeId alternate =
      committee_[static_cast<std::size_t>((view_ + 1 + next) % committee_.size())];
  if (alternate != primary_of(view_)) {
    send_to(alternate, msg_type::kSyncRequest, BytesView(body.data(), body.size()));
  }
}

void Replica::request_sync_from(NodeId peer) {
  if (last_sync_request_ && now() - *last_sync_request_ < config_.request_timeout / 4) {
    return;  // rate limit
  }
  send_sync_request(peer);
}

void Replica::send_sync_request(NodeId peer) {
  last_sync_request_ = now();
  telemetry().count("pbft.sync_requests", id_);
  SyncRequest request;
  request.from_height = chain_.height() + 1;
  request.requester = id_;
  const Bytes body = request.encode();
  send_to(peer, msg_type::kSyncRequest, BytesView(body.data(), body.size()));
}

void Replica::begin_resync() {
  resync_attempts_left_ = kResyncAttempts;
  resync_tick();
}

void Replica::resync_tick() {
  if (!started_ || resync_attempts_left_ == 0) return;
  --resync_attempts_left_;
  // Ask the primary plus a rotating alternate; the rotation covers the case
  // where the primary itself is crashed, partitioned or serving a degraded
  // link. No evidence gating: a rebuilt node *knows* it may be behind.
  const NodeId primary = primary_of(view_);
  send_sync_request(primary);
  const NodeId alternate = committee_[static_cast<std::size_t>(
      (view_ + 1 + resync_attempts_left_) % committee_.size())];
  if (alternate != primary) send_sync_request(alternate);
  schedule_protected(config_.request_timeout, [this, before = chain_.height()]() {
    // Retry only while no progress was made: any adopted response reaches
    // the responder's tip (or chains follow-ups itself via on_sync_response).
    if (chain_.height() == before) resync_tick();
  });
}

void Replica::on_sync_request(const SyncRequest& msg) {
  if (msg.from_height > chain_.height()) return;  // nothing to offer
  telemetry().count("pbft.sync_responses_served", id_);
  SyncResponse response;
  response.responder = id_;
  const Height last = std::min(chain_.height(), msg.from_height + kMaxSyncBlocks - 1);
  for (Height h = msg.from_height; h <= last; ++h) response.blocks.push_back(chain_.at(h));
  const Bytes body = response.encode();
  send_to(msg.requester, msg_type::kSyncResponse, BytesView(body.data(), body.size()));
}

void Replica::on_sync_response(const SyncResponse& msg) {
  if (msg.blocks.empty()) return;
  // Cross-check against any commit certificates we hold: a synced block
  // conflicting with a locally committed digest is a forgery (or a fork) —
  // refuse the whole response.
  for (const ledger::Block& block : msg.blocks) {
    const auto it = log_.find(block.header.height);
    if (it != log_.end() && it->second.committed && it->second.digest != block.hash()) {
      log_warn(id_.str() + ": sync response conflicts with commit certificate at height " +
               std::to_string(block.header.height));
      return;
    }
  }
  const Height before = chain_.height();
  if (auto adopted = adopt_chain_suffix(msg.blocks); !adopted) {
    log_debug(id_.str() + ": sync adoption stopped: " + adopted.error());
  }
  // A full response means the responder had more to give (deep catch-up
  // after a restart from a stale or empty disk): chain a follow-up request
  // immediately, bypassing the rate limit.
  if (chain_.height() > before && msg.blocks.size() >= kMaxSyncBlocks) {
    send_sync_request(msg.responder);
  }
  try_execute();
}

void Replica::maybe_propose() {
  GPBFT_PROFILE_SCOPE("pbft.propose");
  if (halted_ || in_view_change_ || !is_primary() || !ready_to_propose()) return;
  const SeqNum next_seq = chain_.height() + 1;
  const auto it = log_.find(next_seq);
  if (it != log_.end() && it->second.preprepared && !it->second.executed) return;  // in flight
  if (mempool_.empty()) return;

  bool closed_full = true;
  if (config_.batch_close_size > 1) {
    // Batch accumulation: the batch opens when its first request queues and
    // closes on size or on the deterministic deadline, whichever trips
    // first. Size wins when both trip in the same event, so the close
    // reason is a pure function of the event sequence.
    if (!batch_opened_at_) batch_opened_at_ = now();
    const bool full = mempool_.size() >= config_.batch_close_size;
    if (!full && now() - *batch_opened_at_ < config_.batch_close_timeout) {
      arm_batch_timer();
      return;
    }
    closed_full = full;
  }

  std::vector<ledger::Transaction> batch = select_batch();
  reset_batch_state();  // drained (or nothing proposable): close the epoch
  if (batch.empty()) return;

  const std::size_t batch_txs = batch.size();
  const bool proposed = propose_batch(std::move(batch));
  if (proposed && config_.batch_close_size > 1) {
    obs::Telemetry& tel = telemetry();
    if (tel.enabled()) {
      tel.count(closed_full ? "pbft.batch.closed_full" : "pbft.batch.closed_timeout", id_);
      tel.observe_count("pbft.batch.txs", static_cast<double>(batch_txs), id_);
      tel.observe_fraction(
          "pbft.batch.occupancy",
          static_cast<double>(batch_txs) / static_cast<double>(config_.batch_close_size), id_);
    }
    tel.instant("batch.close", "pbft", id_,
                {{"reason", closed_full ? "full" : "timeout"},
                 {"txs", std::to_string(batch_txs)}});
  }
}

void Replica::arm_batch_timer() {
  if (batch_timer_epoch_ == batch_epoch_) return;  // this batch already has one
  batch_timer_epoch_ = batch_epoch_;
  const Duration remaining = config_.batch_close_timeout - (now() - *batch_opened_at_);
  schedule_protected(remaining, [this, epoch = batch_epoch_]() {
    // The deadline belongs to one batch epoch; if that batch closed (or a
    // view change abandoned it) the timer is stale and must not re-gate
    // whatever batch is accumulating now.
    if (epoch != batch_epoch_) return;
    maybe_propose();
  });
}

void Replica::reset_batch_state() {
  ++batch_epoch_;
  batch_opened_at_.reset();
}

bool Replica::propose_batch(std::vector<ledger::Transaction> batch) {
  if (in_view_change_ || !is_primary()) return false;
  const SeqNum seq = chain_.height() + 1;
  if (!seq_in_window(seq)) return false;
  Instance& existing = log_[seq];
  if (existing.preprepared && !existing.executed) return false;

  // The primary hashes its own batch twice more: once for the root, once
  // in the check. Only a batch that repeats a transaction fails it.
  auto checked = ledger::CheckedBlock::check(ledger::build_block(
      chain_.tip().header, std::move(batch), current_era(), view_, seq, now(), id_));
  if (!checked) return false;
  PrePrepare msg;
  msg.view = view_;
  msg.seq = seq;
  msg.block = checked.value().block();
  if (fault_mode_ == FaultMode::CorruptProposals) {
    msg.block.header.merkle_root.bytes[0] ^= 0xff;  // body no longer committed to
  }
  msg.digest = msg.block.hash();

  Instance& instance = log_[seq];
  instance.view = view_;
  instance.digest = msg.digest;
  instance.block = std::move(checked.value());
  instance.preprepared = true;
  instance.preprepared_at = now();

  telemetry().count("pbft.batches_proposed", id_);
  telemetry().instant("propose", "pbft", id_,
                      {{"seq", std::to_string(seq)},
                       {"txs", std::to_string(instance.block->transactions().size())}});

  const Bytes body = msg.encode();
  broadcast_committee(msg_type::kPrePrepare, BytesView(body.data(), body.size()));
  // The primary's pre-prepare stands in for its prepare; backups' prepares
  // are counted against it in try_prepare.
  try_prepare(seq);
  return true;
}

// --- three-phase protocol ------------------------------------------------------

namespace {
bool config_only(const ledger::Block& block) {
  for (const ledger::Transaction& tx : block.transactions) {
    if (tx.kind != ledger::TxKind::Config) return false;
  }
  return !block.transactions.empty();
}
}  // namespace

void Replica::on_preprepare(NodeId from, PrePrepare msg) {
  // While halted for an era switch, only configuration blocks may proceed
  // (§III-E: the switch itself is committed under consensus).
  if (halted_ && !config_only(msg.block)) return;
  // Blocks are era-stamped at build time: a proposal minted under another
  // era (a straggling old-era primary, or a new-era one racing ahead of
  // this replica's own switch) must not enter the log — its roster and
  // view numbering no longer match ours. Stragglers catch up via chain
  // sync, which applies era configs through on_executed.
  if (msg.block.header.era != current_era()) return;
  if (in_view_change_ || msg.view > view_) {
    // Possibly a new primary running ahead of its NEW-VIEW: hold the
    // message and replay once the view settles.
    if (msg.view >= view_ && stashed_preprepares_.size() < kMaxStashed) {
      stashed_preprepares_.emplace_back(from, std::move(msg));
    }
    return;
  }
  if (msg.view != view_) return;
  if (from != primary_of(msg.view)) return;  // only the primary may propose
  if (!seq_in_window(msg.seq)) return;
  if (msg.digest != msg.block.hash()) return;
  auto checked = ledger::CheckedBlock::check(std::move(msg.block));
  if (!checked) return;
  // Backup-side twin of the select_batch filter: refuse proposals carrying
  // a configuration transaction for anything but the next era, so a stale
  // (or Byzantine) primary cannot commit a contradictory roster for an era
  // that already launched.
  for (const ledger::Transaction& tx : checked.value().transactions()) {
    if (tx.kind == ledger::TxKind::Config && tx.era_config.era != current_era() + 1) return;
  }

  Instance& instance = log_[msg.seq];
  if (instance.preprepared && instance.view == msg.view && instance.digest != msg.digest) {
    // Conflicting proposal from the primary for the same (view, seq):
    // evidence of a faulty primary; refuse and let the timeout fire.
    log_warn(id_.str() + ": conflicting pre-prepare at seq " + std::to_string(msg.seq));
    return;
  }

  instance.view = msg.view;
  instance.digest = msg.digest;
  instance.block = std::move(checked.value());
  instance.preprepared = true;
  instance.preprepared_at = now();
  telemetry().count("pbft.preprepares_accepted", id_);

  // Track request arrival for timeout purposes (backup may not have seen
  // the client request directly).
  for (const crypto::Hash256& digest : instance.block->digests()) {
    pending_since_.try_emplace(digest, now());
  }

  send_prepare(msg.seq, instance);
  try_prepare(msg.seq);
}

void Replica::send_prepare(SeqNum seq, const Instance& instance) {
  if (instance.prepare_sent) return;
  log_[seq].prepare_sent = true;

  Prepare msg;
  msg.view = instance.view;
  msg.seq = seq;
  msg.digest = instance.digest;
  msg.replica = id_;

  if (fault_mode_ == FaultMode::EquivocateDigest) {
    // Byzantine behaviour: send a corrupted digest to half the peers.
    bool flip = false;
    for (NodeId peer : committee_) {
      if (peer == id_) continue;
      Prepare sent = msg;
      if (flip) sent.digest.bytes[0] ^= 0xff;
      flip = !flip;
      const Bytes body = sent.encode();
      send_to(peer, msg_type::kPrepare, BytesView(body.data(), body.size()));
    }
  } else {
    const Bytes body = msg.encode();
    broadcast_committee(msg_type::kPrepare, BytesView(body.data(), body.size()));
  }

  log_[seq].prepare_votes[instance.digest].insert(id_);
  try_prepare(seq);
}

void Replica::on_prepare(NodeId from, const Prepare& msg) {
  if ((in_view_change_ || msg.view > view_) && msg.view >= view_) {
    if (stashed_prepares_.size() < kMaxStashed) stashed_prepares_.emplace_back(from, msg);
    return;
  }
  if (msg.view != view_ || !seq_in_window(msg.seq)) return;
  Instance& instance = log_[msg.seq];
  // Digest-keyed: early votes (before the pre-prepare) park under their
  // digest; only the pre-prepared digest's bucket counts toward the quorum.
  instance.prepare_votes[msg.digest].insert(from);
  try_prepare(msg.seq);
}

void Replica::try_prepare(SeqNum seq) {
  Instance& instance = log_[seq];
  if (!instance.preprepared || instance.prepared) return;
  const std::size_t f = faults_tolerated();
  const auto votes_it = instance.prepare_votes.find(instance.digest);
  const std::size_t votes = votes_it == instance.prepare_votes.end() ? 0 : votes_it->second.size();

  // prepared == pre-prepare + 2f matching prepares from distinct replicas.
  if (votes >= 2 * f) {
    instance.prepared = true;
    instance.prepared_at = now();
    telemetry().count("pbft.prepared", id_);
    // Record the durable P-set entry (see Instance docs).
    instance.has_prepared = true;
    instance.prepared_view = instance.view;
    instance.prepared_digest = instance.digest;
    instance.prepared_block = instance.block;
    send_commit(seq, instance);
  }
}

void Replica::send_commit(SeqNum seq, const Instance& instance) {
  if (log_[seq].commit_sent) return;
  log_[seq].commit_sent = true;

  Commit msg;
  msg.view = instance.view;
  msg.seq = seq;
  msg.digest = instance.digest;
  msg.replica = id_;
  const Bytes body = msg.encode();
  broadcast_committee(msg_type::kCommit, BytesView(body.data(), body.size()));

  log_[seq].commit_votes[instance.digest].insert(id_);
  try_commit(seq);
}

void Replica::on_commit(NodeId from, const Commit& msg) {
  // COMMIT certificates are view-scoped like PREPAREs: stash future-view
  // votes, drop stale ones, park same-view votes under their digest.
  if ((in_view_change_ || msg.view > view_) && msg.view >= view_) {
    if (stashed_commits_.size() < kMaxStashed) stashed_commits_.emplace_back(from, msg);
    return;
  }
  if (msg.view != view_ || !seq_in_window(msg.seq)) return;
  Instance& instance = log_[msg.seq];
  instance.commit_votes[msg.digest].insert(from);
  try_commit(msg.seq);
}

void Replica::try_commit(SeqNum seq) {
  Instance& instance = log_[seq];
  if (!instance.prepared || instance.committed) return;
  const std::size_t f = faults_tolerated();
  const auto votes_it = instance.commit_votes.find(instance.digest);
  const std::size_t votes = votes_it == instance.commit_votes.end() ? 0 : votes_it->second.size();
  if (votes >= 2 * f + 1) {
    instance.committed = true;
    instance.committed_at = now();
    telemetry().count("pbft.committed", id_);
    try_execute();
  }
}

void Replica::try_execute() {
  GPBFT_PROFILE_SCOPE("pbft.execute");
  while (true) {
    const SeqNum next = chain_.height() + 1;
    const auto it = log_.find(next);
    if (it == log_.end() || !it->second.committed || it->second.executed) break;
    Instance& instance = it->second;
    if (!instance.block) break;

    // A copy shares the block; it outlives the instance, which the hooks
    // and checkpoint below may erase.
    const ledger::CheckedBlock block = *instance.block;
    if (auto appended = chain_.append(block); !appended) {
      log_error(id_.str() + ": committed block failed validation: " + appended.error());
      break;
    }
    const Height height = block.header().height;
    state_.apply_block(block.block(), committee_);
    instance.executed = true;

    // Per-phase attribution: how long this replica spent gathering each
    // certificate for the block it just executed. Blocks adopted via chain
    // sync never ran the three phases here, so the stamps gate on
    // `preprepared` (set only by the live protocol path).
    obs::Telemetry& tel = telemetry();
    if (tel.enabled()) {
      tel.count("pbft.blocks_executed", id_);
      if (instance.preprepared && instance.preprepared_at.ns != 0) {
        const TimePoint executed_at = now();
        tel.observe("pbft.phase.prepare_seconds",
                    (instance.prepared_at - instance.preprepared_at).to_seconds());
        tel.observe("pbft.phase.commit_seconds",
                    (instance.committed_at - instance.prepared_at).to_seconds());
        tel.observe("pbft.phase.execute_seconds",
                    (executed_at - instance.committed_at).to_seconds());
        if (tel.trace_enabled()) {
          const auto height_arg = std::to_string(height);
          tel.span(instance.preprepared_at, instance.prepared_at, id_, "phase.prepare", "pbft",
                   {{"height", height_arg}});
          tel.span(instance.prepared_at, instance.committed_at, id_, "phase.commit", "pbft",
                   {{"height", height_arg}});
          tel.span(instance.committed_at, executed_at, id_, "phase.execute", "pbft",
                   {{"height", height_arg}, {"txs", std::to_string(block.transactions().size())}});
        }
      }
    }

    for (std::size_t i = 0; i < block.transactions().size(); ++i) {
      const ledger::Transaction& tx = block.transactions()[i];
      const crypto::Hash256& digest = block.digests()[i];
      pending_since_.erase(digest);
      mempool_.remove(digest);
      client_table_.note_executed(tx, digest, height);

      Reply reply;
      reply.view = view_;
      reply.replica = id_;
      reply.tx_digest = digest;
      reply.height = height;
      const Bytes body = reply.encode();
      send_to(tx.sender, msg_type::kReply, BytesView(body.data(), body.size()));
    }

    on_executed(block.block());
    if (executed_cb_) executed_cb_(block);
    // Configuration blocks change the roster a restarted node must rebuild
    // from disk — always worth a save (era switches are rare).
    for (const ledger::Transaction& tx : block.transactions()) {
      if (tx.kind == ledger::TxKind::Config) {
        persist_now();
        break;
      }
    }
    maybe_checkpoint();
  }
  maybe_propose();
}

void Replica::on_executed(const ledger::Block&) {}

// --- checkpoints -----------------------------------------------------------------

void Replica::maybe_checkpoint() {
  const SeqNum height = chain_.height();
  if (height == 0 || height % config_.checkpoint_interval != 0) return;
  if (height <= stable_seq_) return;

  CheckpointMsg msg;
  msg.seq = height;
  msg.chain_digest = chain_.tip().hash();
  msg.replica = id_;
  const Bytes body = msg.encode();
  broadcast_committee(msg_type::kCheckpoint, BytesView(body.data(), body.size()));

  checkpoint_votes_[height][msg.chain_digest].insert(id_);
  on_checkpoint(id_, msg);
}

void Replica::on_checkpoint(NodeId from, const CheckpointMsg& msg) {
  if (msg.seq <= stable_seq_) return;
  auto& voters = checkpoint_votes_[msg.seq][msg.chain_digest];
  voters.insert(from);
  const std::size_t f = faults_tolerated();
  if (voters.size() < 2 * f + 1) return;

  // Stable: garbage-collect everything at or below, and persist — this is
  // PBFT's canonical durability point (the prefix is provably agreed).
  stable_seq_ = msg.seq;
  log_.erase(log_.begin(), log_.upper_bound(stable_seq_));
  checkpoint_votes_.erase(checkpoint_votes_.begin(), checkpoint_votes_.upper_bound(stable_seq_));
  telemetry().count("pbft.checkpoints_stable", id_);
  telemetry().instant("checkpoint.stable", "pbft", id_, {{"seq", std::to_string(stable_seq_)}});
  persist_now();
}

bool Replica::seq_in_window(SeqNum seq) const {
  return seq > stable_seq_ && seq <= stable_seq_ + config_.watermark_window;
}

// --- view changes -----------------------------------------------------------------

ViewChangeMsg Replica::build_view_change(ViewId new_view) const {
  ViewChangeMsg msg;
  msg.new_view = new_view;
  msg.last_executed = chain_.height();
  for (const auto& [seq, instance] : log_) {
    // The P set: every instance that EVER prepared (in any view) and is not
    // yet executed travels with the view change, highest-view entry first
    // at the new primary.
    if (instance.has_prepared && !instance.executed && instance.prepared_block) {
      PreparedProof proof;
      proof.view = instance.prepared_view;
      proof.seq = seq;
      proof.digest = instance.prepared_digest;
      proof.block = instance.prepared_block->block();
      msg.prepared.push_back(std::move(proof));
    }
  }
  msg.replica = id_;
  return msg;
}

void Replica::initiate_view_change() {
  pending_view_ = in_view_change_ ? pending_view_ + 1 : view_ + 1;
  in_view_change_ = true;
  view_change_started_ = now();
  telemetry().count("pbft.view_changes_started", id_);
  telemetry().instant("view_change.start", "pbft", id_,
                      {{"pending_view", std::to_string(pending_view_)}});

  ViewChangeMsg msg = build_view_change(pending_view_);
  const Bytes body = msg.encode();
  broadcast_committee(msg_type::kViewChange, BytesView(body.data(), body.size()));
  on_view_change(id_, std::move(msg));
}

void Replica::on_view_change(NodeId from, ViewChangeMsg msg) {
  // A peer's VIEW-CHANGE advertises its executed height: if it is ahead of
  // us, we are a straggler — fetch the gap. This is what breaks the
  // straggler-induced view-change storm: the storm's own messages carry
  // the evidence the straggler needs to catch up and stop timing out.
  if (msg.last_executed > chain_.height()) request_sync_from(from);

  if (msg.new_view <= view_) return;
  // Votes executed below the current committee's installation height were
  // built by peers still on a previous roster (pre era switch / epoch
  // re-election). Counting them would drag this freshly reconfigured
  // committee to the old roster's view numbers and split it across views
  // that can never reconverge; the straggler gets a sync above instead.
  if (msg.last_executed < reconfigured_at_height_) return;
  auto& entries = view_changes_[msg.new_view];
  entries.emplace(from, std::move(msg));

  const ViewId candidate = view_changes_.rbegin()->first;  // highest requested view
  auto& votes = view_changes_[candidate];
  const std::size_t f = faults_tolerated();

  // A replica that sees f+1 view changes for a higher view joins in even if
  // its own timer has not fired (prevents laggards from stalling).
  if (!votes.contains(id_) && votes.size() >= f + 1) {
    pending_view_ = candidate;
    in_view_change_ = true;
    view_change_started_ = now();
    ViewChangeMsg own = build_view_change(candidate);
    const Bytes body = own.encode();
    broadcast_committee(msg_type::kViewChange, BytesView(body.data(), body.size()));
    votes.emplace(id_, std::move(own));
  }

  // New primary forms the certificate at 2f+1.
  if (primary_of(candidate) != id_ || votes.size() < 2 * f + 1) return;

  NewViewMsg new_view;
  new_view.new_view = candidate;
  for (const auto& [replica, vc] : votes) new_view.proofs.push_back(vc);
  new_view.primary = id_;

  // Re-propose the highest-view prepared proof per sequence number above
  // this primary's OWN executed height. Skipping by someone else's height
  // would be unsound: the primary would then propose a fresh block for a
  // slot another replica already executed, forking the chain. Slots the
  // primary itself executed are skipped (peers fetch them via chain sync).
  std::map<SeqNum, const PreparedProof*> best;
  for (const auto& [replica, vc] : votes) {
    for (const PreparedProof& proof : vc.prepared) {
      auto it = best.find(proof.seq);
      if (it == best.end() || proof.view > it->second->view) best[proof.seq] = &proof;
    }
  }
  for (const auto& [seq, proof] : best) {
    if (seq <= chain_.height()) continue;
    PrePrepare pp;
    pp.view = candidate;
    pp.seq = seq;
    pp.digest = proof->digest;
    pp.block = proof->block;
    new_view.preprepares.push_back(std::move(pp));
  }

  const Bytes body = new_view.encode();
  broadcast_committee(msg_type::kNewView, BytesView(body.data(), body.size()));
  enter_new_view(candidate, new_view.preprepares);
}

void Replica::on_new_view(NodeId from, const NewViewMsg& msg) {
  for (const ViewChangeMsg& vc : msg.proofs) {
    if (vc.last_executed > chain_.height()) {
      request_sync_from(from);
      break;
    }
  }
  if (msg.new_view <= view_) return;
  if (from != primary_of(msg.new_view) || msg.primary != from) return;
  const std::size_t f = faults_tolerated();
  std::set<NodeId> distinct;
  for (const ViewChangeMsg& vc : msg.proofs) {
    // Same staleness filter as on_view_change: proofs executed below the
    // current committee's installation height belong to a previous roster.
    if (vc.new_view == msg.new_view && vc.last_executed >= reconfigured_at_height_) {
      distinct.insert(vc.replica);
    }
  }
  if (distinct.size() < 2 * f + 1) return;
  enter_new_view(msg.new_view, msg.preprepares);
}

void Replica::enter_new_view(ViewId view, const std::vector<PrePrepare>& reproposals) {
  const ViewId previous = view_;
  view_ = view;
  in_view_change_ = false;
  view_changes_.erase(view_changes_.begin(), view_changes_.upper_bound(view));
  telemetry().count("pbft.view_changes_completed", id_);
  telemetry().instant("view_change.complete", "pbft", id_, {{"view", std::to_string(view_)}});

  // Reset per-view state on uncommitted instances: votes and sent flags are
  // scoped to a view, so they must not carry over — but the durable P-set
  // fields (has_prepared / prepared_*) are deliberately KEPT, so later
  // view changes still carry the prepared value (safety; see Instance).
  // Committed-but-unexecuted instances stay untouched: their blocks are
  // fixed by a commit quorum.
  for (auto& [seq, instance] : log_) {
    if (instance.committed || instance.executed) continue;
    // Requeue the transactions so they are not lost if the new primary
    // proposes something else for this slot.
    if (instance.block) requeue(*instance.block);
    instance.preprepared = false;
    instance.prepared = false;
    instance.prepare_sent = false;
    instance.commit_sent = false;
    instance.prepare_votes.clear();
    instance.commit_votes.clear();
    instance.block.reset();
    instance.digest = crypto::Hash256{};
    instance.preprepared_at = TimePoint{};
    instance.prepared_at = TimePoint{};
    instance.committed_at = TimePoint{};
  }

  // Give every pending request a fresh timeout under the new primary.
  for (auto& [digest, since] : pending_since_) since = now();

  // Any accumulating batch is abandoned: its requests are back in the
  // mempool and the new primary opens its own batch (with a fresh timer).
  reset_batch_state();

  // Process the new primary's re-proposals, then any messages that raced
  // ahead of the NEW-VIEW.
  for (const PrePrepare& pp : reproposals) on_preprepare(primary_of(view_), pp);

  auto preprepares = std::move(stashed_preprepares_);
  stashed_preprepares_.clear();
  for (auto& [from, pp] : preprepares) {
    if (pp.view == view_) on_preprepare(from, std::move(pp));
  }
  const auto prepares = std::move(stashed_prepares_);
  stashed_prepares_.clear();
  for (const auto& [from, prepare] : prepares) {
    if (prepare.view == view_) on_prepare(from, prepare);
  }
  const auto commits = std::move(stashed_commits_);
  stashed_commits_.clear();
  for (const auto& [from, commit] : commits) {
    if (commit.view == view_) on_commit(from, commit);
  }

  on_view_changed(previous, view_);
  maybe_propose();
}

void Replica::requeue(const ledger::CheckedBlock& block) {
  for (std::size_t i = 0; i < block.transactions().size(); ++i) {
    const crypto::Hash256& digest = block.digests()[i];
    if (!chain_.find_transaction(digest)) mempool_.add(block.transactions()[i], digest);
  }
}

// --- timers ----------------------------------------------------------------------

void Replica::arm_tick() {
  const Duration interval = config_.request_timeout / 4;
  schedule_protected(interval, [this]() {
    on_tick();
    if (started_) arm_tick();
  });
}

void Replica::on_tick() {
  if (network_.is_crashed(id_) || fault_mode_ == FaultMode::Silent) return;

  const TimePoint current = now();

  if (in_view_change_) {
    // Escalate if the pending view did not form in time.
    const Duration elapsed = current - view_change_started_;
    const Duration budget =
        config_.view_change_timeout * static_cast<std::int64_t>(pending_view_ - view_);
    if (elapsed > budget) initiate_view_change();
    return;
  }

  maybe_request_sync();

  if (halted_) return;

  for (const auto& [digest, since] : pending_since_) {
    if (current - since > config_.request_timeout) {
      log_debug(id_.str() + ": request " + digest.short_hex() + " pending for " +
                std::to_string((current - since).to_seconds()) +
                "s; initiating view change from view " + std::to_string(view_));
      initiate_view_change();
      return;
    }
  }
}

void Replica::reconfigure_committee(std::vector<NodeId> committee) {
  committee_ = std::move(committee);
  std::sort(committee_.begin(), committee_.end());
  view_ = 0;
  reconfigured_at_height_ = chain_.height();
  in_view_change_ = false;
  pending_view_ = 0;
  view_changes_.clear();
  stashed_preprepares_.clear();
  stashed_prepares_.clear();
  stashed_commits_.clear();

  // Abandon in-flight instances; their transactions return to the mempool.
  for (auto it = log_.begin(); it != log_.end();) {
    Instance& instance = it->second;
    if (!instance.executed) {
      if (instance.block) requeue(*instance.block);
      it = log_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [digest, since] : pending_since_) since = now();
  reset_batch_state();  // era switch: the new roster's primary re-batches
}

}  // namespace gpbft::pbft
