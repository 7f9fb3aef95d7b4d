#include "pow/miner.hpp"

#include "obs/profiler.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "pbft/messages.hpp"

namespace gpbft::pow {

Miner::Miner(NodeId id, std::vector<NodeId> peers, PowBlock genesis, MinerConfig config,
             net::Network& network)
    : id_(id), peers_(std::move(peers)), config_(config), network_(network),
      chain_(std::move(genesis), config.proof_difficulty, config.retarget) {}

void Miner::start() {
  network_.attach(this);
  running_ = true;
  mining_since_ = network_.simulator().now();
  arm_mining();
}

void Miner::stop() {
  account_mining_time();
  running_ = false;
}

void Miner::account_mining_time() {
  if (!running_) return;
  const TimePoint now = network_.simulator().now();
  hashes_computed_ += (now - mining_since_).to_seconds() * config_.hashrate;
  mining_since_ = now;
}

void Miner::arm_mining() {
  if (!running_) return;
  const std::uint64_t attempt = ++attempt_counter_;
  // Expected network-wide hashes per block = the tip's next difficulty
  // (retargeting included); this miner's solo expectation is
  // difficulty / hashrate seconds.
  const double mean_seconds =
      static_cast<double>(chain_.next_difficulty(chain_.tip_hash())) / config_.hashrate;
  const Duration solve =
      Duration::from_seconds(network_.simulator().rng().exponential(mean_seconds));
  network_.simulator().schedule(
      solve, [alive = std::weak_ptr<bool>(alive_), this, attempt]() {
        if (alive.lock()) on_block_found(attempt);
      });
}

void Miner::maybe_persist() {
  if (!persist_cb_) return;
  persist_cb_(chain_);
  network_.telemetry().count("pow.persists", id_);
}

void Miner::restore_chain(const std::vector<PowBlock>& blocks) {
  for (const PowBlock& block : blocks) {
    if (block.header.height == 0) continue;  // genesis is constructed, not loaded
    if (auto added = chain_.add_block(block); !added) {
      log_debug(id_.str() + ": restored block rejected: " + added.error());
      return;  // descendants would only pile up as orphans
    }
  }
}

void Miner::on_block_found(std::uint64_t attempt) {
  if (!running_ || attempt != attempt_counter_) return;  // superseded by a new tip
  if (network_.is_crashed(id_)) return;
  account_mining_time();

  PowBlock block;
  block.header.height = chain_.tip_height() + 1;
  block.header.prev_hash = chain_.tip_hash();
  block.header.difficulty = chain_.next_difficulty(chain_.tip_hash());
  block.header.timestamp = network_.simulator().now();
  block.header.miner = id_;
  // Skip anything already on the best chain (other miners' blocks carried
  // it first); transactions stranded on orphaned branches come back via
  // sync_mempool_with_best_chain, so nothing is lost to a reorg.
  block.transactions = mempool_.pop_batch(
      config_.max_batch_size, [this](const crypto::Hash256& digest) {
        return chain_.confirmation_depth(digest).has_value();
      });
  // Grind the scaled-down proof target (the consensus-difficulty hashes
  // were already paid for on the simulated clock; see mine_block docs).
  block = mine_block(std::move(block), config_.proof_difficulty, attempt);

  network_.telemetry().count("pow.blocks_mined", id_);
  network_.telemetry().instant("block.mined", "pow", id_,
                               {{"height", std::to_string(block.header.height)},
                                {"txs", std::to_string(block.transactions.size())}});
  if (auto added = chain_.add_block(block); !added) {
    // Should not happen for a self-built block on the local tip.
    log_warn(id_.str() + ": own block rejected: " + added.error());
  } else {
    sync_mempool_with_best_chain();
  }

  // One encoded block refcounted across the gossip fan-out.
  const net::Payload encoded{block.encode()};
  for (NodeId peer : peers_) {
    if (peer == id_) continue;
    net::Envelope envelope;
    envelope.from = id_;
    envelope.to = peer;
    envelope.type = kPowBlock;
    envelope.payload = encoded;
    network_.send(std::move(envelope));
  }

  check_confirmations();
  maybe_persist();  // own block extended the best tip
  arm_mining();     // mine on the new tip
}

void Miner::handle(const net::Envelope& envelope) {
  GPBFT_PROFILE_SCOPE("pow.miner.handle");
  switch (envelope.type) {
    case kPowBlock: {
      if (auto block = PowBlock::decode(BytesView(envelope.payload.data(),
                                                  envelope.payload.size()))) {
        on_block_received(std::move(block.value()), envelope.from);
      } else {
        network_.note_rejected(envelope.type);
      }
      break;
    }
    case kPowBlockRequest: {
      if (envelope.payload.size() == 32) {
        crypto::Hash256 wanted;
        std::copy(envelope.payload.begin(), envelope.payload.end(), wanted.bytes.begin());
        on_block_requested(wanted, envelope.from);
      } else {
        network_.note_rejected(envelope.type);
      }
      break;
    }
    case pbft::msg_type::kClientRequest: {
      // Plain (unsealed) transaction submissions from harness clients.
      if (auto tx = ledger::Transaction::decode(BytesView(envelope.payload.data(),
                                                          envelope.payload.size()))) {
        submit(std::move(tx.value()));
      } else {
        network_.note_rejected(envelope.type);
      }
      break;
    }
    default:
      network_.note_rejected(envelope.type);
      break;
  }
}

void Miner::on_block_received(PowBlock block, NodeId from) {
  account_mining_time();
  const crypto::Hash256 block_hash = block.hash();
  const crypto::Hash256 parent = block.header.prev_hash;
  auto added = chain_.add_block(std::move(block));
  if (!added) {
    log_debug(id_.str() + ": rejected gossip block: " + added.error());
    return;
  }
  // Mempool maintenance follows the best-chain delta, not the raw block:
  // only transactions that actually joined the best chain leave the pool
  // (a side-branch block must not flush pending transactions — it may
  // never win), and a reorg resurrects the losing branch's transactions.
  sync_mempool_with_best_chain();
  if (!chain_.contains(block_hash) && !chain_.contains(parent)) {
    // Buffered as an orphan: we missed the parent (crash, partition, loss).
    // Ask the announcer for it; the walk repeats per served ancestor until
    // the chains connect (the orphan buffer then connects descendants).
    net::Envelope request;
    request.from = id_;
    request.to = from;
    request.type = kPowBlockRequest;
    request.payload = Bytes(parent.bytes.begin(), parent.bytes.end());
    network_.send(std::move(request));
    return;
  }
  if (added.value()) {
    // Tip changed: restart mining on the new best chain.
    check_confirmations();
    maybe_persist();
    arm_mining();
  }
}

void Miner::sync_mempool_with_best_chain() {
  // Bitcoin-style reorg maintenance over the chain's last add_block delta:
  // transactions in blocks that left the best chain are resurrected unless
  // the new branch also confirmed them; transactions in blocks that joined
  // it leave the mempool. Without the resurrection leg a transaction mined
  // only on an orphaned branch would be lost forever — harness clients
  // submit once, so that is a liveness violation, not a nuisance.
  for (const crypto::Hash256& hash : chain_.last_disconnected()) {
    const PowBlock* block = chain_.find_block(hash);
    if (block == nullptr) continue;
    for (const ledger::Transaction& tx : block->transactions) {
      const crypto::Hash256 digest = tx.digest();
      if (!chain_.confirmation_depth(digest).has_value()) (void)mempool_.add(tx, digest);
    }
  }
  for (const crypto::Hash256& hash : chain_.last_connected()) {
    const PowBlock* block = chain_.find_block(hash);
    if (block == nullptr) continue;
    for (const ledger::Transaction& tx : block->transactions) mempool_.remove(tx.digest());
  }
}

void Miner::on_block_requested(const crypto::Hash256& block_hash, NodeId requester) {
  const PowBlock* block = chain_.find_block(block_hash);
  if (block == nullptr) return;  // unknown here too; a later announce retries
  net::Envelope envelope;
  envelope.from = id_;
  envelope.to = requester;
  envelope.type = kPowBlock;
  envelope.payload = block->encode();
  network_.send(std::move(envelope));
}

void Miner::submit(ledger::Transaction tx) {
  const crypto::Hash256 digest = tx.digest();
  if (!watched_.contains(digest) && !chain_.confirmation_depth(digest).has_value()) {
    watched_.emplace(digest, network_.simulator().now());
  }
  (void)mempool_.add(std::move(tx), digest);
}

void Miner::check_confirmations() {
  for (auto it = watched_.begin(); it != watched_.end();) {
    const auto depth = chain_.confirmation_depth(it->first);
    if (depth.has_value() && *depth >= config_.confirmation_depth) {
      const Duration latency = network_.simulator().now() - it->second;
      network_.telemetry().count("pow.txs_confirmed", id_);
      if (confirmed_cb_) confirmed_cb_(it->first, latency);
      it = watched_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace gpbft::pow
