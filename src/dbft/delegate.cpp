#include "dbft/delegate.hpp"

#include "obs/profiler.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::dbft {

namespace {

constexpr std::string_view kVoteTag = "dbft-vote";

std::vector<NodeId> genesis_roster(const ledger::Block& genesis) {
  for (const ledger::Transaction& tx : genesis.transactions) {
    if (tx.kind == ledger::TxKind::Config) return tx.era_config.endorsers;
  }
  return {};
}

}  // namespace

ledger::Transaction make_vote_tx(NodeId voter, RequestId request_id, NodeId candidate,
                                 const geo::GeoReport& geo) {
  serde::Writer w;
  w.string(std::string(kVoteTag));
  w.u64(candidate.value);
  return ledger::make_normal_tx(voter, request_id, w.take(), /*fee=*/1, geo);
}

std::optional<NodeId> parse_vote_tx(const ledger::Transaction& tx) {
  if (tx.kind != ledger::TxKind::Normal) return std::nullopt;
  serde::Reader r(BytesView(tx.payload.data(), tx.payload.size()));
  auto tag = r.string(32);
  if (!tag || tag.value() != kVoteTag) return std::nullopt;
  auto candidate = r.u64();
  if (!candidate || !r.exhausted()) return std::nullopt;
  return NodeId{candidate.value()};
}

Delegate::Delegate(NodeId id, ledger::Block genesis, DbftConfig config,
                   StakeRegistry initial_stakes, std::vector<NodeId> observers,
                   net::Network& network, const crypto::KeyRegistry& keys)
    : Replica(id, genesis_roster(genesis), genesis, config.pbft, network, keys),
      config_(config),
      stakes_(std::move(initial_stakes)),
      delegates_(genesis_roster(genesis)),
      observers_(std::move(observers)) {}

void Delegate::start() {
  if (started()) return;
  Replica::start();
  last_block_time_ = now();
  arm_pacing_timer();
}

bool Delegate::is_delegate() const {
  return std::find(delegates_.begin(), delegates_.end(), id()) != delegates_.end();
}

NodeId Delegate::primary_of(ViewId view) const {
  if (delegates_.empty()) return Replica::primary_of(view);
  // NEO rotation: the speaker advances every block; a view change skips to
  // the next delegate within the same height.
  const std::uint64_t next_height = chain().height() + 1;
  return delegates_[static_cast<std::size_t>((next_height + view) % delegates_.size())];
}

void Delegate::arm_pacing_timer() {
  schedule_protected(config_.block_interval / 8, [this]() {
    if (!started()) return;
    on_pacing_tick();
    arm_pacing_timer();
  });
}

void Delegate::on_pacing_tick() {
  if (network().is_crashed(id()) || !is_delegate()) return;
  // ready_to_propose() enforces the cadence; this tick just wakes the
  // engine up once the interval has elapsed (no empty blocks: the engine
  // only proposes when the mempool is non-empty).
  maybe_propose();
}

void Delegate::on_executed(const ledger::Block& block) {
  last_block_time_ = now();

  for (const ledger::Transaction& tx : block.transactions) {
    if (const auto candidate = parse_vote_tx(tx)) {
      stakes_.vote(tx.sender, *candidate);
    }
  }

  // The speaker publishes the finalized block to non-delegate observers.
  if (block.header.producer == id()) {
    publish_block(block);
    telemetry().count("dbft.blocks_published", id());
  }

  if (block.header.height % config_.epoch_blocks == 0) maybe_reelect(block.header.height);

  // dBFT blocks are final once executed (after the COMMIT quorum), so
  // every executed block is a durability point: a restarted delegate
  // resumes at its exact executed height.
  persist_now();
}

void Delegate::maybe_reelect(Height height) {
  std::vector<NodeId> elected = stakes_.elect(config_.delegate_count);
  if (elected.size() < 4) return;  // not enough voted candidates for BFT
  std::vector<NodeId> sorted_elected = elected;
  std::vector<NodeId> sorted_current = delegates_;
  std::sort(sorted_elected.begin(), sorted_elected.end());
  std::sort(sorted_current.begin(), sorted_current.end());
  if (sorted_elected == sorted_current) return;

  delegates_ = std::move(elected);
  reconfigure_committee(delegates_);
  ++epochs_completed_;
  telemetry().count("dbft.epochs_completed", id());
  telemetry().instant("epoch.reelect", "dbft", id(),
                      {{"height", std::to_string(height)},
                       {"delegates", std::to_string(delegates_.size())}});
  log_info(id().str() + ": dbft epoch at height " + std::to_string(height) + ", " +
           std::to_string(delegates_.size()) + " delegates");
  if (roster_cb_) roster_cb_(height, delegates_);
}

void Delegate::publish_block(const ledger::Block& block) {
  std::vector<NodeId> targets;
  targets.reserve(observers_.size());
  for (NodeId observer : observers_) {
    if (observer == id()) continue;
    if (std::find(delegates_.begin(), delegates_.end(), observer) != delegates_.end()) {
      continue;  // delegates executed it themselves
    }
    targets.push_back(observer);
  }
  send_to_each(targets, PublishedBlock{block});
}

void Delegate::handle_extra(const net::Envelope& envelope, BytesView body) {
  GPBFT_PROFILE_SCOPE("dbft.delegate.handle");
  if (envelope.type != PublishedBlock::kType) {
    Replica::handle_extra(envelope, body);
    return;
  }
  auto published = decode_or_reject<PublishedBlock>(body);
  if (!published) return;

  const Height incoming = published->block.header.height;
  if (incoming == chain().height() + 1) {
    if (auto adopted = adopt_chain_suffix({std::move(published->block)}); !adopted) {
      log_debug(id().str() + ": published block rejected: " + adopted.error());
    }
  } else if (incoming > chain().height() + 1) {
    // Missed an earlier publication: fetch the gap from the producer.
    pbft::SyncRequest request;
    request.from_height = chain().height() + 1;
    request.requester = id();
    send_to(envelope.from, request);
  }
}

}  // namespace gpbft::dbft
