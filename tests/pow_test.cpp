// PoW substrate tests: difficulty targets, block validation, fork choice,
// orphan handling, and end-to-end mining on the simulated network.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "pow/miner.hpp"
#include "pow/pow_chain.hpp"

namespace gpbft::pow {
namespace {

ledger::Transaction sample_tx(std::uint64_t sender, RequestId request) {
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.10};
  return ledger::make_normal_tx(NodeId{sender}, request, Bytes{1, 2, 3}, 5, report);
}

constexpr std::uint64_t kProof = 64;  // tiny grind for tests

PowBlock child_of(const PowBlock& parent, std::uint64_t difficulty, NodeId miner,
                  std::vector<ledger::Transaction> txs = {}, std::uint64_t nonce_seed = 0) {
  PowBlock block;
  block.header.height = parent.header.height + 1;
  block.header.prev_hash = parent.hash();
  block.header.difficulty = difficulty;
  block.header.timestamp = TimePoint{parent.header.timestamp.ns + 1};
  block.header.miner = miner;
  block.transactions = std::move(txs);
  return mine_block(std::move(block), kProof, nonce_seed);
}

// --- difficulty --------------------------------------------------------------

TEST(PowDifficulty, DifficultyOneAcceptsEverything) {
  crypto::Hash256 all_ones;
  all_ones.bytes.fill(0xff);
  EXPECT_TRUE(hash_meets_difficulty(all_ones, 1));
  EXPECT_TRUE(hash_meets_difficulty(crypto::Hash256{}, 1));
}

TEST(PowDifficulty, HigherDifficultyIsStricter) {
  // Count how many of 4096 trial hashes meet each target: acceptance rate
  // should fall roughly as 1/difficulty.
  int hits_16 = 0, hits_256 = 0;
  for (int i = 0; i < 4096; ++i) {
    const crypto::Hash256 h = crypto::sha256("trial-" + std::to_string(i));
    if (hash_meets_difficulty(h, 16)) ++hits_16;
    if (hash_meets_difficulty(h, 256)) ++hits_256;
  }
  EXPECT_NEAR(hits_16, 4096 / 16, 80);
  EXPECT_NEAR(hits_256, 4096 / 256, 24);
  EXPECT_GT(hits_16, hits_256);
}

TEST(PowDifficulty, MineBlockSatisfiesTarget) {
  const PowBlock genesis = make_pow_genesis(1'000'000, kProof);
  EXPECT_TRUE(hash_meets_difficulty(genesis.hash(), kProof));
  EXPECT_EQ(genesis.header.difficulty, 1'000'000u);
}

// --- block encoding -----------------------------------------------------------

TEST(PowBlock, EncodeDecodeRoundtrip) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  const PowBlock block = child_of(genesis, 100, NodeId{3}, {sample_tx(1, 1), sample_tx(2, 1)});
  const Bytes encoded = block.encode();
  const auto decoded = PowBlock::decode(BytesView(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), block);
  EXPECT_EQ(decoded.value().hash(), block.hash());
}

TEST(PowBlock, DecodeRejectsGarbage) {
  const Bytes junk{1, 2, 3};
  EXPECT_FALSE(PowBlock::decode(BytesView(junk.data(), junk.size())).ok());
}

// --- chain / fork choice ---------------------------------------------------------

TEST(PowChain, ExtendsAndTracksWork) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);
  EXPECT_EQ(chain.tip_height(), 0u);

  const PowBlock b1 = child_of(genesis, 100, NodeId{1});
  auto added = chain.add_block(b1);
  ASSERT_TRUE(added.ok());
  EXPECT_TRUE(added.value());  // tip changed
  EXPECT_EQ(chain.tip_height(), 1u);
  EXPECT_EQ(chain.best_work(), 200u);
}

TEST(PowChain, RejectsInvalidProof) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);
  PowBlock bad = child_of(genesis, 100, NodeId{1});
  bad.header.nonce += 1;  // breaks the ground proof (with high probability)
  if (hash_meets_difficulty(bad.hash(), kProof)) GTEST_SKIP();  // got lucky
  EXPECT_FALSE(chain.add_block(bad).ok());
}

TEST(PowChain, RejectsBadMerkleRoot) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);
  PowBlock bad = child_of(genesis, 100, NodeId{1}, {sample_tx(1, 1)});
  bad.transactions.push_back(sample_tx(2, 2));
  EXPECT_FALSE(chain.add_block(bad).ok());
}

TEST(PowChain, RejectsABodyThatRepeatsATransaction) {
  // [a, b, c, c] shares its Merkle root with [a, b, c] (the odd node pairs
  // with itself); the padded body must not connect.
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);
  const ledger::Transaction c = sample_tx(3, 3);
  const PowBlock padded =
      child_of(genesis, 100, NodeId{1}, {sample_tx(1, 1), sample_tx(2, 2), c, c});
  const auto refused = chain.add_block(padded);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find("repeats"), std::string::npos) << refused.error();
  EXPECT_EQ(chain.tip_height(), 0u);
}

TEST(PowChain, EqualLengthSiblingsFirstSeenStays) {
  // With consensus-fixed difficulty, equal-length branches carry equal
  // work: the first-seen tip is kept (no gratuitous reorgs).
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);

  const PowBlock first = child_of(genesis, 100, NodeId{1});
  const PowBlock second = child_of(genesis, 100, NodeId{2}, {}, 555);
  ASSERT_TRUE(chain.add_block(first).ok());
  ASSERT_TRUE(chain.add_block(second).ok());
  EXPECT_EQ(chain.tip().header.miner, NodeId{1});
  EXPECT_EQ(chain.stale_count(), 1u);
}

TEST(PowChain, RejectsWrongConsensusDifficulty) {
  // Difficulty is consensus state: a miner cannot self-declare a different
  // target (neither lower to mine faster, nor higher to fake extra work).
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);
  EXPECT_FALSE(chain.add_block(child_of(genesis, 50, NodeId{1})).ok());
  EXPECT_FALSE(chain.add_block(child_of(genesis, 300, NodeId{1})).ok());
  EXPECT_TRUE(chain.add_block(child_of(genesis, 100, NodeId{1})).ok());
}

TEST(PowChain, LongerChainBeatsShorter) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);

  const PowBlock a1 = child_of(genesis, 100, NodeId{1});
  ASSERT_TRUE(chain.add_block(a1).ok());

  const PowBlock b1 = child_of(genesis, 100, NodeId{2}, {}, 777);
  const PowBlock b2 = child_of(b1, 100, NodeId{2});
  ASSERT_TRUE(chain.add_block(b1).ok());
  EXPECT_EQ(chain.tip().hash(), a1.hash());  // tie: first seen stays
  ASSERT_TRUE(chain.add_block(b2).ok());
  EXPECT_EQ(chain.tip_height(), 2u);
  EXPECT_EQ(chain.tip().hash(), b2.hash());
}

TEST(PowChain, OrphanConnectsWhenParentArrives) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);

  const PowBlock b1 = child_of(genesis, 100, NodeId{1});
  const PowBlock b2 = child_of(b1, 100, NodeId{1});

  auto orphan_first = chain.add_block(b2);  // parent unknown yet
  ASSERT_TRUE(orphan_first.ok());
  EXPECT_FALSE(orphan_first.value());
  EXPECT_EQ(chain.pending_orphans(), 1u);
  EXPECT_EQ(chain.tip_height(), 0u);

  auto parent = chain.add_block(b1);
  ASSERT_TRUE(parent.ok());
  EXPECT_TRUE(parent.value());
  EXPECT_EQ(chain.tip_height(), 2u);  // orphan auto-connected
  EXPECT_EQ(chain.pending_orphans(), 0u);
}

TEST(PowChain, ConfirmationDepthTracksBestChain) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);

  const ledger::Transaction tx = sample_tx(1, 1);
  const PowBlock b1 = child_of(genesis, 100, NodeId{1}, {tx});
  ASSERT_TRUE(chain.add_block(b1).ok());
  EXPECT_EQ(chain.confirmation_depth(tx.digest()), 0u);

  const PowBlock b2 = child_of(b1, 100, NodeId{1});
  ASSERT_TRUE(chain.add_block(b2).ok());
  EXPECT_EQ(chain.confirmation_depth(tx.digest()), 1u);

  EXPECT_FALSE(chain.confirmation_depth(sample_tx(9, 9).digest()).has_value());
}

TEST(PowChain, ReorgRemovesUnconfirmedTransaction) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);

  const ledger::Transaction tx = sample_tx(1, 1);
  const PowBlock a1 = child_of(genesis, 100, NodeId{1}, {tx});
  ASSERT_TRUE(chain.add_block(a1).ok());
  ASSERT_TRUE(chain.confirmation_depth(tx.digest()).has_value());

  // A longer empty branch orphans the transaction's block.
  const PowBlock b1 = child_of(genesis, 100, NodeId{2}, {}, 999);
  const PowBlock b2 = child_of(b1, 100, NodeId{2});
  ASSERT_TRUE(chain.add_block(b1).ok());
  ASSERT_TRUE(chain.add_block(b2).ok());
  EXPECT_EQ(chain.tip().hash(), b2.hash());
  EXPECT_FALSE(chain.confirmation_depth(tx.digest()).has_value());
}

TEST(PowChain, ReorgDeltasListConnectedAndDisconnectedBlocks) {
  const PowBlock genesis = make_pow_genesis(100, kProof);
  PowChain chain(genesis, kProof);

  // Plain extension: only the connected leg fills.
  const PowBlock a1 = child_of(genesis, 100, NodeId{1});
  ASSERT_TRUE(chain.add_block(a1).ok());
  ASSERT_EQ(chain.last_connected().size(), 1u);
  EXPECT_EQ(chain.last_connected()[0], a1.hash());
  EXPECT_TRUE(chain.last_disconnected().empty());

  // Equal-length sibling: tip unmoved, both legs empty.
  const PowBlock b1 = child_of(genesis, 100, NodeId{2}, {}, 999);
  ASSERT_TRUE(chain.add_block(b1).ok());
  EXPECT_TRUE(chain.last_connected().empty());
  EXPECT_TRUE(chain.last_disconnected().empty());

  // The sibling's branch overtakes: a1 leaves, b1+b2 join (ancestor→tip).
  const PowBlock b2 = child_of(b1, 100, NodeId{2});
  ASSERT_TRUE(chain.add_block(b2).ok());
  ASSERT_EQ(chain.last_connected().size(), 2u);
  EXPECT_EQ(chain.last_connected()[0], b1.hash());
  EXPECT_EQ(chain.last_connected()[1], b2.hash());
  ASSERT_EQ(chain.last_disconnected().size(), 1u);
  EXPECT_EQ(chain.last_disconnected()[0], a1.hash());
}

// --- difficulty retargeting ---------------------------------------------------------

PowBlock timed_child(const PowBlock& parent, const PowChain& chain, Duration gap,
                     NodeId miner = NodeId{1}) {
  PowBlock block;
  block.header.height = parent.header.height + 1;
  block.header.prev_hash = parent.hash();
  block.header.difficulty = chain.next_difficulty(parent.hash());
  block.header.timestamp = parent.header.timestamp + gap;
  block.header.miner = miner;
  return mine_block(std::move(block), kProof);
}

TEST(PowRetarget, RaisesDifficultyWhenBlocksTooFast) {
  RetargetConfig rule;
  rule.interval = 4;
  rule.target_block_time = Duration::seconds(10);
  const PowBlock genesis = make_pow_genesis(1'000'000, kProof);
  PowChain chain(genesis, kProof, rule);

  // Blocks arriving every 2 s against a 10 s target: at the boundary the
  // difficulty rises by ~5x, clamped to the 4x maximum.
  PowBlock tip = genesis;
  for (int i = 0; i < 3; ++i) {
    tip = timed_child(tip, chain, Duration::seconds(2));
    ASSERT_TRUE(chain.add_block(tip).ok());
  }
  const std::uint64_t next = chain.next_difficulty(tip.hash());
  EXPECT_EQ(next, 4'000'000u);  // clamped at 4x
  // And the chain enforces exactly that on the boundary block.
  const PowBlock boundary = timed_child(tip, chain, Duration::seconds(2));
  EXPECT_EQ(boundary.header.difficulty, 4'000'000u);
  EXPECT_TRUE(chain.add_block(boundary).ok());
}

TEST(PowRetarget, LowersDifficultyWhenBlocksTooSlow) {
  RetargetConfig rule;
  rule.interval = 4;
  rule.target_block_time = Duration::seconds(10);
  const PowBlock genesis = make_pow_genesis(1'000'000, kProof);
  PowChain chain(genesis, kProof, rule);

  PowBlock tip = genesis;
  for (int i = 0; i < 3; ++i) {
    tip = timed_child(tip, chain, Duration::seconds(20));  // 2x slower
    ASSERT_TRUE(chain.add_block(tip).ok());
  }
  const std::uint64_t next = chain.next_difficulty(tip.hash());
  EXPECT_NEAR(static_cast<double>(next), 500'000.0, 5'000.0);  // halved
}

TEST(PowRetarget, NoChangeOffBoundary) {
  RetargetConfig rule;
  rule.interval = 8;
  const PowBlock genesis = make_pow_genesis(1'000'000, kProof);
  PowChain chain(genesis, kProof, rule);
  PowBlock tip = timed_child(genesis, chain, Duration::seconds(1));
  ASSERT_TRUE(chain.add_block(tip).ok());
  EXPECT_EQ(chain.next_difficulty(tip.hash()), 1'000'000u);  // height 2: not a boundary
}

TEST(PowRetarget, MinersAdaptToHashrateLoss) {
  // 8 miners with retargeting; half crash mid-run. After the next retarget
  // the difficulty drops, restoring the block interval despite the lost
  // hashrate.
  net::Simulator sim(29);
  net::Network network(sim, net::NetConfig{});
  MinerConfig config;
  config.hashrate = 1e6;
  config.difficulty = 8e6 * 5;  // 5 s blocks with 8 miners
  config.proof_difficulty = kProof;
  RetargetConfig rule;
  rule.interval = 8;
  rule.target_block_time = Duration::seconds(5);
  config.retarget = rule;
  const PowBlock genesis = make_pow_genesis(config.difficulty, kProof);

  std::vector<NodeId> ids;
  for (std::uint64_t i = 1; i <= 8; ++i) ids.push_back(NodeId{i});
  std::vector<std::unique_ptr<Miner>> miners;
  for (NodeId id : ids) {
    miners.push_back(std::make_unique<Miner>(id, ids, genesis, config, network));
  }
  for (auto& miner : miners) miner->start();

  sim.run_until(TimePoint{Duration::seconds(120).ns});
  const std::uint64_t difficulty_before =
      miners[0]->chain().tip().header.difficulty;

  for (std::uint64_t i = 5; i <= 8; ++i) network.crash(NodeId{i});  // half the hashrate gone
  sim.run_until(TimePoint{Duration::seconds(600).ns});
  for (auto& miner : miners) miner->stop();

  const std::uint64_t difficulty_after = miners[0]->chain().tip().header.difficulty;
  EXPECT_LT(difficulty_after, difficulty_before);
  // The chain kept growing after the crash (liveness restored by retarget).
  EXPECT_GT(miners[0]->chain().tip_height(), 30u);
}

// --- simulated mining -----------------------------------------------------------

TEST(PowMining, NetworkConvergesAndConfirms) {
  net::Simulator sim(11);
  net::NetConfig net_config;
  net_config.processing_rate_msgs_per_sec = 10'000;
  net::Network network(sim, net_config);

  MinerConfig config;
  config.hashrate = 1e6;
  config.difficulty = 4'000'000;  // ~4 s per block solo, ~1 s with 4 miners
  config.confirmation_depth = 2;
  config.proof_difficulty = kProof;
  const PowBlock genesis = make_pow_genesis(config.difficulty, kProof);

  std::vector<NodeId> ids;
  for (std::uint64_t i = 1; i <= 4; ++i) ids.push_back(NodeId{i});
  std::vector<std::unique_ptr<Miner>> miners;
  for (NodeId id : ids) {
    miners.push_back(std::make_unique<Miner>(id, ids, genesis, config, network));
  }
  for (auto& miner : miners) miner->start();

  bool confirmed = false;
  Duration confirm_latency{};
  miners[0]->set_confirmed_callback([&](const crypto::Hash256&, Duration latency) {
    confirmed = true;
    confirm_latency = latency;
  });
  miners[0]->submit(sample_tx(50, 1));
  // The tx must also reach other miners (gossip of txs modeled via direct
  // submission to all, as harness clients do).
  for (std::size_t i = 1; i < miners.size(); ++i) miners[i]->submit(sample_tx(50, 1));

  sim.run_until(TimePoint{Duration::seconds(120).ns});
  for (auto& miner : miners) miner->stop();

  EXPECT_TRUE(confirmed);
  EXPECT_GT(confirm_latency.to_seconds(), 1.0);  // multiple block times
  // All miners converge on one best chain.
  const crypto::Hash256 tip = miners[0]->chain().tip_hash();
  for (auto& miner : miners) {
    EXPECT_GE(miner->chain().tip_height() + 1, miners[0]->chain().tip_height());
  }
  (void)tip;
  // Energy was spent: hashes accumulated at the configured rate.
  EXPECT_GT(miners[0]->hashes_computed(), 1e6);
}

TEST(PowMining, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    net::Simulator sim(seed);
    net::Network network(sim, net::NetConfig{});
    MinerConfig config;
    config.difficulty = 2'000'000;
    config.proof_difficulty = kProof;
    const PowBlock genesis = make_pow_genesis(config.difficulty, kProof);
    std::vector<NodeId> ids{NodeId{1}, NodeId{2}};
    Miner a(NodeId{1}, ids, genesis, config, network);
    Miner b(NodeId{2}, ids, genesis, config, network);
    a.start();
    b.start();
    sim.run_until(TimePoint{Duration::seconds(30).ns});
    a.stop();
    b.stop();
    return a.chain().tip_hash();
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

}  // namespace
}  // namespace gpbft::pow
