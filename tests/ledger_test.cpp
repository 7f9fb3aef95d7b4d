// Ledger tests: transactions (incl. geo trailer), blocks, genesis policy,
// chain validation & fork detection, fee-splitting state, mempool.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "geo/geohash.hpp"
#include "ledger/chain.hpp"
#include "ledger/genesis.hpp"
#include "ledger/mempool.hpp"
#include "ledger/state.hpp"

namespace gpbft::ledger {
namespace {

geo::GeoReport report_at(double lat, double lng, std::int64_t sec) {
  geo::GeoReport report;
  report.point = geo::GeoPoint{lat, lng};
  report.timestamp = TimePoint{Duration::seconds(sec).ns};
  return report;
}

Transaction sample_tx(std::uint64_t sender = 1, RequestId request = 1) {
  return make_normal_tx(NodeId{sender}, request, Bytes{1, 2, 3}, 10,
                        report_at(22.39, 114.10, 5));
}

// --- transactions -----------------------------------------------------------------

TEST(Transaction, EncodeDecodeRoundtrip) {
  const Transaction tx = sample_tx();
  const Bytes encoded = tx.encode();
  const auto decoded = Transaction::decode(BytesView(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), tx);
}

TEST(Transaction, ConfigRoundtrip) {
  EraConfig config;
  config.era = 3;
  config.endorsers = {NodeId{5}, NodeId{2}, NodeId{9}};
  config.cells = {"wecpk7wzeu0f", "wecpk7wzeu0g", "wecpk7wzeu0h"};
  const Transaction tx = make_config_tx(NodeId{5}, 7, config, report_at(22.39, 114.10, 60));
  const Bytes encoded = tx.encode();
  const auto decoded = Transaction::decode(BytesView(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().kind, TxKind::Config);
  EXPECT_EQ(decoded.value().era_config, config);
}

TEST(Transaction, GeoTrailerPreserved) {
  const Transaction tx = sample_tx();
  const auto decoded = Transaction::decode(BytesView(tx.encode().data(), tx.encode().size()));
  // note: encode() called twice above returns identical bytes
  const Bytes encoded = tx.encode();
  const auto again = Transaction::decode(BytesView(encoded.data(), encoded.size()));
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again.value().geo.point.latitude, 22.39);
  EXPECT_DOUBLE_EQ(again.value().geo.point.longitude, 114.10);
  EXPECT_EQ(again.value().geo.timestamp.ns, Duration::seconds(5).ns);
}

TEST(Transaction, DigestChangesWithContent) {
  Transaction a = sample_tx();
  Transaction b = a;
  b.payload[0] ^= 1;
  EXPECT_NE(a.digest(), b.digest());
  Transaction c = a;
  c.fee += 1;
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Transaction, DecodeRejectsGarbage) {
  const Bytes garbage = {0x07, 0x01, 0x02};
  EXPECT_FALSE(Transaction::decode(BytesView(garbage.data(), garbage.size())).ok());
  EXPECT_FALSE(Transaction::decode(BytesView{}).ok());
}

TEST(Transaction, DecodeRejectsTrailingBytes) {
  Bytes encoded = sample_tx().encode();
  encoded.push_back(0x00);
  EXPECT_FALSE(Transaction::decode(BytesView(encoded.data(), encoded.size())).ok());
}

TEST(Transaction, SenderAddressDerivedFromSender) {
  const Transaction tx = sample_tx(42);
  EXPECT_EQ(tx.sender_address, crypto::address_for_node(NodeId{42}));
}

// --- blocks ------------------------------------------------------------------------

GenesisConfig small_genesis() {
  GenesisConfig config;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    config.initial_endorsers.push_back(EndorserInfo{NodeId{i}, geo::GeoPoint{22.39, 114.1}});
  }
  return config;
}

TEST(Block, BuildLinksAndCommits) {
  const Block genesis = make_genesis_block(small_genesis());
  const Block next = build_block(genesis.header, {sample_tx()}, 0, 0, 1,
                                 TimePoint{Duration::seconds(1).ns}, NodeId{1});
  EXPECT_EQ(next.header.height, 1u);
  EXPECT_EQ(next.header.prev_hash, genesis.hash());
  EXPECT_EQ(next.header.merkle_root, next.compute_merkle_root());
}

TEST(Block, EncodeDecodeRoundtrip) {
  const Block genesis = make_genesis_block(small_genesis());
  const Block next = build_block(genesis.header, {sample_tx(1, 1), sample_tx(2, 1)}, 1, 2, 3,
                                 TimePoint{Duration::seconds(9).ns}, NodeId{3});
  const Bytes encoded = next.encode();
  const auto decoded = Block::decode(BytesView(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), next);
  EXPECT_EQ(decoded.value().hash(), next.hash());
}

TEST(Block, HashCoversHeaderFields) {
  const Block genesis = make_genesis_block(small_genesis());
  Block a = build_block(genesis.header, {sample_tx()}, 0, 0, 1, TimePoint{1}, NodeId{1});
  Block b = a;
  b.header.producer = NodeId{2};
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Block, TotalFees) {
  const Block genesis = make_genesis_block(small_genesis());
  const Block next = build_block(genesis.header, {sample_tx(1, 1), sample_tx(2, 1)}, 0, 0, 1,
                                 TimePoint{1}, NodeId{1});
  EXPECT_EQ(next.total_fees(), 20u);
}

TEST(Block, EmptyBlockHasMerkleRoot) {
  const Block genesis = make_genesis_block(small_genesis());
  const Block next = build_block(genesis.header, {}, 0, 0, 1, TimePoint{1}, NodeId{1});
  EXPECT_FALSE(next.header.merkle_root.is_zero());
}

// --- genesis --------------------------------------------------------------------------

TEST(Genesis, ContainsInitialRosterAsConfigTx) {
  const Block genesis = make_genesis_block(small_genesis());
  ASSERT_EQ(genesis.transactions.size(), 1u);
  EXPECT_EQ(genesis.transactions[0].kind, TxKind::Config);
  EXPECT_EQ(genesis.transactions[0].era_config.era, 0u);
  EXPECT_EQ(genesis.transactions[0].era_config.endorsers.size(), 4u);
  EXPECT_EQ(genesis.header.height, 0u);
  EXPECT_TRUE(genesis.header.prev_hash.is_zero());
}

TEST(Genesis, RecordsCoreDeviceLocations) {
  // §III-C: the genesis block contains the geographic locations of the core
  // devices, carried as enrolled cells in the configuration transaction.
  const Block genesis = make_genesis_block(small_genesis());
  const EraConfig& config = genesis.transactions[0].era_config;
  ASSERT_EQ(config.cells.size(), config.endorsers.size());
  for (const std::string& cell : config.cells) {
    EXPECT_EQ(cell, geo::geohash_encode(geo::GeoPoint{22.39, 114.1}));
  }
}

TEST(Genesis, PolicyLists) {
  AdmittancePolicy policy;
  policy.blacklist = {NodeId{9}};
  policy.whitelist = {NodeId{4}};
  EXPECT_TRUE(policy.blacklisted(NodeId{9}));
  EXPECT_FALSE(policy.blacklisted(NodeId{4}));
  EXPECT_TRUE(policy.whitelisted(NodeId{4}));
  EXPECT_FALSE(policy.whitelisted(NodeId{9}));
}

// --- chain ------------------------------------------------------------------------------

TEST(Chain, AppendsValidBlocks) {
  Chain chain(make_genesis_block(small_genesis()));
  const Block next = build_block(chain.tip().header, {sample_tx()}, 0, 0, 1, TimePoint{1},
                                 NodeId{1});
  ASSERT_TRUE(chain.append(next).ok());
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(chain.at(1), next);
}

TEST(Chain, RejectsWrongHeight) {
  Chain chain(make_genesis_block(small_genesis()));
  Block bad = build_block(chain.tip().header, {sample_tx()}, 0, 0, 1, TimePoint{1}, NodeId{1});
  bad.header.height = 5;
  EXPECT_FALSE(chain.append(bad).ok());
}

TEST(Chain, RejectsBrokenLink) {
  Chain chain(make_genesis_block(small_genesis()));
  Block bad = build_block(chain.tip().header, {sample_tx()}, 0, 0, 1, TimePoint{1}, NodeId{1});
  bad.header.prev_hash.bytes[0] ^= 1;
  EXPECT_FALSE(chain.append(bad).ok());
}

TEST(Chain, RejectsBadMerkleRoot) {
  Chain chain(make_genesis_block(small_genesis()));
  Block bad = build_block(chain.tip().header, {sample_tx()}, 0, 0, 1, TimePoint{1}, NodeId{1});
  bad.transactions.push_back(sample_tx(2, 2));  // body no longer matches root
  EXPECT_FALSE(chain.append(bad).ok());
}

TEST(Chain, RejectsABodyThatRepeatsATransaction) {
  // The Merkle tree pairs an odd node with itself, so [a, b, c] and
  // [a, b, c, c] share a root and hence a block hash, though their bodies
  // differ. Only the body without the repeat may be appended.
  const Block genesis = make_genesis_block(small_genesis());
  const Transaction a = sample_tx(1, 1);
  const Transaction b = sample_tx(2, 2);
  const Transaction c = sample_tx(3, 3);
  const Block honest =
      build_block(genesis.header, {a, b, c}, 0, 0, 1, TimePoint{1}, NodeId{1});
  const Block padded =
      build_block(genesis.header, {a, b, c, c}, 0, 0, 1, TimePoint{1}, NodeId{1});
  EXPECT_EQ(honest.hash(), padded.hash());
  EXPECT_NE(honest.encode(), padded.encode());

  Chain chain(genesis);
  const auto refused = chain.append(padded);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find("repeats"), std::string::npos) << refused.error();
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_TRUE(chain.append(honest).ok());
}

TEST(Chain, FindsTransactionsByDigest) {
  Chain chain(make_genesis_block(small_genesis()));
  const Transaction tx = sample_tx();
  const Block next = build_block(chain.tip().header, {tx}, 0, 0, 1, TimePoint{1}, NodeId{1});
  ASSERT_TRUE(chain.append(next).ok());
  const auto found = chain.find_transaction(tx.digest());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 1u);
  EXPECT_FALSE(chain.find_transaction(sample_tx(9, 9).digest()).has_value());
}

TEST(Block, CheckBodyReturnsTheLeafDigestsInBodyOrder) {
  const Block genesis = make_genesis_block(small_genesis());
  const std::vector<Transaction> body = {sample_tx(3, 1), sample_tx(1, 1), sample_tx(2, 7)};
  const Block block = build_block(genesis.header, body, 0, 0, 1, TimePoint{1}, NodeId{1});
  const auto digests = check_body(block.transactions, block.header.merkle_root);
  ASSERT_TRUE(digests.ok()) << digests.error();
  ASSERT_EQ(digests.value().size(), body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    EXPECT_EQ(digests.value()[i], body[i].digest()) << "leaf " << i;
  }

  const auto checked = CheckedBlock::check(block);
  ASSERT_TRUE(checked.ok()) << checked.error();
  EXPECT_EQ(checked.value().block(), block);
  EXPECT_EQ(checked.value().digests(), digests.value());
}

TEST(CheckedBlock, RefusesAWrongRootOrARepeatedTransaction) {
  const Block genesis = make_genesis_block(small_genesis());
  const Transaction a = sample_tx(1, 1);
  const Transaction b = sample_tx(2, 2);
  const Transaction c = sample_tx(3, 3);

  Block wrong_root = build_block(genesis.header, {a, b}, 0, 0, 1, TimePoint{1}, NodeId{1});
  wrong_root.header.merkle_root.bytes[0] ^= 0xff;
  const auto refused_root = CheckedBlock::check(wrong_root);
  ASSERT_FALSE(refused_root.ok());
  EXPECT_NE(refused_root.error().find("merkle root"), std::string::npos) << refused_root.error();

  Block grown = build_block(genesis.header, {a, b}, 0, 0, 1, TimePoint{1}, NodeId{1});
  grown.transactions.push_back(c);  // the root no longer commits to the body
  EXPECT_FALSE(CheckedBlock::check(grown).ok());

  const Block padded = build_block(genesis.header, {a, b, c, c}, 0, 0, 1, TimePoint{1}, NodeId{1});
  const auto refused_repeat = CheckedBlock::check(padded);
  ASSERT_FALSE(refused_repeat.ok());
  EXPECT_NE(refused_repeat.error().find("repeats"), std::string::npos) << refused_repeat.error();
}

TEST(Chain, CheckedAppendRefusesWrongHeightAndBrokenLink) {
  Chain chain(make_genesis_block(small_genesis()));
  Block tall = build_block(chain.tip().header, {sample_tx()}, 0, 0, 1, TimePoint{1}, NodeId{1});
  tall.header.height = 2;
  Block unlinked =
      build_block(chain.tip().header, {sample_tx()}, 0, 0, 1, TimePoint{1}, NodeId{1});
  unlinked.header.prev_hash.bytes[0] ^= 1;
  const auto tall_checked = CheckedBlock::check(tall);
  const auto unlinked_checked = CheckedBlock::check(unlinked);
  ASSERT_TRUE(tall_checked.ok());  // the bodies are sound; only the links are not
  ASSERT_TRUE(unlinked_checked.ok());

  const auto wrong_height = chain.append(tall_checked.value());
  ASSERT_FALSE(wrong_height.ok());
  EXPECT_NE(wrong_height.error().find("does not extend"), std::string::npos)
      << wrong_height.error();
  const auto broken_link = chain.append(unlinked_checked.value());
  ASSERT_FALSE(broken_link.ok());
  EXPECT_NE(broken_link.error().find("link broken"), std::string::npos) << broken_link.error();
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_FALSE(chain.find_transaction(sample_tx().digest()).has_value());
}

TEST(Chain, FindsEveryTransactionAtItsHeightWhicheverAppendAddedIt) {
  Chain chain(make_genesis_block(small_genesis()));
  std::vector<std::pair<Transaction, Height>> placed;
  for (Height h = 1; h <= 4; ++h) {
    std::vector<Transaction> body;
    for (RequestId r = 1; r <= h; ++r) {
      body.push_back(sample_tx(h, r));
      placed.emplace_back(body.back(), h);
    }
    Block block = build_block(chain.tip().header, std::move(body), 0, 0, h, TimePoint{1},
                              NodeId{1});
    if (h % 2 == 0) {
      ASSERT_TRUE(chain.append(std::move(block)).ok());
    } else {
      const auto checked = CheckedBlock::check(std::move(block));
      ASSERT_TRUE(checked.ok()) << checked.error();
      ASSERT_TRUE(chain.append(checked.value()).ok());
    }
  }
  ASSERT_EQ(chain.height(), 4u);
  for (const auto& [tx, height] : placed) {
    const auto found = chain.find_transaction(tx.digest());
    ASSERT_TRUE(found.has_value()) << "tx of sender " << tx.sender.value;
    EXPECT_EQ(*found, height);
  }
}

TEST(Chain, TracksEraConfig) {
  Chain chain(make_genesis_block(small_genesis()));
  EXPECT_EQ(chain.current_era_config().era, 0u);
  EraConfig next_era;
  next_era.era = 1;
  next_era.endorsers = {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}};
  const Transaction config_tx =
      make_config_tx(NodeId{1}, 1, next_era, report_at(22.39, 114.1, 60));
  const Block next =
      build_block(chain.tip().header, {config_tx}, 1, 0, 1, TimePoint{1}, NodeId{1});
  ASSERT_TRUE(chain.append(next).ok());
  EXPECT_EQ(chain.current_era_config().era, 1u);
  EXPECT_EQ(chain.current_era_config().endorsers.size(), 5u);
}

TEST(Chain, ObserveHeaderDetectsFork) {
  Chain chain(make_genesis_block(small_genesis()));
  const Block committed =
      build_block(chain.tip().header, {sample_tx()}, 0, 0, 1, TimePoint{1}, NodeId{1});
  ASSERT_TRUE(chain.append(committed).ok());

  // Same header: no fork.
  EXPECT_FALSE(chain.observe_header(committed.header).has_value());

  // A different block at the committed height: fork evidence against its producer.
  Block conflicting =
      build_block(chain.at(0).header, {sample_tx(3, 3)}, 0, 0, 1, TimePoint{2}, NodeId{2});
  const auto evidence = chain.observe_header(conflicting.header);
  ASSERT_TRUE(evidence.has_value());
  EXPECT_EQ(evidence->height, 1u);
  EXPECT_EQ(evidence->producer, NodeId{2});

  // A header above the tip is not (yet) evidence of anything.
  Block future = build_block(committed.header, {}, 0, 0, 2, TimePoint{3}, NodeId{2});
  EXPECT_FALSE(chain.observe_header(future.header).has_value());
}

// --- state ----------------------------------------------------------------------------------

TEST(State, FeeSplitSeventyThirty) {
  State state;
  const std::vector<NodeId> endorsers = {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  Chain chain(make_genesis_block(small_genesis()));

  // One tx with fee 100 from client 50, block produced by endorser 1.
  Transaction tx = make_normal_tx(NodeId{50}, 1, Bytes{1}, 100, report_at(22.39, 114.1, 1));
  const Block block = build_block(chain.tip().header, {tx}, 0, 0, 1, TimePoint{1}, NodeId{1});
  state.apply_block(block, endorsers);

  EXPECT_EQ(state.balance_of_node(NodeId{50}), -100);
  EXPECT_EQ(state.balance_of_node(NodeId{1}), 70);  // producer: 70%
  EXPECT_EQ(state.balance_of_node(NodeId{2}), 10);  // 30% split across 3 peers
  EXPECT_EQ(state.balance_of_node(NodeId{3}), 10);
  EXPECT_EQ(state.balance_of_node(NodeId{4}), 10);
}

TEST(State, RemainderGoesToProducer) {
  State state;
  const std::vector<NodeId> endorsers = {NodeId{1}, NodeId{2}, NodeId{3}};
  Chain chain(make_genesis_block(small_genesis()));
  Transaction tx = make_normal_tx(NodeId{50}, 1, Bytes{1}, 101, report_at(22.39, 114.1, 1));
  const Block block = build_block(chain.tip().header, {tx}, 0, 0, 1, TimePoint{1}, NodeId{1});
  state.apply_block(block, endorsers);
  // floor(101*0.7)=70 producer, pool 31 -> 15 each to 2 peers, remainder 1 to producer.
  EXPECT_EQ(state.balance_of_node(NodeId{1}), 71);
  EXPECT_EQ(state.balance_of_node(NodeId{2}), 15);
  EXPECT_EQ(state.balance_of_node(NodeId{3}), 15);
  // Conservation: sum of credits equals total fees.
  EXPECT_EQ(state.balance_of_node(NodeId{1}) + state.balance_of_node(NodeId{2}) +
                state.balance_of_node(NodeId{3}),
            101);
}

TEST(State, SoloProducerKeepsAll) {
  State state;
  Chain chain(make_genesis_block(small_genesis()));
  Transaction tx = make_normal_tx(NodeId{50}, 1, Bytes{1}, 100, report_at(22.39, 114.1, 1));
  const Block block = build_block(chain.tip().header, {tx}, 0, 0, 1, TimePoint{1}, NodeId{1});
  state.apply_block(block, {NodeId{1}});
  EXPECT_EQ(state.balance_of_node(NodeId{1}), 100);
}

TEST(State, TracksLatestPayloadAndCounters) {
  State state;
  Chain chain(make_genesis_block(small_genesis()));
  Transaction tx1 = make_normal_tx(NodeId{5}, 1, Bytes{1, 1}, 0, report_at(22.39, 114.1, 1));
  Transaction tx2 = make_normal_tx(NodeId{5}, 2, Bytes{2, 2}, 0, report_at(22.39, 114.1, 2));
  const Block block =
      build_block(chain.tip().header, {tx1, tx2}, 0, 0, 1, TimePoint{1}, NodeId{1});
  state.apply_block(block, {NodeId{1}});
  EXPECT_EQ(state.applied_transactions(), 2u);
  EXPECT_EQ(state.applied_blocks(), 1u);
  const auto latest = state.latest_payload(NodeId{5});
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, (Bytes{2, 2}));
  EXPECT_FALSE(state.latest_payload(NodeId{6}).has_value());
}

// --- mempool -----------------------------------------------------------------------------------

bool add(Mempool& pool, const Transaction& tx) { return pool.add(tx, tx.digest()); }

TEST(Mempool, AddAndPopFifo) {
  Mempool pool;
  const Transaction a = sample_tx(1, 1), b = sample_tx(1, 2);
  EXPECT_TRUE(add(pool, a));
  EXPECT_TRUE(add(pool, b));
  EXPECT_EQ(pool.size(), 2u);

  const auto batch = pool.pop_batch(10, nullptr);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], a);
  EXPECT_EQ(batch[1], b);
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, RejectsDuplicates) {
  Mempool pool;
  EXPECT_TRUE(add(pool, sample_tx()));
  EXPECT_FALSE(add(pool, sample_tx()));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, RespectsCapacity) {
  Mempool pool(2);
  EXPECT_TRUE(add(pool, sample_tx(1, 1)));
  EXPECT_TRUE(add(pool, sample_tx(1, 2)));
  EXPECT_FALSE(add(pool, sample_tx(1, 3)));
}

TEST(Mempool, PopBatchSkipsCommitted) {
  Mempool pool;
  const Transaction a = sample_tx(1, 1), b = sample_tx(1, 2);
  add(pool, a);
  add(pool, b);
  const crypto::Hash256 committed = a.digest();
  const auto batch =
      pool.pop_batch(10, [&committed](const crypto::Hash256& d) { return d == committed; });
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], b);
}

TEST(Mempool, PopBatchBounded) {
  Mempool pool;
  for (RequestId i = 1; i <= 10; ++i) add(pool, sample_tx(1, i));
  EXPECT_EQ(pool.pop_batch(3, nullptr).size(), 3u);
  EXPECT_EQ(pool.size(), 7u);
}

TEST(Mempool, RemoveByDigest) {
  Mempool pool;
  const Transaction a = sample_tx(1, 1);
  add(pool, a);
  add(pool, sample_tx(1, 2));
  pool.remove(a.digest());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.contains(a.digest()));
  // Re-adding after removal works (digest index consistent).
  EXPECT_TRUE(add(pool, a));
}

TEST(Mempool, ClearEmptiesEverything) {
  Mempool pool;
  add(pool, sample_tx(1, 1));
  pool.clear();
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(add(pool, sample_tx(1, 1)));
}

}  // namespace
}  // namespace gpbft::ledger
