// dBFT baseline tests: stake registry, vote transactions, two-phase
// finality, speaker rotation, block pacing, and epoch re-election.
#include <gtest/gtest.h>

#include <memory>

#include "dbft/delegate.hpp"
#include "ledger/genesis.hpp"
#include "pbft/client.hpp"
#include "sim/workload.hpp"

namespace gpbft::dbft {
namespace {

// --- stake registry ----------------------------------------------------------

TEST(StakeRegistry, ElectsByVotedWeight) {
  StakeRegistry registry;
  registry.set_stake(NodeId{10}, 100);
  registry.set_stake(NodeId{11}, 50);
  registry.set_stake(NodeId{12}, 25);
  registry.vote(NodeId{10}, NodeId{1});
  registry.vote(NodeId{11}, NodeId{2});
  registry.vote(NodeId{12}, NodeId{2});

  EXPECT_EQ(registry.weight_of(NodeId{1}), 100u);
  EXPECT_EQ(registry.weight_of(NodeId{2}), 75u);
  const auto elected = registry.elect(2);
  ASSERT_EQ(elected.size(), 2u);
  EXPECT_EQ(elected[0], NodeId{1});
  EXPECT_EQ(elected[1], NodeId{2});
}

TEST(StakeRegistry, RevoteReplacesPreviousVote) {
  StakeRegistry registry;
  registry.set_stake(NodeId{10}, 100);
  registry.vote(NodeId{10}, NodeId{1});
  registry.vote(NodeId{10}, NodeId{2});
  EXPECT_EQ(registry.weight_of(NodeId{1}), 0u);
  EXPECT_EQ(registry.weight_of(NodeId{2}), 100u);
}

TEST(StakeRegistry, TiesBreakByLowerId) {
  StakeRegistry registry;
  registry.set_stake(NodeId{10}, 50);
  registry.set_stake(NodeId{11}, 50);
  registry.vote(NodeId{10}, NodeId{7});
  registry.vote(NodeId{11}, NodeId{3});
  const auto elected = registry.elect(2);
  ASSERT_EQ(elected.size(), 2u);
  EXPECT_EQ(elected[0], NodeId{3});
}

TEST(StakeRegistry, ZeroWeightNotElected) {
  StakeRegistry registry;
  registry.set_stake(NodeId{10}, 0);  // voter with no stake
  registry.vote(NodeId{10}, NodeId{1});
  EXPECT_TRUE(registry.elect(3).empty());
}

TEST(StakeRegistry, ElectCapsAtCount) {
  StakeRegistry registry;
  for (std::uint64_t i = 0; i < 10; ++i) {
    registry.set_stake(NodeId{100 + i}, 10 + i);
    registry.vote(NodeId{100 + i}, NodeId{i});
  }
  EXPECT_EQ(registry.elect(4).size(), 4u);
}

// --- vote transactions -----------------------------------------------------------

geo::GeoReport geo_here() {
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.10};
  return report;
}

TEST(VoteTx, RoundtripAndParse) {
  const ledger::Transaction vote = make_vote_tx(NodeId{10}, 1, NodeId{3}, geo_here());
  const auto parsed = parse_vote_tx(vote);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, NodeId{3});

  // Survives wire encoding.
  const Bytes encoded = vote.encode();
  const auto decoded = ledger::Transaction::decode(BytesView(encoded.data(), encoded.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(parse_vote_tx(decoded.value()), NodeId{3});
}

TEST(VoteTx, NonVotesReturnNullopt) {
  EXPECT_FALSE(parse_vote_tx(ledger::make_normal_tx(NodeId{1}, 1, Bytes{1, 2}, 5, geo_here()))
                   .has_value());
  EXPECT_FALSE(parse_vote_tx(ledger::make_geo_report_tx(NodeId{1}, 1, geo_here())).has_value());
}

// --- delegate network fixture -------------------------------------------------------

struct DbftNet {
  net::Simulator sim{17};
  net::NetConfig net_config;
  std::unique_ptr<net::Network> network;
  crypto::KeyRegistry keys{17};
  std::vector<std::unique_ptr<Delegate>> nodes;
  std::vector<std::unique_ptr<pbft::Client>> clients;

  /// `total` dBFT nodes (ids 1..total); the first `delegates` form the
  /// genesis roster. Stakeholders 10001.. with stake 100 each.
  DbftNet(std::size_t total, std::size_t delegates, DbftConfig config,
          std::size_t client_count = 1) {
    network = std::make_unique<net::Network>(sim, net_config);

    ledger::GenesisConfig genesis_config;
    for (std::size_t i = 0; i < delegates; ++i) {
      genesis_config.initial_endorsers.push_back(
          ledger::EndorserInfo{NodeId{i + 1}, geo::GeoPoint{22.39, 114.10}});
    }
    const ledger::Block genesis = ledger::make_genesis_block(genesis_config);

    std::vector<NodeId> all;
    for (std::size_t i = 0; i < total; ++i) all.push_back(NodeId{i + 1});

    StakeRegistry stakes;
    for (std::size_t i = 0; i < client_count; ++i) {
      stakes.set_stake(NodeId{10'001 + i}, 100);
    }

    for (std::size_t i = 0; i < total; ++i) {
      nodes.push_back(std::make_unique<Delegate>(NodeId{i + 1}, genesis, config, stakes, all,
                                                 *network, keys));
    }
    std::vector<NodeId> roster;
    for (std::size_t i = 0; i < delegates; ++i) roster.push_back(NodeId{i + 1});
    for (std::size_t i = 0; i < client_count; ++i) {
      clients.push_back(std::make_unique<pbft::Client>(NodeId{10'001 + i}, roster, *network,
                                                       keys, config.pbft.compute_macs));
    }
  }

  void start() {
    for (auto& node : nodes) node->start();
    for (auto& client : clients) client->start();
  }
  void run_for(Duration d) { sim.run_until(sim.now() + d); }
  ledger::Transaction tx(std::size_t client_index, RequestId request) {
    return sim::make_workload_tx(clients[client_index]->id(), request,
                                 geo::GeoPoint{22.39, 114.10}, sim.now(), 16, 10, request);
  }
};

DbftConfig fast_dbft() {
  DbftConfig config;
  config.block_interval = Duration::seconds(3);
  config.delegate_count = 4;
  config.epoch_blocks = 4;
  config.pbft.request_timeout = Duration::seconds(30);
  return config;
}

TEST(Delegate, DefaultRuleRunsCommitPhase) {
  // dBFT 2.0 by default: finality takes the full PREPARE + COMMIT exchange
  // (the 1.0 two-phase rule forks under loss + view change).
  DbftNet net(4, 4, fast_dbft());
  net.start();
  net.clients[0]->set_commit_callback([](const crypto::Hash256&, Height, Duration) {});
  net.clients[0]->submit(net.tx(0, 1));
  net.run_for(Duration::seconds(10));

  EXPECT_EQ(net.clients[0]->committed_count(), 1u);
  EXPECT_EQ(net.nodes[0]->chain().height(), 1u);
  const auto& by_type = net.network->stats().bytes_by_type;
  EXPECT_TRUE(by_type.contains(pbft::msg_type::kCommit));
  EXPECT_TRUE(by_type.contains(pbft::msg_type::kPrepare));
}

TEST(Delegate, LegacyTwoPhaseCommitsWithoutCommitRound) {
  DbftConfig config = fast_dbft();
  config.legacy_two_phase = true;  // dBFT 1.0 ablation
  DbftNet net(4, 4, config);
  net.start();
  net.clients[0]->set_commit_callback([](const crypto::Hash256&, Height, Duration) {});
  net.clients[0]->submit(net.tx(0, 1));
  net.run_for(Duration::seconds(10));

  EXPECT_EQ(net.clients[0]->committed_count(), 1u);
  EXPECT_EQ(net.nodes[0]->chain().height(), 1u);
  // No COMMIT-phase traffic at all: 1.0 finalizes on the PREPARE quorum.
  const auto& by_type = net.network->stats().bytes_by_type;
  EXPECT_FALSE(by_type.contains(pbft::msg_type::kCommit));
  EXPECT_TRUE(by_type.contains(pbft::msg_type::kPrepare));
}

TEST(Delegate, BlockPacingHoldsInterval) {
  DbftNet net(4, 4, fast_dbft());
  net.start();

  // Two transactions submitted back-to-back land in two blocks at least one
  // interval apart (the first block waits for the first interval tick).
  net.clients[0]->submit(net.tx(0, 1));
  net.run_for(Duration::seconds(4));
  net.clients[0]->submit(net.tx(0, 2));
  net.run_for(Duration::seconds(8));

  const auto& chain = net.nodes[0]->chain();
  ASSERT_EQ(chain.height(), 2u);
  const double gap = (chain.at(2).header.timestamp - chain.at(1).header.timestamp).to_seconds();
  EXPECT_GE(gap, 3.0);
}

TEST(Delegate, SpeakerRotatesAcrossBlocks) {
  DbftConfig config = fast_dbft();
  config.block_interval = Duration::seconds(1);
  DbftNet net(4, 4, config);
  net.start();

  for (RequestId r = 1; r <= 4; ++r) {
    net.clients[0]->submit(net.tx(0, r));
    net.run_for(Duration::seconds(3));
  }
  const auto& chain = net.nodes[0]->chain();
  ASSERT_GE(chain.height(), 3u);
  std::set<NodeId> producers;
  for (Height h = 1; h <= chain.height(); ++h) producers.insert(chain.at(h).header.producer);
  EXPECT_GE(producers.size(), 2u);  // rotation happened
}

TEST(Delegate, EpochReelectionFromOnChainVotes) {
  DbftConfig config = fast_dbft();
  config.block_interval = Duration::seconds(1);
  config.epoch_blocks = 1;  // the block carrying the votes is the boundary
  // 6 nodes; genesis roster 1-4. The stakeholders vote nodes 3,4,5,6 in.
  DbftNet net(6, 4, config, /*clients=*/4);
  net.start();

  net.clients[0]->submit(make_vote_tx(net.clients[0]->id(), 1, NodeId{3}, geo_here()));
  net.clients[1]->submit(make_vote_tx(net.clients[1]->id(), 1, NodeId{4}, geo_here()));
  net.clients[2]->submit(make_vote_tx(net.clients[2]->id(), 1, NodeId{5}, geo_here()));
  net.clients[3]->submit(make_vote_tx(net.clients[3]->id(), 1, NodeId{6}, geo_here()));
  net.run_for(Duration::seconds(12));

  // After the epoch boundary the roster is {3,4,5,6} on every node.
  const auto& delegates = net.nodes[0]->delegates();
  std::vector<NodeId> sorted = delegates;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeId>{NodeId{3}, NodeId{4}, NodeId{5}, NodeId{6}}));
  EXPECT_TRUE(net.nodes[4]->is_delegate());
  EXPECT_FALSE(net.nodes[0]->is_delegate());
  EXPECT_GE(net.nodes[0]->epochs_completed(), 1u);

  // The new roster, including freshly promoted node 6, keeps committing.
  for (auto& client : net.clients) {
    client->set_committee(net.nodes[0]->delegates());
  }
  net.clients[0]->submit(net.tx(0, 50));
  net.run_for(Duration::seconds(8));
  EXPECT_GE(net.nodes[4]->chain().height(), net.nodes[0]->chain().height());
}

TEST(Delegate, ObserversFollowThePublishedChain) {
  DbftConfig config = fast_dbft();
  config.block_interval = Duration::seconds(1);
  // Nodes 5 and 6 are pure observers (never delegates: nobody votes).
  DbftNet net(6, 4, config);
  net.start();

  for (RequestId r = 1; r <= 3; ++r) {
    net.clients[0]->submit(net.tx(0, r));
    net.run_for(Duration::seconds(3));
  }
  ASSERT_GE(net.nodes[0]->chain().height(), 1u);
  EXPECT_EQ(net.nodes[4]->chain().height(), net.nodes[0]->chain().height());
  EXPECT_EQ(net.nodes[5]->chain().tip().hash(), net.nodes[0]->chain().tip().hash());
}

TEST(Delegate, SurvivesCrashedSpeakerViaViewChange) {
  DbftConfig config = fast_dbft();
  config.block_interval = Duration::seconds(1);
  config.pbft.request_timeout = Duration::seconds(6);
  config.pbft.view_change_timeout = Duration::seconds(5);
  DbftNet net(4, 4, config);
  net.start();

  // Crash the speaker for height 1 (delegates[(1 + 0) % 4] = node 2).
  net.network->crash(net.nodes[0]->primary_of(0));
  net.clients[0]->submit(net.tx(0, 1));
  net.run_for(Duration::seconds(40));

  EXPECT_EQ(net.clients[0]->committed_count(), 1u);
}

}  // namespace
}  // namespace gpbft::dbft
