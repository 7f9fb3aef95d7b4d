// InvariantMonitor unit tests: each detector driven directly through
// on_executed / note_restart / check_* with hand-built blocks.
#include <gtest/gtest.h>

#include <vector>

#include "ledger/block.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"

namespace gpbft::sim {
namespace {

ledger::Transaction client_tx(std::uint64_t client, RequestId request) {
  return ledger::make_normal_tx(NodeId{kClientIdBase + client}, request, Bytes{1, 2, 3}, Amount{1},
                                geo::GeoReport{});
}

ledger::CheckedBlock block_at(Height height, std::vector<ledger::Transaction> txs,
                              std::uint8_t salt = 0) {
  ledger::BlockHeader prev;
  prev.height = height - 1;
  prev.prev_hash.bytes[0] = salt;  // differentiates hashes of rival blocks
  return ledger::CheckedBlock::check(ledger::build_block(prev, std::move(txs), EraId{0},
                                                         ViewId{0}, SeqNum{height}, TimePoint{},
                                                         NodeId{1}))
      .value();
}

TEST(InvariantMonitor, DetectsAgreementViolation) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const ledger::Transaction tx = client_tx(1, 1);
  monitor.expect_submission(tx);

  monitor.on_executed(NodeId{1}, block_at(1, {tx}, 0));
  monitor.on_executed(NodeId{2}, block_at(1, {}, 1));  // rival block, same height

  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::Agreement);
  EXPECT_EQ(monitor.violations()[0].node, NodeId{2});
  EXPECT_FALSE(monitor.clean());
}

TEST(InvariantMonitor, IgnoresFaultyNodesForAgreement) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.set_faulty(NodeId{2}, true);
  monitor.on_executed(NodeId{1}, block_at(1, {}, 0));
  monitor.on_executed(NodeId{2}, block_at(1, {}, 1));  // Byzantine divergence: excluded
  EXPECT_TRUE(monitor.clean());

  monitor.set_faulty(NodeId{2}, false);
  monitor.on_executed(NodeId{2}, block_at(2, {}, 1));
  monitor.on_executed(NodeId{1}, block_at(2, {}, 0));  // now it counts again
  EXPECT_FALSE(monitor.clean());
}

TEST(InvariantMonitor, DetectsUnsubmittedTransaction) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.on_executed(NodeId{1}, block_at(1, {client_tx(1, 99)}));
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::Validity);
}

TEST(InvariantMonitor, DetectsDuplicateExecution) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const ledger::Transaction tx = client_tx(1, 1);
  monitor.expect_submission(tx);
  monitor.on_executed(NodeId{1}, block_at(1, {tx}));
  monitor.on_executed(NodeId{1}, block_at(2, {tx}));  // same tx at a new height
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::DuplicateExecution);
}

TEST(InvariantMonitor, DetectsMissedLivenessDeadline) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.check_bounded_liveness(5, 10, TimePoint{}, Duration::seconds(30));
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::Liveness);

  net::Simulator sim2(1);
  InvariantMonitor satisfied(sim2);
  satisfied.check_bounded_liveness(10, 10, TimePoint{}, Duration::seconds(30));
  EXPECT_TRUE(satisfied.clean());
}

TEST(InvariantMonitor, ViolationCarriesFaultContext) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.note_fault("t=1.000s crash node 2");
  monitor.on_executed(NodeId{1}, block_at(1, {}, 0));
  monitor.on_executed(NodeId{3}, block_at(1, {}, 1));
  ASSERT_FALSE(monitor.clean());
  EXPECT_NE(monitor.report().find("crash node 2"), std::string::npos);
}

// Nodes 1 and 2 both execute heights 1..5, one submitted transaction each.
std::vector<ledger::CheckedBlock> run_five_heights(InvariantMonitor& monitor) {
  std::vector<ledger::CheckedBlock> blocks;
  for (Height height = 1; height <= 5; ++height) {
    const ledger::Transaction tx = client_tx(1, height);
    monitor.expect_submission(tx);
    blocks.push_back(block_at(height, {tx}));
  }
  for (const ledger::CheckedBlock& block : blocks) {
    monitor.on_executed(NodeId{1}, block);
    monitor.on_executed(NodeId{2}, block);
  }
  return blocks;
}

TEST(InvariantMonitor, RestartedNodeReExecutingItsRestoredHeightIsDuplicate) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const std::vector<ledger::CheckedBlock> blocks = run_five_heights(monitor);
  monitor.note_restart(NodeId{2}, 3);  // the disk held heights 1..3

  monitor.on_executed(NodeId{2}, blocks[2]);  // height 3 again
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::DuplicateExecution);
  EXPECT_EQ(monitor.violations()[0].node, NodeId{2});
  EXPECT_EQ(monitor.violations()[0].height, 3u);
}

TEST(InvariantMonitor, RestartedNodeReExecutesTheHeightsItsDiskLost) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const std::vector<ledger::CheckedBlock> blocks = run_five_heights(monitor);
  monitor.note_restart(NodeId{2}, 3);

  // Heights 4 and 5 were executed before the restart but not persisted:
  // the same blocks and transactions at the same heights are clean.
  monitor.on_executed(NodeId{2}, blocks[3]);
  monitor.on_executed(NodeId{2}, blocks[4]);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
}

TEST(InvariantMonitor, SameEmptyBlockTwiceIsDuplicateExecution) {
  // No transaction repeats, so only the height rule can see this.
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const ledger::CheckedBlock block = block_at(1, {});
  monitor.on_executed(NodeId{1}, block);
  monitor.on_executed(NodeId{1}, block);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::DuplicateExecution);
  EXPECT_EQ(monitor.violations()[0].node, NodeId{1});
}

TEST(InvariantMonitor, RestartConvergenceFlagsOnlyTheLaggard) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  std::vector<ledger::CheckedBlock> blocks;
  for (Height height = 1; height <= 5; ++height) blocks.push_back(block_at(height, {}));
  for (const ledger::CheckedBlock& block : blocks) {
    for (std::uint64_t node = 1; node <= 3; ++node) monitor.on_executed(NodeId{node}, block);
  }
  // Both restart at height 2 while the agreed prefix is 5: node 2 gets back
  // to 5, node 3 stops at 4.
  monitor.note_restart(NodeId{2}, 2);
  monitor.note_restart(NodeId{3}, 2);
  for (std::size_t i = 2; i < 5; ++i) monitor.on_executed(NodeId{2}, blocks[i]);
  for (std::size_t i = 2; i < 4; ++i) monitor.on_executed(NodeId{3}, blocks[i]);
  ASSERT_TRUE(monitor.clean()) << monitor.report();

  monitor.check_restart_convergence();
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::RestartConvergence);
  EXPECT_EQ(monitor.violations()[0].node, NodeId{3});
  EXPECT_EQ(monitor.violations()[0].height, 4u);
  EXPECT_EQ(monitor.restarts_observed(), 2u);
}

TEST(InvariantMonitor, TransactionAtTwoHeightsFlagsEveryExecutorOfTheSecond) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const ledger::Transaction tx = client_tx(1, 1);
  monitor.expect_submission(tx);
  const ledger::CheckedBlock first = block_at(1, {tx});
  const ledger::CheckedBlock second = block_at(2, {client_tx(1, 2), tx});
  monitor.expect_submission(client_tx(1, 2));
  for (std::uint64_t node = 1; node <= 3; ++node) monitor.on_executed(NodeId{node}, first);
  for (std::uint64_t node = 1; node <= 3; ++node) monitor.on_executed(NodeId{node}, second);

  ASSERT_EQ(monitor.violations().size(), 3u);
  for (std::uint64_t node = 1; node <= 3; ++node) {
    const Violation& violation = monitor.violations()[node - 1];
    EXPECT_EQ(violation.kind, Violation::Kind::DuplicateExecution);
    EXPECT_EQ(violation.node, NodeId{node});
    EXPECT_EQ(violation.height, 2u);
  }
}

}  // namespace
}  // namespace gpbft::sim
