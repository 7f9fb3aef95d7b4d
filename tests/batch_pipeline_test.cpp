// Batched request pipeline + per-client reply cache (label: tier1-batch).
//
// Covers the four contracts of docs/protocol.md §11:
//   * batch.size=1 reproduces the unbatched seed pipeline byte-for-byte
//     (tips cross-checked against golden_runs.hpp);
//   * retransmissions of executed requests are answered from the client
//     table without re-consensus (chain height frozen);
//   * the cached-reply path survives a primary view change (the table is
//     rebuilt from execution, not view-local state);
//   * full-close beats timeout-close deterministically, and batched runs
//     replay byte-identically from a seed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "crypto/sha256.hpp"
#include "golden_runs.hpp"
#include "sim/deployment.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {
namespace {

struct RunOutcome {
  std::string tip;
  std::string metrics_sha256;
  std::uint64_t committed{0};
  std::uint64_t closed_full{0};
  std::uint64_t closed_timeout{0};
  std::uint64_t batch_observations{0};
};

RunOutcome run_spec(const ScenarioSpec& spec, Duration horizon = Duration{}) {
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->start();
  LatencyRecorder recorder;
  deployment->schedule_workload(spec.workload, &recorder);
  if (horizon.ns > 0) {
    deployment->run_for(horizon);
  } else {
    deployment->run_until_committed(spec.workload.txs_per_client,
                                    TimePoint{Duration::seconds(300).ns});
  }
  deployment->stop();
  deployment->finalize_telemetry();

  RunOutcome out;
  out.committed = deployment->committed_count();
  out.tip = deployment->tip_hex();
  const obs::Registry& reg = deployment->telemetry().metrics();
  out.metrics_sha256 = crypto::sha256(reg.to_jsonl()).hex();
  out.closed_full = reg.counter_total("pbft.batch.closed_full");
  out.closed_timeout = reg.counter_total("pbft.batch.closed_timeout");
  out.batch_observations = reg.histogram_total("pbft.batch.txs").count;
  return out;
}

// --- batch.size=1 equivalence ---------------------------------------------------

TEST(BatchPipeline, SizeOneReproducesPbftSeedGolden) {
  ScenarioSpec spec = pbft_golden_spec();
  spec.batch.size = 1;
  // At size 1 the close timer is never armed, so the timeout must be inert:
  // an aggressive value must not perturb a single byte of the run.
  spec.batch.timeout = Duration::millis(1);
  const RunOutcome out = run_spec(spec);
  EXPECT_EQ(out.committed, 8u);
  EXPECT_EQ(out.tip, kPbftGoldenTip);
  EXPECT_EQ(out.closed_full, 0u);
  EXPECT_EQ(out.closed_timeout, 0u);
  EXPECT_EQ(out.batch_observations, 0u);  // batch telemetry is gated off at size 1
}

TEST(BatchPipeline, SizeOneReproducesGpbftSeedGolden) {
  ScenarioSpec spec = gpbft_golden_spec();
  spec.batch.size = 1;
  spec.batch.timeout = Duration::millis(1);
  const RunOutcome out = run_spec(spec, Duration::seconds(60));
  EXPECT_EQ(out.committed, 8u);
  EXPECT_EQ(out.tip, kGpbftGoldenTip);
  EXPECT_EQ(out.closed_timeout, 0u);
}

// --- close policy ----------------------------------------------------------------

TEST(BatchPipeline, FullCloseWinsWhenBatchFillsBeforeTimeout) {
  ScenarioSpec spec = pbft_golden_spec();
  spec.clients = 4;
  spec.workload.txs_per_client = 1;
  spec.workload.stagger = Duration::millis(1);  // near-simultaneous arrivals
  spec.batch.size = 4;
  spec.batch.timeout = Duration::seconds(10);  // would lose every race here
  const RunOutcome out = run_spec(spec);
  EXPECT_EQ(out.committed, 4u);
  EXPECT_GE(out.closed_full, 1u);
  EXPECT_EQ(out.closed_timeout, 0u);
  EXPECT_GE(out.batch_observations, 1u);
}

TEST(BatchPipeline, TimeoutClosesAStarvedBatch) {
  ScenarioSpec spec = pbft_golden_spec();
  spec.clients = 1;
  spec.workload.txs_per_client = 1;  // the batch can never fill
  spec.batch.size = 4;
  spec.batch.timeout = Duration::millis(100);
  const RunOutcome out = run_spec(spec);
  EXPECT_EQ(out.committed, 1u);  // the request still commits, just later
  EXPECT_EQ(out.closed_full, 0u);
  EXPECT_GE(out.closed_timeout, 1u);
}

TEST(BatchPipeline, BatchedRunsReplayByteIdentically) {
  ScenarioSpec spec = pbft_golden_spec();
  spec.clients = 6;
  spec.workload.txs_per_client = 4;
  spec.batch.size = 8;
  spec.batch.timeout = Duration::millis(250);
  const RunOutcome first = run_spec(spec);
  const RunOutcome second = run_spec(spec);
  EXPECT_EQ(first.committed, 24u);
  EXPECT_EQ(first.tip, second.tip);
  EXPECT_EQ(first.metrics_sha256, second.metrics_sha256);
  EXPECT_EQ(first.closed_full, second.closed_full);
  EXPECT_EQ(first.closed_timeout, second.closed_timeout);
}

// --- client-table reply cache ----------------------------------------------------

std::unique_ptr<PbftCluster> four_replica_cluster(Duration request_timeout) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 4;
  spec.clients = 1;
  spec.seed = 11;
  spec.engine.request_timeout = request_timeout;
  spec.engine.view_change_timeout = Duration::seconds(5);
  return std::make_unique<PbftCluster>(spec);
}

TEST(ClientTable, RetryStormIsServedFromCacheWithoutReconsensus) {
  auto cluster = four_replica_cluster(Duration::seconds(20));
  cluster->start();
  cluster->client(0).set_retry_interval(Duration{0});

  const ledger::Transaction tx =
      make_workload_tx(cluster->client(0).id(), 1, cluster->placement().position(0),
                       cluster->simulator().now(), 32, 10, 0);
  cluster->client(0).submit(tx);
  ASSERT_TRUE(cluster->run_until_committed(1, TimePoint{Duration::seconds(60).ns}));
  const Height height_after_commit = cluster->replica(0).chain().height();

  // A retry storm: the device re-sends the identical transaction three
  // times (e.g. its replies were lost). Every replica must answer from the
  // client table; none may run another three-phase instance for it.
  for (int storm = 0; storm < 3; ++storm) {
    cluster->client(0).submit(tx);
    cluster->run_for(Duration::seconds(2));
  }
  cluster->stop();

  EXPECT_EQ(cluster->replica(0).chain().height(), height_after_commit);
  const obs::Registry& reg = cluster->telemetry().metrics();
  // 4 replicas x 3 retransmissions, minus any instance still in flight.
  EXPECT_GE(reg.counter_total("pbft.client_table.hits"), 3u);
  // The replica-side table remembers the executed request for this sender.
  const pbft::ClientTable::Entry* entry =
      cluster->replica(1).client_table().find(cluster->client(0).id());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->last_digest, tx.digest());
  EXPECT_EQ(entry->last_height, height_after_commit);
}

TEST(ClientTable, CachedReplySurvivesPrimaryViewChange) {
  auto cluster = four_replica_cluster(Duration::seconds(5));
  cluster->start();
  cluster->client(0).set_retry_interval(Duration{0});

  const ledger::Transaction tx1 =
      make_workload_tx(cluster->client(0).id(), 1, cluster->placement().position(0),
                       cluster->simulator().now(), 32, 10, 0);
  cluster->client(0).submit(tx1);
  ASSERT_TRUE(cluster->run_until_committed(1, TimePoint{Duration::seconds(60).ns}));
  const Height height_after_tx1 = cluster->replica(0).chain().height();

  // Crash the view-0 primary; the next request forces a view change and
  // commits under the new primary.
  cluster->network().crash(NodeId{1});
  const ledger::Transaction tx2 =
      make_workload_tx(cluster->client(0).id(), 2, cluster->placement().position(0),
                       cluster->simulator().now(), 32, 10, 0);
  cluster->client(0).submit(tx2);
  ASSERT_TRUE(cluster->run_until_committed(2, TimePoint{Duration::seconds(120).ns}));
  const Height height_after_tx2 = cluster->replica(1).chain().height();
  EXPECT_GT(height_after_tx2, height_after_tx1);

  // Replay both executed requests after the view change. tx2 is the
  // sender's newest request, so the new view answers it from the client
  // table's fast path; tx1 was displaced by tx2 and falls through to the
  // chain-index reply cache. Neither may trigger re-consensus.
  const std::uint64_t commits_before_replay = cluster->client(0).committed_count();
  cluster->client(0).submit(tx2);
  cluster->run_for(Duration::seconds(2));
  cluster->client(0).submit(tx1);
  cluster->run_for(Duration::seconds(5));
  cluster->stop();

  EXPECT_EQ(cluster->replica(1).chain().height(), height_after_tx2);
  EXPECT_GE(cluster->telemetry().metrics().counter_total("pbft.client_table.hits"), 1u);
  // f+1 matching cached replies re-complete the requests on the client.
  EXPECT_GT(cluster->client(0).committed_count(), commits_before_replay);
}

// --- carried digests across a failover --------------------------------------------

// A batched n=7 PBFT cluster whose view-0 primary crashes mid-stream, on
// links that drop 3% of messages: a batch the backups prepared but could
// not commit under the dead primary is re-proposed by the NEW-VIEW. Every
// digest a replica carried from a body check into its chain index, client
// table and mempool must still be its transaction's recomputed digest.
TEST(BatchPipeline, FailoverKeepsEveryCarriedDigestTrue) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 7;
  spec.clients = 8;
  spec.seed = 7;
  spec.workload.txs_per_client = 12;
  spec.workload.period = Duration::millis(300);
  spec.batch.size = 8;
  spec.batch.timeout = Duration::millis(250);
  spec.engine.request_timeout = Duration::seconds(3);
  spec.engine.view_change_timeout = Duration::seconds(2);
  spec.net.drop_rate = 0.03;
  PbftCluster cluster(spec);
  cluster.start();
  LatencyRecorder recorder;
  cluster.schedule_workload(spec.workload, &recorder);
  cluster.run_for(Duration::seconds(3));
  cluster.network().crash(cluster.replica(0).primary_of(0));
  ASSERT_TRUE(cluster.run_until_committed(spec.workload.txs_per_client,
                                          TimePoint{Duration::seconds(300).ns}));
  cluster.stop();

  for (std::size_t i = 0; i < cluster.replica_count(); ++i) {
    const pbft::Replica& replica = cluster.replica(i);
    if (cluster.network().is_crashed(replica.id())) continue;
    const ledger::Chain& chain = replica.chain();
    std::map<NodeId, const ledger::Transaction*> last_executed;
    for (Height h = 1; h <= chain.height(); ++h) {
      for (const ledger::Transaction& tx : chain.at(h).transactions) {
        const auto found = chain.find_transaction(tx.digest());
        ASSERT_TRUE(found.has_value()) << "replica " << i << " height " << h;
        EXPECT_EQ(*found, h) << "replica " << i;
        const ledger::Transaction*& last = last_executed[tx.sender];
        if (last == nullptr || tx.request_id > last->request_id) last = &tx;
      }
    }
    EXPECT_EQ(replica.client_table().size(), last_executed.size()) << "replica " << i;
    for (const auto& [sender, tx] : last_executed) {
      const pbft::ClientTable::Entry* entry = replica.client_table().find(sender);
      ASSERT_NE(entry, nullptr) << "replica " << i << " sender " << sender.value;
      EXPECT_EQ(entry->last_digest, tx->digest()) << "replica " << i << " sender " << sender.value;
    }
    EXPECT_EQ(replica.mempool_size(), 0u) << "replica " << i;
    EXPECT_EQ(replica.completed_view_changes(), 5u) << "replica " << i;
  }
}

}  // namespace
}  // namespace gpbft::sim
