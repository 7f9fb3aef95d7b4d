// PBFT protocol behaviour: three-phase commit, batching, fault tolerance,
// view changes, checkpoints, partitions, and safety invariants.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pbft/messages.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {
namespace {

ScenarioSpec small_cluster(std::size_t replicas, std::size_t clients = 1) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = replicas;
  spec.clients = clients;
  spec.seed = 42;
  spec.engine.request_timeout = Duration::seconds(8);
  spec.engine.view_change_timeout = Duration::seconds(6);
  return spec;
}

ledger::Transaction tx_from(PbftCluster& cluster, std::size_t client_index, RequestId request) {
  return make_workload_tx(cluster.client(client_index).id(), request,
                          cluster.placement().position(client_index),
                          cluster.simulator().now(), 16, 10, request);
}

void expect_identical_chains(PbftCluster& cluster) {
  // Baseline: the first replica that is still alive.
  std::size_t base = 0;
  while (base < cluster.replica_count() &&
         cluster.network().is_crashed(cluster.replica(base).id())) {
    ++base;
  }
  ASSERT_LT(base, cluster.replica_count());
  const crypto::Hash256 tip = cluster.replica(base).chain().tip().hash();
  const Height height = cluster.replica(base).chain().height();
  for (std::size_t i = base + 1; i < cluster.replica_count(); ++i) {
    if (cluster.network().is_crashed(cluster.replica(i).id())) continue;
    EXPECT_EQ(cluster.replica(i).chain().height(), height) << "replica " << i;
    EXPECT_EQ(cluster.replica(i).chain().tip().hash(), tip) << "replica " << i;
  }
}

TEST(PbftReplica, CommitsSingleTransaction) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  bool committed = false;
  Height committed_height = 0;
  cluster.client(0).set_commit_callback(
      [&](const crypto::Hash256&, Height h, Duration) {
        committed = true;
        committed_height = h;
      });
  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(5));

  EXPECT_TRUE(committed);
  EXPECT_EQ(committed_height, 1u);
  EXPECT_EQ(cluster.replica(0).chain().height(), 1u);
  expect_identical_chains(cluster);
}

TEST(PbftReplica, CommitsAcrossAllReplicas) {
  PbftCluster cluster(small_cluster(7));
  cluster.start();
  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(5));

  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(cluster.replica(i).chain().height(), 1u) << "replica " << i;
    EXPECT_EQ(cluster.replica(i).state().applied_transactions(), 1u);
  }
  expect_identical_chains(cluster);
}

TEST(PbftReplica, BatchesMultipleTransactions) {
  ScenarioSpec spec = small_cluster(4);
  spec.engine.batch_size = 8;
  PbftCluster cluster(spec);
  cluster.start();

  // Submit five transactions in one burst: the primary should pack them
  // into very few blocks.
  for (RequestId r = 1; r <= 5; ++r) cluster.client(0).submit(tx_from(cluster, 0, r));
  cluster.run_for(Duration::seconds(10));

  EXPECT_EQ(cluster.client(0).committed_count(), 5u);
  EXPECT_LE(cluster.replica(0).chain().height(), 2u);
  EXPECT_EQ(cluster.replica(0).state().applied_transactions(), 5u);
}

TEST(PbftReplica, DuplicateSubmissionCommitsOnce) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  const ledger::Transaction tx = tx_from(cluster, 0, 1);
  cluster.client(0).submit(tx);
  cluster.run_for(Duration::seconds(3));
  cluster.client(0).submit(tx);  // duplicate after commit
  cluster.run_for(Duration::seconds(3));

  EXPECT_EQ(cluster.replica(0).state().applied_transactions(), 1u);
  EXPECT_EQ(cluster.replica(0).chain().height(), 1u);
}

TEST(PbftReplica, ToleratesFSilentBackups) {
  // n = 7 tolerates f = 2 silent replicas.
  PbftCluster cluster(small_cluster(7));
  cluster.start();
  cluster.replica(3).set_fault_mode(pbft::FaultMode::Silent);
  cluster.replica(5).set_fault_mode(pbft::FaultMode::Silent);

  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(5));

  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  EXPECT_EQ(cluster.replica(0).chain().height(), 1u);
}

TEST(PbftReplica, HaltsBeyondFSilentBackups) {
  // n = 4 tolerates f = 1; two silent backups break liveness (but the
  // remaining replicas never commit anything wrong).
  PbftCluster cluster(small_cluster(4));
  cluster.start();
  cluster.replica(2).set_fault_mode(pbft::FaultMode::Silent);
  cluster.replica(3).set_fault_mode(pbft::FaultMode::Silent);

  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(30));

  EXPECT_EQ(cluster.client(0).committed_count(), 0u);
  EXPECT_EQ(cluster.replica(0).chain().height(), 0u);
  EXPECT_EQ(cluster.replica(1).chain().height(), 0u);
}

TEST(PbftReplica, ToleratesEquivocatingBackup) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();
  cluster.replica(2).set_fault_mode(pbft::FaultMode::EquivocateDigest);

  for (RequestId r = 1; r <= 3; ++r) {
    cluster.client(0).submit(tx_from(cluster, 0, r));
    cluster.run_for(Duration::seconds(3));
  }

  EXPECT_EQ(cluster.client(0).committed_count(), 3u);
  // Honest replicas agree.
  EXPECT_EQ(cluster.replica(0).chain().tip().hash(), cluster.replica(1).chain().tip().hash());
  EXPECT_EQ(cluster.replica(0).chain().tip().hash(), cluster.replica(3).chain().tip().hash());
}

TEST(PbftReplica, ViewChangeOnCrashedPrimary) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  // View 0's primary is the lowest id (committee sorted): replica(0).
  const NodeId primary = cluster.replica(0).primary_of(0);
  ASSERT_EQ(primary, cluster.replica(0).id());
  cluster.network().crash(primary);

  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(40));  // timeout (8 s) + view change + commit

  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  EXPECT_GE(cluster.replica(1).view(), 1u);
  const obs::Counter* completed = cluster.telemetry().metrics().find_counter(
      "pbft.view_changes_completed", cluster.replica(1).id());
  ASSERT_NE(completed, nullptr);
  EXPECT_GE(completed->value, 1u);
  EXPECT_EQ(cluster.replica(1).chain().height(), 1u);
  EXPECT_EQ(cluster.replica(2).chain().tip().hash(), cluster.replica(1).chain().tip().hash());
}

TEST(PbftReplica, SurvivesSuccessiveViewChanges) {
  // Crash the primaries of views 0 and 1: the protocol must escalate to
  // view 2 and still commit (n = 7, f = 2).
  PbftCluster cluster(small_cluster(7));
  cluster.start();
  cluster.network().crash(cluster.replica(0).primary_of(0));
  cluster.network().crash(cluster.replica(0).primary_of(1));

  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(120));

  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  EXPECT_GE(cluster.replica(2).view(), 2u);
  expect_identical_chains(cluster);
}

TEST(PbftReplica, CommitsResumeAfterViewChange) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  // First commit normally, then crash the primary and commit again.
  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(5));
  ASSERT_EQ(cluster.client(0).committed_count(), 1u);

  cluster.network().crash(cluster.replica(0).id());
  cluster.client(0).submit(tx_from(cluster, 0, 2));
  cluster.run_for(Duration::seconds(40));

  EXPECT_EQ(cluster.client(0).committed_count(), 2u);
  EXPECT_EQ(cluster.replica(1).chain().height(), 2u);
}

TEST(PbftReplica, CheckpointAdvancesAndGarbageCollects) {
  ScenarioSpec spec = small_cluster(4);
  spec.engine.checkpoint_interval = 4;
  spec.engine.batch_size = 1;  // one block per transaction
  PbftCluster cluster(spec);
  cluster.start();

  for (RequestId r = 1; r <= 9; ++r) {
    cluster.client(0).submit(tx_from(cluster, 0, r));
    cluster.run_for(Duration::seconds(2));
  }

  EXPECT_EQ(cluster.client(0).committed_count(), 9u);
  EXPECT_EQ(cluster.replica(0).chain().height(), 9u);
  // Two checkpoints (at 4 and 8) must have stabilised.
  EXPECT_EQ(cluster.replica(0).stable_checkpoint(), 8u);
  EXPECT_EQ(cluster.replica(3).stable_checkpoint(), 8u);
}

TEST(PbftReplica, NoQuorumAcrossPartition) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  // 2-2 split: neither side has 2f+1 = 3.
  cluster.network().partition(
      {{cluster.replica(0).id(), cluster.replica(1).id(), cluster.client(0).id()},
       {cluster.replica(2).id(), cluster.replica(3).id()}});

  const ledger::Transaction tx = tx_from(cluster, 0, 1);
  cluster.client(0).submit(tx);
  cluster.run_for(Duration::seconds(20));

  EXPECT_EQ(cluster.client(0).committed_count(), 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(cluster.replica(i).chain().height(), 0u);

  // Heal and resubmit the same transaction so the minority side learns it:
  // progress resumes, the duplicate is deduplicated, no divergence.
  cluster.network().heal_partition();
  cluster.client(0).submit(tx);
  cluster.run_for(Duration::seconds(40));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  EXPECT_EQ(cluster.replica(0).state().applied_transactions(), 1u);
  expect_identical_chains(cluster);
}

TEST(PbftReplica, MajorityPartitionKeepsCommitting) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  // 3-1 split: the majority side retains quorum.
  cluster.network().partition(
      {{cluster.replica(0).id(), cluster.replica(1).id(), cluster.replica(2).id(),
        cluster.client(0).id()},
       {cluster.replica(3).id()}});

  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(10));

  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  EXPECT_EQ(cluster.replica(0).chain().height(), 1u);
  EXPECT_EQ(cluster.replica(3).chain().height(), 0u);  // isolated replica lags

  cluster.network().heal_partition();
}

TEST(PbftReplica, QuorumArithmetic) {
  for (const std::size_t n : {4u, 7u, 10u, 13u, 22u, 40u}) {
    PbftCluster cluster(small_cluster(n, 0));
    EXPECT_EQ(cluster.replica(0).faults_tolerated(), (n - 1) / 3) << "n=" << n;
  }
}

TEST(PbftReplica, PrimaryRotatesRoundRobin) {
  PbftCluster cluster(small_cluster(4, 0));
  const auto committee = cluster.committee();
  for (ViewId v = 0; v < 8; ++v) {
    EXPECT_EQ(cluster.replica(0).primary_of(v), committee[v % committee.size()]);
  }
}

TEST(PbftReplica, ClientNeedsQuorumOfReplies) {
  // A single faulty replica cannot convince the client: with n = 4 the
  // client needs f+1 = 2 matching replies, so one spoofed reply (here
  // simulated by a run where nothing commits) yields no commit callback.
  PbftCluster cluster(small_cluster(4));
  cluster.start();
  cluster.replica(0).set_fault_mode(pbft::FaultMode::Silent);
  cluster.replica(1).set_fault_mode(pbft::FaultMode::Silent);
  cluster.replica(2).set_fault_mode(pbft::FaultMode::Silent);
  // Only replica 3 is alive; even if it were malicious it alone cannot
  // produce f+1 replies.
  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(15));
  EXPECT_EQ(cluster.client(0).committed_count(), 0u);
}

TEST(PbftReplica, MempoolDrainsAfterCommit) {
  PbftCluster cluster(small_cluster(4));
  cluster.start();
  for (RequestId r = 1; r <= 4; ++r) cluster.client(0).submit(tx_from(cluster, 0, r));
  cluster.run_for(Duration::seconds(10));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.replica(i).mempool_size(), 0u) << "replica " << i;
  }
}

TEST(PbftReplica, LaggingReplicaSyncsMissedBlocks) {
  // A replica that was down while the committee committed blocks catches up
  // through the chain-sync sub-protocol once it observes newer COMMITs.
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  cluster.network().crash(cluster.replica(3).id());
  for (RequestId r = 1; r <= 3; ++r) {
    cluster.client(0).submit(tx_from(cluster, 0, r));
    cluster.run_for(Duration::seconds(2));
  }
  ASSERT_EQ(cluster.replica(0).chain().height(), 3u);
  ASSERT_EQ(cluster.replica(3).chain().height(), 0u);

  cluster.network().recover(cluster.replica(3).id());
  // New traffic gives the lagging replica commit evidence to sync from.
  cluster.client(0).submit(tx_from(cluster, 0, 4));
  cluster.run_for(Duration::seconds(20));

  EXPECT_EQ(cluster.replica(3).chain().height(), 4u);
  EXPECT_EQ(cluster.replica(3).chain().tip().hash(), cluster.replica(0).chain().tip().hash());
  EXPECT_EQ(cluster.replica(3).state().applied_transactions(), 4u);
}

TEST(PbftReplica, SyncResponderCapsBatch) {
  // The sync responder sends at most 64 blocks per response; a deeply
  // lagging replica converges over several rounds.
  ScenarioSpec spec = small_cluster(4);
  spec.engine.batch_size = 1;
  spec.engine.checkpoint_interval = 1000;  // keep the whole log
  PbftCluster cluster(spec);
  cluster.start();

  cluster.network().crash(cluster.replica(3).id());
  for (RequestId r = 1; r <= 70; ++r) cluster.client(0).submit(tx_from(cluster, 0, r));
  cluster.run_for(Duration::seconds(60));
  ASSERT_EQ(cluster.replica(0).chain().height(), 70u);

  cluster.network().recover(cluster.replica(3).id());
  cluster.client(0).submit(tx_from(cluster, 0, 71));
  cluster.run_for(Duration::seconds(30));

  EXPECT_EQ(cluster.replica(3).chain().height(), 71u);
  EXPECT_EQ(cluster.replica(3).chain().tip().hash(), cluster.replica(0).chain().tip().hash());
}

TEST(PbftReplica, ReplyCacheAnswersRetransmissions) {
  // A client that lost every REPLY still completes: resubmitting an
  // already-committed transaction is answered from the executed state.
  PbftCluster cluster(small_cluster(4));
  cluster.start();

  const ledger::Transaction tx = tx_from(cluster, 0, 1);
  // Block all replica->client links so the first round of replies is lost.
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.network().set_link_fault(cluster.replica(i).id(), cluster.client(0).id(),
                                     net::LinkFault{.loss = 1.0});
  }
  cluster.client(0).submit(tx);
  cluster.run_for(Duration::seconds(5));
  ASSERT_EQ(cluster.replica(0).chain().height(), 1u);  // committed...
  ASSERT_EQ(cluster.client(0).committed_count(), 0u);  // ...but unseen

  for (std::size_t i = 0; i < 4; ++i) {
    cluster.network().clear_link_fault(cluster.replica(i).id(), cluster.client(0).id());
  }
  cluster.client(0).submit(tx);  // retransmission
  cluster.run_for(Duration::seconds(5));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  EXPECT_EQ(cluster.replica(0).state().applied_transactions(), 1u);  // not re-executed
}

TEST(PbftReplica, ClientRetransmitsAutomatically) {
  ScenarioSpec spec = small_cluster(4);
  PbftCluster cluster(spec);
  cluster.start();
  cluster.client(0).set_retry_interval(Duration::seconds(5));

  // Lose the entire first submission (all links client->replicas blocked).
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.network().set_link_fault(cluster.client(0).id(), cluster.replica(i).id(),
                                     net::LinkFault{.loss = 1.0});
  }
  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(2));
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.network().clear_link_fault(cluster.client(0).id(), cluster.replica(i).id());
  }
  // No manual resubmission: the retry tick must deliver it.
  cluster.run_for(Duration::seconds(15));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(PbftReplica, StragglerSyncsFromViewChangeEvidence) {
  // A replica that slept through commits learns it is behind from the
  // last_executed field of view-change traffic and catches up.
  ScenarioSpec spec = small_cluster(4);
  spec.engine.request_timeout = Duration::seconds(8);
  PbftCluster cluster(spec);
  cluster.start();

  cluster.network().crash(cluster.replica(3).id());
  for (RequestId r = 1; r <= 3; ++r) {
    cluster.client(0).submit(tx_from(cluster, 0, r));
    cluster.run_for(Duration::seconds(2));
  }
  ASSERT_EQ(cluster.replica(0).chain().height(), 3u);

  cluster.network().recover(cluster.replica(3).id());
  // Crash the primary: the resulting view change carries last_executed=3,
  // which replica 3 (still at height 0) uses to sync.
  cluster.network().crash(cluster.replica(0).id());
  cluster.client(0).submit(tx_from(cluster, 0, 4));
  cluster.run_for(Duration::seconds(60));

  EXPECT_EQ(cluster.replica(3).chain().height(), 4u);
  EXPECT_EQ(cluster.replica(3).chain().tip().hash(), cluster.replica(1).chain().tip().hash());
}

TEST(PbftReplica, CorruptProposalsRejectedAndPrimaryReplaced) {
  ScenarioSpec spec = small_cluster(4);
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  PbftCluster cluster(spec);
  cluster.start();
  // View-0 primary proposes blocks whose Merkle root lies about the body.
  cluster.replica(0).set_fault_mode(pbft::FaultMode::CorruptProposals);

  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(40));

  // Honest backups never accepted the corrupt proposal; the view change
  // replaced the primary and the request committed under its successor.
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  EXPECT_GE(cluster.replica(1).view(), 1u);
  EXPECT_EQ(cluster.replica(1).chain().height(), 1u);
  for (Height h = 1; h <= cluster.replica(1).chain().height(); ++h) {
    const auto& block = cluster.replica(1).chain().at(h);
    EXPECT_EQ(block.header.merkle_root, block.compute_merkle_root());
  }
}

/// Sends `body` from `from` to `to`, sealed under `from`'s identity.
void send_sealed(PbftCluster& cluster, NodeId from, NodeId to, net::MessageType type,
                 const Bytes& body) {
  net::Envelope envelope;
  envelope.from = from;
  envelope.to = to;
  envelope.type = type;
  envelope.payload = pbft::seal(cluster.keys(), from, to, type,
                                BytesView(body.data(), body.size()),
                                cluster.spec().engine.compute_macs);
  cluster.network().send(std::move(envelope));
}

/// Delivers `msg` to every backup as if the view-0 primary (replica 0)
/// had sent it.
void propose_as_primary(PbftCluster& cluster, const pbft::PrePrepare& msg) {
  const Bytes body = msg.encode();
  for (std::size_t i = 1; i < cluster.replica_count(); ++i) {
    send_sealed(cluster, cluster.replica(0).id(), cluster.replica(i).id(),
                pbft::msg_type::kPrePrepare, body);
  }
}

TEST(PbftReplica, BackupsRefuseAProposalThatRepeatsATransaction) {
  // [a, b, c, c] has the same Merkle root, and so the same block hash, as
  // [a, b, c]. Were the padded body accepted, one agreed digest would name
  // two bodies. Backups refuse it and accept the honest one.
  PbftCluster cluster(small_cluster(4, 3));
  cluster.start();
  const ledger::Transaction a = tx_from(cluster, 0, 1);
  const ledger::Transaction b = tx_from(cluster, 1, 1);
  const ledger::Transaction c = tx_from(cluster, 2, 1);
  const ledger::BlockHeader& genesis = cluster.replica(1).chain().tip().header;
  pbft::PrePrepare padded;
  padded.view = 0;
  padded.seq = 1;
  padded.block = ledger::build_block(genesis, {a, b, c, c}, 0, 0, 1, cluster.simulator().now(),
                                     cluster.replica(0).id());
  padded.digest = padded.block.hash();
  pbft::PrePrepare honest = padded;
  honest.block.transactions.pop_back();
  ASSERT_EQ(honest.block.hash(), padded.digest);

  const obs::Registry& metrics = cluster.telemetry().metrics();
  propose_as_primary(cluster, padded);
  cluster.run_for(Duration::seconds(1));
  EXPECT_EQ(metrics.counter_total("pbft.preprepares_accepted"), 0u);

  propose_as_primary(cluster, honest);
  cluster.run_for(Duration::seconds(2));
  EXPECT_EQ(metrics.counter_total("pbft.preprepares_accepted"), 3u);
  EXPECT_EQ(cluster.replica(1).chain().height(), 1u);
  EXPECT_EQ(cluster.replica(1).chain().at(1), honest.block);
}

TEST(PbftReplica, StashedCommitsCountForTheirSealedSender) {
  // A replica in view 0 stashes view-1 COMMITs, and f+1 distinct stashed
  // voters at a height it cannot produce make it ask for a sync. Replica 3
  // seals three such COMMITs whose bodies name replicas 0, 2 and 3: they
  // are one voter, so replica 1 must not count itself behind.
  PbftCluster cluster(small_cluster(4));
  cluster.start();
  const NodeId sender = cluster.replica(3).id();
  const NodeId target = cluster.replica(1).id();
  for (const std::size_t named : {0u, 2u, 3u}) {
    pbft::Commit commit;
    commit.view = 1;
    commit.seq = 1;
    commit.digest = crypto::sha256("future block");
    commit.replica = cluster.replica(named).id();
    send_sealed(cluster, sender, target, pbft::msg_type::kCommit, commit.encode());
  }
  // Past the first tick (request_timeout / 4), which runs the sync check.
  cluster.run_for(cluster.spec().engine.request_timeout / 4 + Duration::millis(500));
  EXPECT_EQ(cluster.network().stats().of_type(pbft::msg_type::kSyncRequest).messages, 0u);
}

TEST(PbftReplica, ClientCountsRepliesBySealedSender) {
  // f+1 = 2 REPLYs commit a request only from two distinct replicas. With
  // every replica silent, replica 3 seals two REPLYs for height 9 naming
  // replicas 2 and 3: one vote, so the client must not commit.
  PbftCluster cluster(small_cluster(4));
  cluster.start();
  for (std::size_t i = 0; i < cluster.replica_count(); ++i) {
    cluster.set_fault_mode(cluster.replica(i).id(), pbft::FaultMode::Silent);
  }
  const ledger::Transaction tx = tx_from(cluster, 0, 1);
  cluster.client(0).submit(tx);
  cluster.run_for(Duration::seconds(1));
  for (const std::size_t named : {2u, 3u}) {
    pbft::Reply reply;
    reply.view = 0;
    reply.replica = cluster.replica(named).id();
    reply.tx_digest = tx.digest();
    reply.height = 9;
    send_sealed(cluster, cluster.replica(3).id(), cluster.client(0).id(), pbft::msg_type::kReply,
                reply.encode());
  }
  cluster.run_for(Duration::seconds(1));
  EXPECT_EQ(cluster.client(0).committed_count(), 0u);
}

// Votes count only for senders on the receiver's roster. A client holds keys
// like any node and can seal any message type, so in each test below the
// clients' votes would complete a certificate if a sender outside the
// committee were counted.

TEST(PbftReplica, VotesFromNonMembersDoNotCertifyABlock) {
  // Replica 1 alone gets replica 0's proposal; with replicas 2 and 3
  // silent its PREPARE and COMMIT are the only member votes. The two
  // clients' PREPAREs and COMMITs for the digest must not reach 2f = 2 and
  // 2f+1 = 3 with it.
  PbftCluster cluster(small_cluster(4, 2));
  cluster.start();
  cluster.set_fault_mode(cluster.replica(2).id(), pbft::FaultMode::Silent);
  cluster.set_fault_mode(cluster.replica(3).id(), pbft::FaultMode::Silent);
  pbft::PrePrepare proposal;
  proposal.view = 0;
  proposal.seq = 1;
  proposal.block = ledger::build_block(cluster.replica(1).chain().tip().header,
                                       {tx_from(cluster, 0, 1)}, 0, 0, 1,
                                       cluster.simulator().now(), cluster.replica(0).id());
  proposal.digest = proposal.block.hash();
  const NodeId target = cluster.replica(1).id();
  send_sealed(cluster, cluster.replica(0).id(), target, pbft::msg_type::kPrePrepare,
              proposal.encode());
  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    const NodeId client = cluster.client(c).id();
    pbft::Prepare prepare;
    prepare.view = 0;
    prepare.seq = 1;
    prepare.digest = proposal.digest;
    prepare.replica = client;
    send_sealed(cluster, client, target, pbft::msg_type::kPrepare, prepare.encode());
    pbft::Commit commit;
    commit.view = 0;
    commit.seq = 1;
    commit.digest = proposal.digest;
    commit.replica = client;
    send_sealed(cluster, client, target, pbft::msg_type::kCommit, commit.encode());
  }
  cluster.run_for(Duration::seconds(2));
  EXPECT_EQ(cluster.telemetry().metrics().counter_total("pbft.preprepares_accepted"), 1u);
  EXPECT_EQ(cluster.replica(1).chain().height(), 0u);
}

TEST(PbftReplica, ClientRefusesRepliesFromNonMembers) {
  // f+1 = 2 REPLYs commit a request. Replica 3's is one; client 1's must
  // not be the second.
  PbftCluster cluster(small_cluster(4, 2));
  cluster.start();
  for (std::size_t i = 0; i < cluster.replica_count(); ++i) {
    cluster.set_fault_mode(cluster.replica(i).id(), pbft::FaultMode::Silent);
  }
  const ledger::Transaction tx = tx_from(cluster, 0, 1);
  cluster.client(0).submit(tx);
  cluster.run_for(Duration::seconds(1));
  for (const NodeId sender : {cluster.replica(3).id(), cluster.client(1).id()}) {
    pbft::Reply reply;
    reply.view = 0;
    reply.replica = sender;
    reply.tx_digest = tx.digest();
    reply.height = 9;
    send_sealed(cluster, sender, cluster.client(0).id(), pbft::msg_type::kReply, reply.encode());
  }
  cluster.run_for(Duration::seconds(1));
  EXPECT_EQ(cluster.client(0).committed_count(), 0u);
}

TEST(PbftReplica, ViewChangesFromNonMembersDoNotMoveTheView) {
  // f+1 = 2 VIEW-CHANGEs for view 1 make replica 1, its primary, join, and
  // with its own they would be the 2f+1 = 3 a NEW-VIEW needs. Two clients'
  // VIEW-CHANGEs are neither.
  PbftCluster cluster(small_cluster(4, 2));
  cluster.start();
  for (const std::size_t i : {0u, 2u, 3u}) {
    cluster.set_fault_mode(cluster.replica(i).id(), pbft::FaultMode::Silent);
  }
  ASSERT_EQ(cluster.replica(1).primary_of(1), cluster.replica(1).id());
  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    const NodeId client = cluster.client(c).id();
    pbft::ViewChangeMsg view_change;
    view_change.new_view = 1;
    view_change.replica = client;
    send_sealed(cluster, client, cluster.replica(1).id(), pbft::msg_type::kViewChange,
                view_change.encode());
  }
  cluster.run_for(Duration::seconds(1));
  const net::NetStats& stats = cluster.network().stats();
  EXPECT_EQ(stats.of_type(pbft::msg_type::kViewChange).messages, 2u);
  EXPECT_EQ(stats.of_type(pbft::msg_type::kNewView).messages, 0u);
  EXPECT_EQ(cluster.replica(1).view(), 0u);
}

TEST(PbftReplica, RetransmittedRequestsExecuteOnce) {
  // Clients that retry after 20 ms re-send requests that are in a mempool,
  // in a proposal or already executed, so every REQUEST dedup path runs:
  // the client-table shortcut and the chain probe in accepting a request,
  // and the chain filter in picking a batch. Each transaction still runs
  // exactly once on every replica.
  ScenarioSpec spec = small_cluster(4, 2);
  spec.workload.txs_per_client = 4;
  PbftCluster cluster(spec);
  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    cluster.client(c).set_retry_interval(Duration::millis(20));
  }
  InvariantMonitor monitor(cluster.simulator());
  cluster.watch(monitor);
  cluster.start();
  std::vector<crypto::Hash256> submitted;
  cluster.schedule_workload(spec.workload, nullptr,
                            [&monitor, &submitted](const ledger::Transaction& tx) {
                              monitor.expect_submission(tx);
                              submitted.push_back(tx.digest());
                            });
  ASSERT_TRUE(cluster.run_until_committed(4, TimePoint{Duration::seconds(120).ns}));
  cluster.run_for(Duration::seconds(2));  // retries of the last requests land
  cluster.stop();

  EXPECT_TRUE(monitor.clean()) << monitor.report();
  ASSERT_EQ(submitted.size(), 8u);
  for (std::size_t i = 0; i < cluster.replica_count(); ++i) {
    const ledger::Chain& chain = cluster.replica(i).chain();
    std::map<crypto::Hash256, int> executed;
    for (Height h = 1; h <= chain.height(); ++h) {
      for (const ledger::Transaction& tx : chain.at(h).transactions) ++executed[tx.digest()];
    }
    for (const crypto::Hash256& digest : submitted) {
      EXPECT_EQ(executed[digest], 1) << "replica " << i << " tx " << digest.short_hex();
    }
  }
  EXPECT_GT(cluster.telemetry().metrics().counter_total("pbft.client_table.hits"), 0u);
}

TEST(PbftReplica, LargerCommitteeStillCommits) {
  PbftCluster cluster(small_cluster(13));
  cluster.start();
  cluster.client(0).submit(tx_from(cluster, 0, 1));
  cluster.run_for(Duration::seconds(10));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
  expect_identical_chains(cluster);
}

}  // namespace
}  // namespace gpbft::sim
