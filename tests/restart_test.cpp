// Crash–restart durability tests: the simulated disk's fault semantics
// (also on an image several disks share), restart_node recovery on every
// protocol stack (PBFT / G-PBFT / dBFT / PoW), the disk bytes a faulted
// run leaves on each stack, the corrupt-image → genesis → chain-sync
// fallback, a G-PBFT restart across an era switch, and seed-for-seed
// determinism of runs that include restarts.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "golden_runs.hpp"
#include "goldens.hpp"
#include "ledger/store.hpp"
#include "pbft/client.hpp"
#include "pow/pow_store.hpp"
#include "serde/writer.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/storage.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {
namespace {

Bytes test_image(std::size_t n, std::uint8_t seed = 1) {
  Bytes image(n);
  for (std::size_t i = 0; i < n; ++i) image[i] = static_cast<std::uint8_t>(seed + i);
  return image;
}

// --- SimDisk -------------------------------------------------------------------------

TEST(SimDisk, SaveStoresTheImage) {
  SimDisk disk(Rng{1});
  EXPECT_TRUE(disk.empty());
  disk.save(test_image(64));
  EXPECT_EQ(disk.image(), test_image(64));
  EXPECT_EQ(disk.saves(), 1u);
  EXPECT_EQ(disk.faults_applied(), 0u);
}

TEST(SimDisk, TornWriteTruncatesTheNextSaveOnly) {
  SimDisk disk(Rng{2});
  disk.inject(DiskFaultKind::TornWrite);
  const Bytes full = test_image(64);
  disk.save(full);
  EXPECT_LT(disk.image().size(), 64u);  // strict prefix, possibly empty
  EXPECT_EQ(disk.image(),
            Bytes(full.begin(),
                  full.begin() + static_cast<std::ptrdiff_t>(disk.image().size())));
  EXPECT_EQ(disk.faults_applied(), 1u);
  disk.save(test_image(64));  // the fault was one-shot
  EXPECT_EQ(disk.image(), test_image(64));
}

TEST(SimDisk, BitRotFlipsExactlyOneBitInPlace) {
  SimDisk disk(Rng{3});
  disk.save(test_image(64));
  disk.inject(DiskFaultKind::BitRot);
  const Bytes& rotten = disk.image();
  const Bytes clean = test_image(64);
  ASSERT_EQ(rotten.size(), clean.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::uint8_t diff = static_cast<std::uint8_t>(rotten[i] ^ clean[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff = static_cast<std::uint8_t>(diff >> 1);
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(disk.faults_applied(), 1u);
}

TEST(SimDisk, StaleSnapshotRevertsToThePreviousImage) {
  SimDisk disk(Rng{4});
  disk.save(test_image(32, 10));
  disk.save(test_image(32, 99));
  disk.inject(DiskFaultKind::StaleSnapshot);
  EXPECT_EQ(disk.image(), test_image(32, 10));
  EXPECT_EQ(disk.faults_applied(), 1u);
}

TEST(SimDisk, FaultsOnAnEmptyDiskAreNoops) {
  SimDisk disk(Rng{5});
  disk.inject(DiskFaultKind::BitRot);
  disk.inject(DiskFaultKind::StaleSnapshot);
  EXPECT_TRUE(disk.empty());
  EXPECT_EQ(disk.faults_applied(), 0u);
}

TEST(SimDisk, DisksSharingAnImageDamageOnlyTheirOwnCopy) {
  const net::Payload shared{test_image(64)};
  SimDisk a(Rng{6});
  SimDisk b(Rng{7});
  a.save(test_image(32, 10));
  b.save(test_image(32, 20));
  a.save(shared);
  b.save(shared);
  EXPECT_EQ(&a.image(), &shared.bytes());  // one buffer, no copy
  EXPECT_EQ(&b.image(), &shared.bytes());

  a.inject(DiskFaultKind::BitRot);
  EXPECT_NE(a.image(), test_image(64));
  EXPECT_EQ(&b.image(), &shared.bytes());
  EXPECT_EQ(shared, test_image(64));

  // Each disk falls back to its own previous image.
  a.inject(DiskFaultKind::StaleSnapshot);
  b.inject(DiskFaultKind::StaleSnapshot);
  EXPECT_EQ(a.image(), test_image(32, 10));
  EXPECT_EQ(b.image(), test_image(32, 20));

  b.inject(DiskFaultKind::TornWrite);
  a.save(shared);
  b.save(shared);
  EXPECT_LT(b.image().size(), 64u);
  EXPECT_EQ(&a.image(), &shared.bytes());
  EXPECT_EQ(shared, test_image(64));
  EXPECT_EQ(a.faults_applied(), 2u);
  EXPECT_EQ(b.faults_applied(), 2u);
}

TEST(StorageFabric, DisksAreCreatedOnDemandPerNode) {
  StorageFabric fabric(7);
  EXPECT_FALSE(fabric.has(NodeId{1}));
  fabric.disk(NodeId{1}).save(test_image(8));
  EXPECT_TRUE(fabric.has(NodeId{1}));
  EXPECT_FALSE(fabric.has(NodeId{2}));
  // Arming a fault before the node's first save also creates the disk.
  fabric.inject(NodeId{2}, DiskFaultKind::TornWrite);
  EXPECT_TRUE(fabric.has(NodeId{2}));
  EXPECT_EQ(fabric.disk(NodeId{1}).image(), test_image(8));
}

// --- restart recovery per protocol ----------------------------------------------------

ScenarioSpec pbft_spec() {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 5;
  spec.clients = 2;
  spec.seed = 42;
  spec.engine.checkpoint_interval = 2;  // persist early and often
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 4;
  return spec;
}

struct MonitoredRun {
  std::uint64_t committed{0};
  std::uint64_t restarts{0};
  bool done{false};
  std::string report;
  bool clean{false};
};

/// Runs `spec` with the monitor attached, restarting `victim` at
/// `restart_at`, optionally corrupting its disk just before the reboot.
MonitoredRun run_with_restart(const ScenarioSpec& spec, NodeId victim, Duration restart_at,
                              const DiskFaultKind* corrupt = nullptr) {
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  InvariantMonitor monitor(deployment->simulator());
  deployment->watch(monitor);
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr,
                                [&monitor](const ledger::Transaction& tx) {
                                  monitor.expect_submission(tx);
                                });
  Deployment* raw = deployment.get();
  const DiskFaultKind fault = corrupt != nullptr ? *corrupt : DiskFaultKind::TornWrite;
  const bool inject = corrupt != nullptr;
  deployment->simulator().schedule(restart_at, [raw, victim, inject, fault]() {
    if (inject) raw->inject_disk_fault(victim, fault);
    ASSERT_TRUE(raw->restart_node(victim));
  });

  MonitoredRun out;
  out.done = deployment->run_until_committed(spec.workload.txs_per_client,
                                             TimePoint{spec.deadline.ns});
  // Let the restarted node finish resyncing the agreed prefix.
  deployment->run_for(spec.engine.request_timeout * 3);
  deployment->stop();
  deployment->finish_invariants(monitor);
  monitor.check_restart_convergence();
  out.committed = deployment->committed_count();
  out.restarts = monitor.restarts_observed();
  out.report = monitor.report();
  out.clean = monitor.clean();
  return out;
}

TEST(Restart, PbftReplicaRecoversFromItsDisk) {
  const MonitoredRun run = run_with_restart(pbft_spec(), NodeId{3}, Duration::seconds(6));
  EXPECT_TRUE(run.done);
  EXPECT_EQ(run.committed, 8u);
  EXPECT_EQ(run.restarts, 1u);
  EXPECT_TRUE(run.clean) << run.report;
}

TEST(Restart, CorruptDiskFallsBackToGenesisAndResyncs) {
  // Bit rot right before the reboot: the integrity tail rejects the image,
  // the replica restarts at genesis and chain sync closes the whole gap.
  const DiskFaultKind rot = DiskFaultKind::BitRot;
  const MonitoredRun run = run_with_restart(pbft_spec(), NodeId{3}, Duration::seconds(10), &rot);
  EXPECT_TRUE(run.done);
  EXPECT_EQ(run.committed, 8u);
  EXPECT_TRUE(run.clean) << run.report;
}

TEST(Restart, DbftDelegateRecoversMidEpoch) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Dbft;
  spec.nodes = 7;
  spec.clients = 2;
  spec.seed = 3;
  spec.dbft.block_interval = Duration::seconds(2);
  spec.workload.period = Duration::seconds(1);
  spec.workload.txs_per_client = 3;
  const MonitoredRun run = run_with_restart(spec, NodeId{5}, Duration::seconds(5));
  EXPECT_TRUE(run.done);
  EXPECT_EQ(run.committed, 6u);
  EXPECT_TRUE(run.clean) << run.report;
}

TEST(Restart, PowMinerRejoinsFromItsPersistedTip) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pow;
  spec.nodes = 5;
  spec.clients = 2;
  spec.seed = 9;
  spec.pow.block_interval = Duration::seconds(3);
  spec.pow.confirmations = 2;
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 2;
  spec.deadline = Duration::seconds(2000);
  const MonitoredRun run = run_with_restart(spec, NodeId{3}, Duration::seconds(12));
  EXPECT_TRUE(run.done);
  EXPECT_EQ(run.committed, 4u);
  EXPECT_TRUE(run.clean) << run.report;
}

// --- the restart contract on every stack ----------------------------------------------

constexpr ProtocolKind kStacks[] = {ProtocolKind::Pbft, ProtocolKind::Gpbft, ProtocolKind::Dbft,
                                    ProtocolKind::Pow};

/// pbft_spec() run on `protocol`, with dBFT and PoW blocks paced to land
/// within the first seconds.
ScenarioSpec stack_spec(ProtocolKind protocol) {
  ScenarioSpec spec = pbft_spec();
  spec.protocol = protocol;
  spec.dbft.block_interval = Duration::seconds(2);
  spec.pow.block_interval = Duration::seconds(3);
  spec.pow.confirmations = 2;
  return spec;
}

/// The height of node `id`'s chain (PoW: its best tip), whatever its stack.
Height node_height(Deployment& deployment, NodeId id) {
  const auto i = static_cast<std::size_t>(id.value - 1);
  if (auto* pbft = dynamic_cast<PbftCluster*>(&deployment)) {
    return pbft->replica(i).chain().height();
  }
  if (auto* gpbft = dynamic_cast<GpbftCluster*>(&deployment)) {
    return gpbft->endorser(i).chain().height();
  }
  if (auto* dbft = dynamic_cast<DbftCluster*>(&deployment)) {
    return dbft->delegate(i).chain().height();
  }
  return dynamic_cast<PowCluster&>(deployment).miner(i).chain().tip_height();
}

/// The height of the chain a disk image holds; 0 when it does not parse.
Height image_height(ProtocolKind protocol, const Bytes& image) {
  const BytesView view(image.data(), image.size());
  if (protocol == ProtocolKind::Pow) {
    const auto blocks = pow::deserialize_pow_chain(view);
    return blocks ? blocks.value().back().header.height : 0;
  }
  const auto chain = ledger::deserialize_chain(view);
  return chain ? chain.value().height() : 0;
}

TEST(Restart, UnknownNodeIsRejected) {
  for (const ProtocolKind protocol : kStacks) {
    SCOPED_TRACE(protocol_name(protocol));
    const std::unique_ptr<Deployment> deployment = make_deployment(stack_spec(protocol));
    deployment->start();
    EXPECT_FALSE(deployment->restart_node(NodeId{999}));
    EXPECT_FALSE(deployment->restart_node(NodeId{kClientIdBase + 1}));
    deployment->stop();
  }
}

class RestartContract : public ::testing::TestWithParam<ProtocolKind> {};

// restart_node reads the victim's disk but never writes it: the image is
// replayed before persistence is attached, so the replay cannot save it
// back. The rebuilt node resumes at the height the image holds.
TEST_P(RestartContract, LeavesTheDiskAloneAndResumesAtItsImage) {
  const ScenarioSpec spec = stack_spec(GetParam());
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr);
  deployment->run_for(Duration::seconds(20));

  const NodeId victim{3};
  ASSERT_TRUE(deployment->storage().has(victim));
  const SimDisk& disk = deployment->storage().disk(victim);
  const std::uint64_t saves = disk.saves();
  const Bytes image = disk.image();
  const Height height = image_height(GetParam(), image);
  ASSERT_GT(height, 0u);

  ASSERT_TRUE(deployment->restart_node(victim));
  EXPECT_EQ(disk.saves(), saves);
  EXPECT_EQ(disk.image(), image);
  EXPECT_EQ(node_height(*deployment, victim), height);
  deployment->stop();
}

INSTANTIATE_TEST_SUITE_P(AllStacks, RestartContract, ::testing::ValuesIn(kStacks),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return std::string(protocol_name(info.param));
                         });

// --- disk bytes on every stack --------------------------------------------------------

/// SHA-256 over every protocol node's disk, in id order: its id, saves(),
/// faults_applied() and image bytes.
std::string disk_digest(Deployment& deployment) {
  serde::Writer w;
  for (std::uint64_t i = 1; i <= deployment.spec().nodes; ++i) {
    const NodeId id{i};
    if (!deployment.storage().has(id)) continue;
    const SimDisk& disk = deployment.storage().disk(id);
    w.u64(id.value);
    w.u64(disk.saves());
    w.u64(disk.faults_applied());
    w.bytes(BytesView(disk.image().data(), disk.image().size()));
  }
  return crypto::sha256(BytesView(w.buffer().data(), w.buffer().size())).hex();
}

// Pins what every disk holds after a faulted run on each stack: node 2's
// next save is torn and node 2 restarts 2.5 s later; node 4's image rots
// and node 4 restarts from it at once. A change in what a save writes, or
// in how a fault damages it, moves a digest (the `disk/` entries of
// tests/goldens.sha256).
TEST(DiskImages, FaultedRunsLeaveTheSameBytesOnEveryStack) {
  for (const ProtocolKind protocol : kStacks) {
    const std::string golden = "disk/" + std::string(protocol_name(protocol));
    SCOPED_TRACE(golden);
    const ScenarioSpec spec = stack_spec(protocol);
    const std::unique_ptr<Deployment> deployment = make_deployment(spec);
    deployment->start();
    deployment->schedule_workload(spec.workload, nullptr);
    Deployment* raw = deployment.get();
    deployment->simulator().schedule(Duration::seconds(3), [raw]() {
      raw->inject_disk_fault(NodeId{2}, DiskFaultKind::TornWrite);
      raw->inject_disk_fault(NodeId{4}, DiskFaultKind::BitRot);
      ASSERT_TRUE(raw->restart_node(NodeId{4}));
    });
    deployment->simulator().schedule(Duration::millis(5500), [raw]() {
      ASSERT_TRUE(raw->restart_node(NodeId{2}));
    });
    deployment->run_for(Duration::seconds(30));
    deployment->stop();

    EXPECT_EQ(deployment->storage().disk(NodeId{2}).faults_applied(), 1u);
    EXPECT_EQ(deployment->storage().disk(NodeId{4}).faults_applied(), 1u);
    EXPECT_EQ(disk_digest(*deployment), goldens::pinned(golden));
  }
}

// --- G-PBFT restart across an era switch ----------------------------------------------

TEST(Restart, GpbftEndorserRestartsAcrossEraSwitch) {
  // The G-PBFT parity scenario: an era switch at ~15s promotes both
  // candidates. Restarting an endorser after the switch must re-derive the
  // era, roster and producer order from the persisted config blocks.
  const ScenarioSpec spec = gpbft_golden_spec();

  const auto cluster = std::make_unique<GpbftCluster>(spec);
  InvariantMonitor monitor(cluster->simulator());
  cluster->watch(monitor);
  cluster->start();
  cluster->schedule_workload(spec.workload, nullptr,
                             [&monitor](const ledger::Transaction& tx) {
                               monitor.expect_submission(tx);
                             });
  GpbftCluster* raw = cluster.get();
  // The single era switch of this scenario lands between 30s and 35s.
  cluster->simulator().schedule(Duration::seconds(40), [raw]() {
    ASSERT_GE(raw->era(), 1u);  // the switch happened before the reboot
    ASSERT_TRUE(raw->restart_node(NodeId{2}));
  });
  cluster->run_for(Duration::seconds(60));
  cluster->run_for(spec.engine.request_timeout * 3);
  cluster->stop();
  cluster->finish_invariants(monitor);
  monitor.check_restart_convergence();

  EXPECT_GE(cluster->total_era_switches(), 1u);
  EXPECT_EQ(cluster->committee_size(), 6u);  // both candidates promoted
  EXPECT_EQ(monitor.restarts_observed(), 1u);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
  // The rebooted endorser re-joined the post-switch roster view and holds
  // the same chain as an endorser that never went down.
  EXPECT_EQ(cluster->endorser(1).chain().height(), cluster->endorser(0).chain().height());
  EXPECT_EQ(cluster->endorser(1).chain().tip().hash().hex(),
            cluster->endorser(0).chain().tip().hash().hex());
}

// --- client retry backoff cap ---------------------------------------------------------

/// Committee member that records when each (re)transmitted REQUEST arrives
/// and never replies, so the client keeps backing off indefinitely.
class RequestSink : public net::INetNode {
 public:
  RequestSink(NodeId id, net::Network& network) : id_(id), network_(network) {
    network.attach(this);
  }
  [[nodiscard]] NodeId id() const override { return id_; }
  void handle(const net::Envelope& envelope) override {
    if (envelope.type == pbft::msg_type::kClientRequest) {
      arrivals_.push_back(network_.simulator().now());
    }
  }
  [[nodiscard]] const std::vector<TimePoint>& arrivals() const { return arrivals_; }

 private:
  NodeId id_;
  net::Network& network_;
  std::vector<TimePoint> arrivals_;
};

/// One unanswered submission against a single silent endorser: returns the
/// REQUEST arrival times over a 400 s horizon.
std::vector<TimePoint> retry_arrivals(Duration cap, std::uint64_t seed) {
  net::Simulator sim(seed);
  net::Network network(sim, net::NetConfig{});
  crypto::KeyRegistry keys(seed);
  const NodeId endorser{1};
  RequestSink sink(endorser, network);
  pbft::Client client(NodeId{kClientIdBase + 1}, {endorser}, network, keys,
                      /*compute_macs=*/false);
  client.set_retry_interval(Duration::seconds(10));
  client.set_max_backoff(cap);
  client.start();
  sim.schedule(Duration::seconds(1), [&client, &sim]() {
    client.submit(make_workload_tx(client.id(), 1, geo::GeoPoint{22.3964, 114.1095}, sim.now(),
                                   16, 1, 0));
  });
  sim.run_until(TimePoint{Duration::seconds(400).ns});
  client.stop();
  return sink.arrivals();
}

TEST(ClientBackoff, MaxBackoffBoundsEveryRetryGap) {
  // Cap 12 s over a 10 s base: uncapped, the exponential reaches 80 s
  // (+jitter); capped, no gap between consecutive resends may exceed the
  // cap plus the retry-tick half-interval (resends are only evaluated at
  // tick granularity).
  const Duration cap = Duration::seconds(12);
  const std::vector<TimePoint> capped = retry_arrivals(cap, 11);
  const std::vector<TimePoint> uncapped = retry_arrivals(Duration{0}, 11);

  ASSERT_GE(capped.size(), 20u);  // ~400 s / (cap + tick slack)
  const std::int64_t slack = Duration::seconds(5).ns + Duration::millis(100).ns;
  std::int64_t max_capped_gap = 0;
  for (std::size_t i = 1; i < capped.size(); ++i) {
    max_capped_gap = std::max(max_capped_gap, capped[i].ns - capped[i - 1].ns);
  }
  EXPECT_LE(max_capped_gap, cap.ns + slack);

  // The uncapped run demonstrates the cap did something: its exponential
  // gaps blow past the capped ceiling and it resends far less often.
  std::int64_t max_uncapped_gap = 0;
  for (std::size_t i = 1; i < uncapped.size(); ++i) {
    max_uncapped_gap = std::max(max_uncapped_gap, uncapped[i].ns - uncapped[i - 1].ns);
  }
  EXPECT_GT(max_uncapped_gap, cap.ns + slack);
  EXPECT_LT(uncapped.size() * 2, capped.size());
}

TEST(ClientBackoff, JitterStreamIsDeterministicWithAndWithoutCap) {
  // Same seed, same cap -> byte-identical retry schedules; and the very
  // first delivery (clamp applies after the jitter draw) coincides between
  // capped and uncapped runs, so arming a cap never shifts the RNG stream.
  const Duration cap = Duration::seconds(12);
  const std::vector<TimePoint> first = retry_arrivals(cap, 23);
  const std::vector<TimePoint> second = retry_arrivals(cap, 23);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i].ns, second[i].ns);

  const std::vector<TimePoint> uncapped = retry_arrivals(Duration{0}, 23);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(uncapped.empty());
  EXPECT_EQ(first.front().ns, uncapped.front().ns);
}

// --- determinism ----------------------------------------------------------------------

TEST(Restart, RunsWithRestartsAreSeedDeterministic) {
  auto tip_of = [](const ScenarioSpec& spec) {
    const auto cluster = std::make_unique<PbftCluster>(spec);
    cluster->start();
    cluster->schedule_workload(spec.workload, nullptr);
    PbftCluster* raw = cluster.get();
    cluster->simulator().schedule(Duration::seconds(6), [raw]() {
      (void)raw->restart_node(NodeId{2});
    });
    cluster->simulator().schedule(Duration::seconds(9), [raw]() {
      raw->inject_disk_fault(NodeId{4}, DiskFaultKind::BitRot);
      (void)raw->restart_node(NodeId{4});
    });
    cluster->run_until_committed(spec.workload.txs_per_client,
                                 TimePoint{Duration::seconds(600).ns});
    cluster->run_for(spec.engine.request_timeout * 3);
    cluster->stop();
    return cluster->replica(0).chain().tip().hash().hex() + "/" +
           std::to_string(cluster->committed_count());
  };
  const ScenarioSpec spec = pbft_spec();
  const std::string first = tip_of(spec);
  const std::string second = tip_of(spec);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("/8"), std::string::npos) << first;
}

}  // namespace
}  // namespace gpbft::sim
