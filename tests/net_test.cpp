// Discrete-event simulator and network model tests: event ordering, timing
// math, queueing (the paper's s), accounting, and fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/simulator.hpp"

namespace gpbft::net {
namespace {

// --- simulator -------------------------------------------------------------------

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule(Duration::seconds(3), [&order]() { order.push_back(3); });
  sim.schedule(Duration::seconds(1), [&order]() { order.push_back(1); });
  sim.schedule(Duration::seconds(2), [&order]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().to_seconds(), 3.0);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Duration::seconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim(1);
  bool fired = false;
  sim.schedule(Duration::seconds(-5), [&fired]() { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().ns, 0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim(1);
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(Duration::seconds(i), [&fired]() { ++fired; });
  }
  sim.run_until(TimePoint{Duration::seconds(5).ns});
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now().to_seconds(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim(1);
  sim.run_until(TimePoint{Duration::seconds(42).ns});
  EXPECT_EQ(sim.now().to_seconds(), 42.0);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim(1);
  std::vector<double> times;
  sim.schedule(Duration::seconds(1), [&]() {
    times.push_back(sim.now().to_seconds());
    sim.schedule(Duration::seconds(2), [&]() { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
}

TEST(Simulator, MaxEventsBoundsRun) {
  Simulator sim(1);
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(Duration::seconds(1), [&fired]() { ++fired; });
  sim.run(4);
  EXPECT_EQ(fired, 4);
}

// --- network ------------------------------------------------------------------------

class RecordingNode : public INetNode {
 public:
  explicit RecordingNode(NodeId id) : id_(id) {}
  [[nodiscard]] NodeId id() const override { return id_; }
  void handle(const Envelope& envelope) override { received.push_back(envelope); }
  std::vector<Envelope> received;

 private:
  NodeId id_;
};

NetConfig quiet_config() {
  NetConfig config;
  config.base_latency = Duration::millis(2);
  config.jitter = Duration{0};
  config.bandwidth_bytes_per_sec = 1e12;  // negligible transmission delay
  config.processing_rate_msgs_per_sec = 1000.0;
  return config;
}

TEST(Network, DeliversWithLatencyAndProcessing) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.send(Envelope{NodeId{1}, NodeId{2}, 7, Bytes{1, 2, 3}});
  sim.run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].type, 7);
  EXPECT_EQ(b.received[0].payload, (Bytes{1, 2, 3}));
  // latency 2 ms + processing 1 ms.
  EXPECT_NEAR(sim.now().to_seconds(), 0.003, 1e-9);
}

TEST(Network, ReceiverQueueSerializesProcessing) {
  // Two messages arriving together finish 1/s apart: the paper's s model.
  Simulator sim(1);
  NetConfig config = quiet_config();
  config.processing_rate_msgs_per_sec = 10.0;  // 100 ms per message
  Network network(sim, config);
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  std::vector<double> handled_at;
  struct TimedNode : INetNode {
    Simulator* sim;
    NodeId node_id;
    std::vector<double>* times;
    [[nodiscard]] NodeId id() const override { return node_id; }
    void handle(const Envelope&) override { times->push_back(sim->now().to_seconds()); }
  } timed;
  timed.sim = &sim;
  timed.node_id = NodeId{3};
  timed.times = &handled_at;
  network.attach(&timed);

  network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{1}});
  network.send(Envelope{NodeId{2}, NodeId{3}, 1, Bytes{2}});
  sim.run();

  ASSERT_EQ(handled_at.size(), 2u);
  EXPECT_NEAR(handled_at[1] - handled_at[0], 0.1, 1e-9);
}

TEST(Network, PerNodeProcessingRateOverride) {
  Simulator sim(1);
  NetConfig config = quiet_config();
  config.base_latency = Duration{0};
  config.processing_rate_msgs_per_sec = 10.0;  // default: 100 ms per message
  Network network(sim, config);
  RecordingNode sender(NodeId{1}), fast(NodeId{2}), slow(NodeId{3});
  network.attach(&sender);
  network.attach(&fast);
  network.attach(&slow);
  network.set_processing_rate(NodeId{2}, 1000.0);  // 1 ms per message

  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{2}), 1000.0);
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{3}), 10.0);

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  const double fast_done = sim.now().to_seconds();
  network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{1}});
  sim.run();
  const double slow_done = sim.now().to_seconds() - fast_done;
  EXPECT_NEAR(fast_done, 0.001, 1e-9);
  EXPECT_NEAR(slow_done, 0.1, 1e-9);

  // Clearing the override restores the default.
  network.set_processing_rate(NodeId{2}, 0);
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{2}), 10.0);
}

TEST(Network, TransmissionDelayScalesWithSize) {
  Simulator sim(1);
  NetConfig config = quiet_config();
  config.bandwidth_bytes_per_sec = 1000.0;  // 1 KB/s
  config.base_latency = Duration{0};
  config.processing_rate_msgs_per_sec = 1e9;
  Network network(sim, config);
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes(968, 0)});  // 968 + 32 header = 1000 B
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 1e-6);
}

TEST(Network, AccountsBytesPerNodeAndType) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.send(Envelope{NodeId{1}, NodeId{2}, 5, Bytes(10, 0)});
  network.send(Envelope{NodeId{1}, NodeId{2}, 6, Bytes(20, 0)});
  sim.run();

  const NetStats& stats = network.stats();
  EXPECT_EQ(stats.total_messages, 2u);
  EXPECT_EQ(stats.total_bytes, 10u + 20u + 2 * Envelope::kHeaderBytes);
  EXPECT_EQ(stats.bytes_by_type.at(5), 10u + Envelope::kHeaderBytes);
  EXPECT_EQ(stats.bytes_by_type.at(6), 20u + Envelope::kHeaderBytes);
  EXPECT_EQ(stats.per_node.at(NodeId{1}).messages_sent, 2u);
  EXPECT_EQ(stats.per_node.at(NodeId{2}).messages_received, 2u);
  EXPECT_EQ(stats.per_node.at(NodeId{2}).bytes_received, stats.total_bytes);
}

TEST(Network, BroadcastSkipsSelf) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2}), c(NodeId{3});
  network.attach(&a);
  network.attach(&b);
  network.attach(&c);

  network.broadcast(NodeId{1}, {NodeId{1}, NodeId{2}, NodeId{3}}, 1, Bytes{9});
  sim.run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(Network, DropRateDropsEverythingAtOne) {
  Simulator sim(1);
  NetConfig config = quiet_config();
  config.drop_rate = 1.0;
  Network network(sim, config);
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  for (int i = 0; i < 10; ++i) network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.stats().dropped_messages, 10u);
  // Sender-side bytes still accounted (they went on the wire).
  EXPECT_EQ(network.stats().total_messages, 10u);
}

TEST(Network, CrashedReceiverGetsNothing) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  network.crash(NodeId{2});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_TRUE(b.received.empty());

  network.recover(NodeId{2});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, CrashedSenderSendsNothing) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  network.crash(NodeId{1});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.stats().total_messages, 0u);
}

TEST(Network, PartitionSeparatesGroups) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2}), c(NodeId{3});
  network.attach(&a);
  network.attach(&b);
  network.attach(&c);

  network.partition({{NodeId{1}, NodeId{2}}, {NodeId{3}}});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});  // same side
  network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{1}});  // across
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(c.received.empty());

  network.heal_partition();
  network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{1}});
  sim.run();
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(Network, BlockedLinkIsOneWay) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.block_link(NodeId{1}, NodeId{2});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  network.send(Envelope{NodeId{2}, NodeId{1}, 1, Bytes{1}});
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.received.size(), 1u);

  network.unblock_link(NodeId{1}, NodeId{2});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, DetachedNodeCountsAsDrop) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1});
  network.attach(&a);
  network.send(Envelope{NodeId{1}, NodeId{99}, 1, Bytes{1}});
  sim.run();
  EXPECT_EQ(network.stats().dropped_messages, 1u);
}

TEST(Network, ResetStatsClears) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_GT(network.stats().total_bytes, 0u);
  network.reset_stats();
  EXPECT_EQ(network.stats().total_bytes, 0u);
  EXPECT_TRUE(network.stats().per_node.empty());
}

// --- per-link fault rules ------------------------------------------------------------

// Records the simulated time each payload byte was handled.
struct TimedRecorder : INetNode {
  Simulator* sim{nullptr};
  NodeId node_id;
  std::vector<std::pair<std::uint8_t, double>> handled;
  [[nodiscard]] NodeId id() const override { return node_id; }
  void handle(const Envelope& envelope) override {
    handled.emplace_back(envelope.payload.empty() ? 0 : envelope.payload[0],
                         sim->now().to_seconds());
  }
};

TEST(Network, LinkFaultLossDropsOnlyThatLink) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2}), c(NodeId{3});
  network.attach(&a);
  network.attach(&b);
  network.attach(&c);

  network.set_link_fault(NodeId{1}, NodeId{2}, LinkFault{.loss = 1.0});
  for (int i = 0; i < 5; ++i) {
    network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
    network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{1}});
  }
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 5u);
  EXPECT_EQ(network.stats().dropped_messages, 5u);

  network.clear_link_fault(NodeId{1}, NodeId{2});
  EXPECT_EQ(network.link_fault(NodeId{1}, NodeId{2}), nullptr);
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, LinkFaultExtraLatencyDelaysDelivery) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.set_link_fault(NodeId{1}, NodeId{2},
                         LinkFault{.extra_latency = Duration::millis(50)});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  // base 2 ms + extra 50 ms + processing 1 ms (vs 3 ms on a clean link).
  EXPECT_NEAR(sim.now().to_seconds(), 0.053, 1e-9);
}

TEST(Network, LinkFaultDuplicateDeliversTwice) {
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.set_link_fault(NodeId{1}, NodeId{2}, LinkFault{.duplicate = 1.0});
  network.send(Envelope{NodeId{1}, NodeId{2}, 7, Bytes{9}});
  sim.run();
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(network.stats().duplicated_messages, 1u);
  // The ghost is a fault artefact, not sender traffic.
  EXPECT_EQ(network.stats().total_messages, 1u);
}

TEST(Network, LinkFaultReorderWindowReordersMessages) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    Network network(sim, quiet_config());
    RecordingNode a(NodeId{1});
    TimedRecorder b;
    b.sim = &sim;
    b.node_id = NodeId{2};
    network.attach(&a);
    network.attach(&b);
    network.set_link_fault(NodeId{1}, NodeId{2},
                           LinkFault{.reorder_window = Duration::millis(50)});
    for (std::uint8_t i = 0; i < 10; ++i) {
      network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{i}});
    }
    sim.run();
    std::vector<std::uint8_t> order;
    for (const auto& [payload, when] : b.handled) order.push_back(payload);
    return order;
  };

  const std::vector<std::uint8_t> order = run_once(42);
  ASSERT_EQ(order.size(), 10u);
  // The window shuffles arrivals: later sends overtake earlier ones.
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  // ... deterministically under a fixed seed.
  EXPECT_EQ(order, run_once(42));
  EXPECT_NE(order, run_once(43));
}

TEST(Network, BrownoutSlowsProcessingUntilCleared) {
  Simulator sim(1);
  Network network(sim, quiet_config());  // 1000 msgs/s: 1 ms per message
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.set_brownout(NodeId{2}, 10.0);  // 100 msgs/s: 10 ms per message
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{2}), 100.0);
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 0.012, 1e-9);  // 2 ms latency + 10 ms

  network.clear_brownout(NodeId{2});
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{2}), 1000.0);
  const double before = sim.now().to_seconds();
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds() - before, 0.003, 1e-9);

  // A factor <= 1 is a clear, not a speed-up.
  network.set_brownout(NodeId{2}, 0.5);
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{2}), 1000.0);
}

TEST(Network, RecoverResetsProcessingBacklog) {
  Simulator sim(1);
  NetConfig config = quiet_config();
  config.processing_rate_msgs_per_sec = 10.0;  // 100 ms per message
  Network network(sim, config);
  RecordingNode a(NodeId{1});
  TimedRecorder b;
  b.sim = &sim;
  b.node_id = NodeId{2};
  network.attach(&a);
  network.attach(&b);

  // Three messages queue node 2 solid until t = 302 ms.
  for (std::uint8_t i = 0; i < 3; ++i) {
    network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{i}});
  }
  sim.run_until(TimePoint{Duration::millis(50).ns});

  // Reboot at t = 50 ms: the accumulated backlog is discarded, so a fresh
  // message is processed on arrival instead of behind the dead queue.
  network.crash(NodeId{2});
  network.recover(NodeId{2});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{99}});
  sim.run();

  double fresh_handled = 0;
  for (const auto& [payload, when] : b.handled) {
    if (payload == 99) fresh_handled = when;
  }
  // arrival 52 ms + 100 ms processing — not 302 ms + 100 ms.
  EXPECT_NEAR(fresh_handled, 0.152, 1e-9);
}

TEST(Network, BlockedLinkDoesNotPerturbDropDecisionsElsewhere) {
  // Fault decisions live on a dedicated RNG stream and are drawn before the
  // blocked/partition checks, so toggling a block on one link must not
  // change which messages the global drop rate kills on another.
  auto delivered_to_b = [](bool block_third_link) {
    Simulator sim(7);
    NetConfig config = quiet_config();
    config.jitter = Duration{0};
    config.drop_rate = 0.3;
    Network network(sim, config);
    RecordingNode a(NodeId{1}), b(NodeId{2}), c(NodeId{3});
    network.attach(&a);
    network.attach(&b);
    network.attach(&c);
    if (block_third_link) network.block_link(NodeId{1}, NodeId{3});
    std::vector<std::uint8_t> order;
    struct Sink : INetNode {
      NodeId node_id;
      std::vector<std::uint8_t>* out;
      [[nodiscard]] NodeId id() const override { return node_id; }
      void handle(const Envelope& envelope) override { out->push_back(envelope.payload[0]); }
    } sink;
    sink.node_id = NodeId{4};
    sink.out = &order;
    network.attach(&sink);
    for (std::uint8_t i = 0; i < 20; ++i) {
      network.send(Envelope{NodeId{1}, NodeId{4}, 1, Bytes{i}});
      network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{i}});
    }
    sim.run();
    return order;
  };

  const std::vector<std::uint8_t> clean = delivered_to_b(false);
  EXPECT_EQ(clean, delivered_to_b(true));
  EXPECT_LT(clean.size(), 20u);  // the drop rate actually bit
  EXPECT_GT(clean.size(), 0u);
}

TEST(Network, LinkFaultsDeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    NetConfig config = quiet_config();
    config.jitter = Duration::millis(5);
    Network network(sim, config);
    RecordingNode a(NodeId{1}), b(NodeId{2});
    network.attach(&a);
    network.attach(&b);
    network.set_link_fault(NodeId{1}, NodeId{2},
                           LinkFault{.loss = 0.3,
                                     .extra_latency = Duration::millis(10),
                                     .duplicate = 0.3,
                                     .reorder_window = Duration::millis(15)});
    for (int i = 0; i < 30; ++i) network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
    sim.run();
    return std::make_pair(sim.now().ns, b.received.size());
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(Network, DropAccountingMatchesTelemetry) {
  // Every drop path — send-time fault, receiver crashed at arrival,
  // receiver crashed between arrival and processing-done, receiver
  // detached — must move NetStats::dropped_messages and the
  // `net.msgs_dropped` counter together. Delivery-time drops used to skip
  // the counter, so metrics JSONL undercounted relative to NetStats.
  Simulator sim(1);
  Network network(sim, quiet_config());
  obs::Telemetry telemetry;
  network.set_telemetry(telemetry);
  RecordingNode a(NodeId{1}), b(NodeId{2}), c(NodeId{3});
  network.attach(&a);
  network.attach(&b);
  network.attach(&c);

  // Two send-time drops.
  network.set_drop_rate(1.0);
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{2}});
  network.set_drop_rate(0.0);

  // Receiver crashed before arrival: dropped at the arrival instant.
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{3}});
  network.crash(NodeId{2});
  sim.run();
  network.recover(NodeId{2});

  // Receiver crashes after arrival but before processing completes
  // (arrival at 2 ms, done at 3 ms): dropped at the done instant.
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{4}});
  sim.run_until(sim.now() + Duration::micros(2500));
  network.crash(NodeId{2});
  sim.run();
  network.recover(NodeId{2});

  // Receiver detached mid-flight.
  network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{5}});
  network.detach(NodeId{3});
  sim.run();

  EXPECT_EQ(network.stats().dropped_messages, 5u);
  EXPECT_EQ(telemetry.metrics().counter_total("net.msgs_dropped"),
            network.stats().dropped_messages);
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(c.received.empty());
}

TEST(Network, DetachClearsPerNodeDegradation) {
  // A node id re-attached after an era switch or restart must not inherit
  // the departed node's processing-rate override or brownout.
  Simulator sim(1);
  Network network(sim, quiet_config());  // default 1000 msgs/s
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.set_processing_rate(NodeId{2}, 10.0);
  network.set_brownout(NodeId{2}, 4.0);
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{2}), 2.5);

  network.detach(NodeId{2});
  RecordingNode reborn(NodeId{2});
  network.attach(&reborn);
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{2}),
                   network.config().processing_rate_msgs_per_sec);

  // And the timing agrees: 2 ms latency + 1 ms default processing, not the
  // 400 ms the stale override+brownout would have charged.
  const TimePoint before = sim.now();
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  ASSERT_EQ(reborn.received.size(), 1u);
  EXPECT_NEAR((sim.now() - before).to_seconds(), 0.003, 1e-9);
}

TEST(Network, RestartedNodeStartsWithEmptyBacklog) {
  // The full Deployment::restart_node network sequence (recover → detach →
  // attach) on a node crashed mid-queue: the rebuilt node's first message
  // must be processed on arrival, not behind the dead node's backlog.
  Simulator sim(1);
  NetConfig config = quiet_config();
  config.processing_rate_msgs_per_sec = 10.0;  // 100 ms per message
  Network network(sim, config);
  RecordingNode a(NodeId{1});
  TimedRecorder b;
  b.sim = &sim;
  b.node_id = NodeId{2};
  network.attach(&a);
  network.attach(&b);

  // Three messages queue node 2 solid until t = 302 ms.
  for (std::uint8_t i = 0; i < 3; ++i) {
    network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{i}});
  }
  sim.run_until(TimePoint{Duration::millis(50).ns});

  network.crash(NodeId{2});
  network.recover(NodeId{2});
  network.detach(NodeId{2});
  TimedRecorder rebuilt;
  rebuilt.sim = &sim;
  rebuilt.node_id = NodeId{2};
  network.attach(&rebuilt);

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{99}});
  sim.run();

  double fresh_handled = 0;
  for (const auto& [payload, when] : rebuilt.handled) {
    if (payload == 99) fresh_handled = when;
  }
  // arrival 52 ms + 100 ms processing — not behind the 302 ms backlog.
  EXPECT_NEAR(fresh_handled, 0.152, 1e-9);
}

TEST(Network, DetachAndAttachKeepCrashFlagPartitionGroupCountsAndEarlyRate) {
  // What a restart (detach + attach) keeps: the crash flag (only recover
  // clears it), the partition group (a node restarted inside a partition
  // stays cut off) and the traffic counts. And a rate override set before
  // the first attach survives that attach.
  Simulator sim(1);
  Network network(sim, quiet_config());  // default 1000 msgs/s
  network.set_processing_rate(NodeId{3}, 10.0);
  RecordingNode a(NodeId{1}), b(NodeId{2}), c(NodeId{3});
  network.attach(&a);
  network.attach(&b);
  network.attach(&c);
  EXPECT_DOUBLE_EQ(network.processing_rate_of(NodeId{3}), 10.0);

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);

  network.crash(NodeId{2});
  network.detach(NodeId{2});
  EXPECT_EQ(network.stats().per_node.at(NodeId{2}).messages_received, 1u);
  EXPECT_EQ(network.stats().per_node.at(NodeId{1}).messages_sent, 1u);
  RecordingNode b_rebuilt(NodeId{2});
  network.attach(&b_rebuilt);
  EXPECT_TRUE(network.is_crashed(NodeId{2}));
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{2}});
  sim.run();
  EXPECT_TRUE(b_rebuilt.received.empty());
  network.recover(NodeId{2});
  EXPECT_FALSE(network.is_crashed(NodeId{2}));
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{3}});
  sim.run();
  EXPECT_EQ(b_rebuilt.received.size(), 1u);

  network.partition({{NodeId{1}, NodeId{2}}, {NodeId{3}}});
  network.detach(NodeId{3});
  RecordingNode c_rebuilt(NodeId{3});
  network.attach(&c_rebuilt);
  network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{4}});
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{4}});
  sim.run();
  EXPECT_TRUE(c_rebuilt.received.empty());
  EXPECT_EQ(b_rebuilt.received.size(), 2u);
  network.heal_partition();
  network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{5}});
  sim.run();
  EXPECT_EQ(c_rebuilt.received.size(), 1u);
  EXPECT_EQ(network.stats().per_node.at(NodeId{2}).messages_received, 3u);
}

TEST(Network, DuplicatedAndDroppedMessageLeavesNoGhost) {
  // Send-time fault draws happen in a fixed order on the dedicated fault
  // stream: drop first, then duplicate. A message that loses both coin
  // flips is simply gone — no ghost copy is scheduled and the duplicate
  // counter does not move. Pinned so a hot-path rewrite cannot reorder the
  // draws (seed-for-seed fault-stream comparability is documented in
  // Network::send).
  Simulator sim(1);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.set_link_fault(NodeId{1}, NodeId{2}, LinkFault{.loss = 1.0, .duplicate = 1.0});
  for (int i = 0; i < 4; ++i) {
    network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
  }
  sim.run();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.stats().dropped_messages, 4u);
  EXPECT_EQ(network.stats().duplicated_messages, 0u);
}

TEST(Network, DeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    NetConfig config = quiet_config();
    config.jitter = Duration::millis(5);
    Network network(sim, config);
    RecordingNode a(NodeId{1}), b(NodeId{2});
    network.attach(&a);
    network.attach(&b);
    for (int i = 0; i < 20; ++i) network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1}});
    sim.run();
    return sim.now().ns;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

// --- wire tampering --------------------------------------------------------

TamperRule bitflip_only_rule(TamperRule::Mode mode) {
  TamperRule rule;
  rule.mode = mode;
  rule.chance = 1.0;
  rule.truncate = rule.extend = rule.retype = rule.oversize = rule.replay = 0.0;
  rule.max_flips = 1;  // a single flip can never cancel itself out
  return rule;
}

TEST(Network, TamperZeroChanceRuleIsNeutral) {
  auto run_once = [](bool install_rule) {
    Simulator sim(11);
    Network network(sim, quiet_config());
    RecordingNode a(NodeId{1}), b(NodeId{2});
    network.attach(&a);
    network.attach(&b);
    if (install_rule) network.set_tamper(TamperRule{});  // chance 0
    for (int i = 0; i < 5; ++i) {
      network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{static_cast<std::uint8_t>(i)}});
    }
    sim.run();
    return std::make_tuple(sim.now().ns, b.received.size(), network.stats().tampered_messages);
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(Network, ClearTamperRestoresCleanWire) {
  Simulator sim(3);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);

  network.set_tamper(bitflip_only_rule(TamperRule::Mode::Replace));
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1, 2, 3, 4}});
  sim.run();
  EXPECT_EQ(network.stats().tampered_messages, 1u);

  network.clear_tamper();
  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1, 2, 3, 4}});
  sim.run();
  EXPECT_EQ(network.stats().tampered_messages, 1u);
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[1].payload, (Bytes{1, 2, 3, 4}));
}

TEST(Network, ReplaceModeMutatesTheDeliveredEnvelope) {
  Simulator sim(3);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  network.set_tamper(bitflip_only_rule(TamperRule::Mode::Replace));

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1, 2, 3, 4}});
  sim.run();

  // MITM: the mutant takes the genuine message's place — one delivery,
  // bytes differ.
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_NE(b.received[0].payload, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(network.stats().tampered_messages, 1u);
  EXPECT_EQ(network.stats().per_node.at(NodeId{2}).messages_received, 1u);
}

TEST(Network, InjectModeDeliversGhostAlongsideOriginal) {
  Simulator sim(3);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  network.set_tamper(bitflip_only_rule(TamperRule::Mode::Inject));

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1, 2, 3, 4}});
  sim.run();

  // Man-on-the-side: the genuine envelope arrives untouched, the mutant
  // rides along as an edge-injected ghost. Both count as received traffic.
  ASSERT_EQ(b.received.size(), 2u);
  const int genuine = static_cast<int>(b.received[0].payload == Bytes{1, 2, 3, 4}) +
                      static_cast<int>(b.received[1].payload == Bytes{1, 2, 3, 4});
  EXPECT_EQ(genuine, 1);
  EXPECT_EQ(network.stats().tampered_messages, 1u);
  EXPECT_EQ(network.stats().per_node.at(NodeId{2}).messages_received, 2u);
}

TEST(Network, ReplayRedeliversGenuineBytes) {
  Simulator sim(3);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  TamperRule rule;
  rule.mode = TamperRule::Mode::Inject;
  rule.chance = 1.0;
  rule.bitflip = rule.truncate = rule.extend = rule.retype = rule.oversize = 0.0;
  rule.replay = 1.0;
  rule.replay_delay_max = Duration::millis(5);
  network.set_tamper(rule);

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{9, 9, 9}});
  sim.run();

  // The replayed ghost is a verbatim copy of captured genuine traffic.
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].payload, (Bytes{9, 9, 9}));
  EXPECT_EQ(b.received[1].payload, (Bytes{9, 9, 9}));
  EXPECT_EQ(network.stats().replayed_messages, 1u);
  EXPECT_EQ(network.stats().tampered_messages, 1u);
}

TEST(Network, SparedTypesPassUntouched) {
  Simulator sim(3);
  Network network(sim, quiet_config());
  RecordingNode a(NodeId{1}), b(NodeId{2});
  network.attach(&a);
  network.attach(&b);
  TamperRule rule = bitflip_only_rule(TamperRule::Mode::Replace);
  rule.spare_types = {7};
  network.set_tamper(rule);

  network.send(Envelope{NodeId{1}, NodeId{2}, 7, Bytes{1, 2, 3, 4}});
  sim.run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(network.stats().tampered_messages, 0u);
}

TEST(Network, TamperDeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    NetConfig config = quiet_config();
    config.jitter = Duration::millis(5);
    Network network(sim, config);
    RecordingNode a(NodeId{1}), b(NodeId{2});
    network.attach(&a);
    network.attach(&b);
    TamperRule rule;
    rule.mode = TamperRule::Mode::Replace;
    rule.chance = 0.5;
    network.set_tamper(rule);
    for (int i = 0; i < 40; ++i) {
      network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{1, 2, 3, 4, 5, 6}});
    }
    sim.run();
    std::vector<std::size_t> sizes;
    for (const auto& envelope : b.received) sizes.push_back(envelope.payload.size());
    return std::make_tuple(sim.now().ns, network.stats().tampered_messages, sizes);
  };
  EXPECT_EQ(run_once(5), run_once(5));
  const auto tampered = std::get<1>(run_once(5));
  EXPECT_GT(tampered, 0u);
  EXPECT_LT(tampered, 40u);
}

TEST(Network, RejectionAccountingMatchesTelemetry) {
  // note_rejected must move NetStats::rejected_messages, the per-type map,
  // and the `net.msgs_rejected` telemetry counters (total + per-type) in
  // lockstep — the reject-side mirror of drop accounting.
  Simulator sim(1);
  Network network(sim, quiet_config());
  obs::Telemetry telemetry;
  network.set_telemetry(telemetry);

  network.note_rejected(3);
  network.note_rejected(3);
  network.note_rejected(4);

  EXPECT_EQ(network.stats().rejected_messages, 3u);
  EXPECT_EQ(network.stats().rejected_by_type.at(3), 2u);
  EXPECT_EQ(network.stats().rejected_by_type.at(4), 1u);
  EXPECT_EQ(telemetry.metrics().counter_total("net.msgs_rejected"),
            network.stats().rejected_messages);
  EXPECT_EQ(telemetry.metrics().counter_total("net.msgs_rejected." + telemetry.message_name(3)),
            2u);
  EXPECT_EQ(telemetry.metrics().counter_total("net.msgs_rejected." + telemetry.message_name(4)),
            1u);
}

// --- event core -------------------------------------------------------------------

/// A node whose handler runs a callback.
class CallbackNode : public INetNode {
 public:
  CallbackNode(NodeId id, std::function<void(const Envelope&)> on_handle)
      : id_(id), on_handle_(std::move(on_handle)) {}
  [[nodiscard]] NodeId id() const override { return id_; }
  void handle(const Envelope& envelope) override { on_handle_(envelope); }

 private:
  NodeId id_;
  std::function<void(const Envelope&)> on_handle_;
};

/// Three events tied at 2 ms: a timer, the arrival of a message to node 3
/// and the done event of a message to node 2. Node 3 is never attached, so
/// its arrival drops the message, and the drop count each observer sees
/// tells whether the arrival has fired yet.
struct TiedEvents {
  static NetConfig config() {
    NetConfig config = quiet_config();
    config.base_latency = Duration::millis(1);  // arrival 1 ms after send, done 1 ms later
    return config;
  }

  Simulator sim{1};
  Network network{sim, config()};
  const TimePoint tie{Duration::millis(2).ns};
  using Fired = std::vector<std::pair<std::string, std::uint64_t>>;  // observer, drops seen
  Fired fired;
  RecordingNode sender{NodeId{1}};
  CallbackNode receiver{NodeId{2}, [this](const Envelope&) { note("done"); }};

  TiedEvents() {
    network.attach(&sender);
    network.attach(&receiver);
  }
  void note(const std::string& observer) {
    EXPECT_EQ(sim.now(), tie) << observer;
    fired.emplace_back(observer, network.stats().dropped_messages);
  }
  void send_to_done() { network.send(Envelope{NodeId{1}, NodeId{2}, 1, Bytes{2}}); }
  void send_to_drop() { network.send(Envelope{NodeId{1}, NodeId{3}, 1, Bytes{3}}); }
  void arm_timer() {
    sim.schedule_at(tie, [this]() { note("timer"); });
  }
};

TEST(EventCore, TiedTimerArrivalAndDoneFireInSchedulingOrder) {
  TiedEvents events;
  events.arm_timer();
  events.network.set_link_fault(NodeId{1}, NodeId{3},
                                LinkFault{.extra_latency = Duration::millis(1)});
  events.send_to_drop();  // arrival at 2 ms
  events.send_to_done();  // arrival at 1 ms schedules the done event for 2 ms
  events.sim.run();
  EXPECT_EQ(events.fired, (TiedEvents::Fired{{"timer", 0}, {"done", 1}}));
  EXPECT_EQ(events.network.stats().dropped_messages, 1u);
}

TEST(EventCore, TiedDoneArrivalAndTimerFireInSchedulingOrder) {
  // The reverse: kind does not order ties, the sequence number does.
  TiedEvents events;
  events.send_to_done();  // arrival at 1 ms schedules the done event for 2 ms
  events.sim.schedule(Duration::millis(1), [&events]() {
    // Fires at 1 ms after that arrival, so both of these come after the
    // done event.
    events.send_to_drop();  // arrival at 2 ms
    events.arm_timer();
  });
  events.sim.run();
  EXPECT_EQ(events.fired, (TiedEvents::Fired{{"done", 0}, {"timer", 1}}));
  EXPECT_EQ(events.network.stats().dropped_messages, 1u);
}

TEST(EventCore, HandlerSendsLeaveItsOwnEnvelopeIntact) {
  // A done event takes its message out of the delivery slab before the
  // handler runs. The handler's 1,000 sends grow the slab and the first of
  // them reuses the slot just freed; the envelope it holds must not move.
  Simulator sim(1);
  Network network(sim, quiet_config());
  Bytes original(200);
  for (std::size_t i = 0; i < original.size(); ++i) original[i] = static_cast<std::uint8_t>(i);
  RecordingNode sender(NodeId{1}), sink(NodeId{3});
  bool checked = false;
  CallbackNode relay(NodeId{2}, [&](const Envelope& envelope) {
    for (int i = 0; i < 1'000; ++i) {
      network.send(Envelope{NodeId{2}, NodeId{3}, 2, Bytes(64, 0xee)});
    }
    EXPECT_EQ(envelope.from, NodeId{1});
    EXPECT_EQ(envelope.to, NodeId{2});
    EXPECT_EQ(envelope.type, 1);
    EXPECT_EQ(envelope.payload, original);
    checked = true;
  });
  network.attach(&sender);
  network.attach(&relay);
  network.attach(&sink);

  network.send(Envelope{NodeId{1}, NodeId{2}, 1, original});
  sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(sink.received.size(), 1'000u);
}

}  // namespace
}  // namespace gpbft::net
