// Quickstart: a 4-endorser G-PBFT network committing IoT transactions.
//
// Shows the minimal public-API flow: describe the deployment with a
// declarative ScenarioSpec, build a GpbftCluster from it, submit
// transactions from an IoT client, watch them commit, inspect the ledger,
// the fee distribution (70/30 incentive) and the election table (the
// paper's Table II).
//
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "sim/deployment.hpp"
#include "sim/workload.hpp"

int main() {
  using namespace gpbft;

  // --- 1. describe the deployment ---------------------------------------------
  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.nodes = 4;              // four fixed IoT devices (street lamps, say)
  spec.committee.initial = 4;  // all four are genesis endorsers
  spec.clients = 2;            // two data-producing devices
  spec.seed = 2024;

  const auto cluster = std::make_unique<sim::GpbftCluster>(spec);
  cluster->start();
  std::printf("deployment area (geohash prefix): %s\n",
              cluster->placement().area_prefix().c_str());
  std::printf("genesis committee: ");
  for (const NodeId id : cluster->roster()) std::printf("%s ", id.str().c_str());
  std::printf("\n\n");

  // --- 2. submit transactions ---------------------------------------------------
  // Each transaction carries the device's geographic trailer
  // <longitude, latitude, timestamp> as §III-B2 of the paper specifies.
  for (RequestId r = 1; r <= 5; ++r) {
    const std::size_t who = r % cluster->client_count();
    auto& client = cluster->client(who);
    client.set_commit_callback([r](const crypto::Hash256& digest, Height height,
                                   Duration latency) {
      std::printf("tx %llu (%s...) committed at height %llu after %.3f s\n",
                  static_cast<unsigned long long>(r), digest.hex().substr(0, 12).c_str(),
                  static_cast<unsigned long long>(height), latency.to_seconds());
    });
    client.submit(sim::make_workload_tx(client.id(), r, cluster->placement().position(who),
                                        cluster->simulator().now(), 24, /*fee=*/10, r));
    cluster->run_for(Duration::seconds(2));
  }

  // --- 3. inspect the ledger ------------------------------------------------------
  const auto& chain = cluster->endorser(0).chain();
  std::printf("\nledger: height %llu, tip %s...\n",
              static_cast<unsigned long long>(chain.height()),
              chain.tip().hash().hex().substr(0, 16).c_str());
  for (Height h = 1; h <= chain.height(); ++h) {
    const auto& block = chain.at(h);
    std::printf("  block %llu: %zu tx, producer %s, era %llu, fees %llu\n",
                static_cast<unsigned long long>(h), block.transactions.size(),
                block.header.producer.str().c_str(),
                static_cast<unsigned long long>(block.header.era),
                static_cast<unsigned long long>(block.total_fees()));
  }

  // --- 4. incentive: 70% to producers, 30% shared (§III-B5) -----------------------
  std::printf("\nendorser reward balances:\n");
  for (const NodeId id : cluster->roster()) {
    std::printf("  %s: %lld\n", id.str().c_str(),
                static_cast<long long>(cluster->endorser(0).state().balance_of_node(id)));
  }

  // --- 5. the election table (the paper's Table II) -------------------------------
  const NodeId device = cluster->roster().front();
  std::printf("\nelection table of %s (geographic timer accumulates while fixed):\n%s\n",
              device.str().c_str(),
              cluster->endorser(0).election_table().render(device).c_str());
  return 0;
}
