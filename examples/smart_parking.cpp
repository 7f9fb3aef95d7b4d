// Smart parking lot — the paper's motivating scenario (§I: "a payment
// machine in a parking lot").
//
// Fixed payment machines anchor the blockchain: four form the genesis
// committee, four more are freshly installed and must *earn* endorsement by
// staying put (the 72-hour rule, scaled to simulation time). Cars are
// mobile clients paying parking fees; their transactions carry geographic
// trailers but the cars never qualify as endorsers — they move.
//
//   ./build/examples/smart_parking
#include <cstdio>
#include <memory>

#include "sim/deployment.hpp"

int main() {
  using namespace gpbft;

  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.nodes = 8;              // payment machines (fixed infrastructure)
  spec.committee.initial = 4;  // machines 1-4 were installed first
  spec.clients = 6;            // cars entering and paying
  spec.seed = 7;
  // Scale the era machinery into simulation range: eras every 12 s,
  // location reports every 3 s, promotion after 20 s of stationarity.
  spec.committee.era_period = Duration::seconds(12);
  spec.geo.report_period = Duration::seconds(3);
  spec.geo.window = Duration::seconds(12);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  // Cars pay every few seconds while the lot operates.
  spec.workload.period = Duration::seconds(4);
  spec.workload.txs_per_client = 8;
  spec.workload.fee = 25;  // parking fee units

  const auto cluster = std::make_unique<sim::GpbftCluster>(spec);
  cluster->start();

  std::printf("parking lot online: %zu payment machines, committee of %zu, %zu cars\n\n",
              cluster->endorser_count(), cluster->committee_size(), cluster->client_count());

  sim::LatencyRecorder recorder;
  cluster->schedule_workload(spec.workload, &recorder);

  // Let the lot run: payments commit, and the new machines earn their
  // endorsement through stationarity.
  for (int tick = 0; tick < 12; ++tick) {
    cluster->run_for(Duration::seconds(5));
    std::printf("t=%3.0fs  era %llu  committee %zu members  payments committed %llu\n",
                cluster->simulator().now().to_seconds(),
                static_cast<unsigned long long>(cluster->era()), cluster->committee_size(),
                static_cast<unsigned long long>(cluster->committed_count()));
  }
  cluster->run_until_committed(spec.workload.txs_per_client,
                               TimePoint{Duration::seconds(300).ns});

  const std::uint64_t payments_committed = cluster->committed_count();
  const double total_latency = recorder.mean();

  std::printf("\nall %llu payments committed; mean confirmation %.3f s\n",
              static_cast<unsigned long long>(payments_committed), total_latency);

  std::printf("\nfinal committee (production priority order):\n");
  for (const NodeId member : cluster->endorser(0).producer_order()) {
    std::printf("  %s%s\n", member.str().c_str(), member.value > 4 ? "  (earned endorsement)" : "");
  }

  std::printf("\nmachine revenue (70%% producer / 30%% endorsers of each fee):\n");
  for (const NodeId member : cluster->roster()) {
    std::printf("  %s: %lld\n", member.str().c_str(),
                static_cast<long long>(cluster->endorser(0).state().balance_of_node(member)));
  }
  return 0;
}
