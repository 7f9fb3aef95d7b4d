// Sybil attack demonstration (§IV-A1 of the paper).
//
// An adversary tries to pack the endorser committee three ways:
//   1. fabricated identities claiming positions where no device exists,
//   2. a real device lying about its location (claiming an occupied cell),
//   3. identities reporting from outside the deployment area.
// All are rejected by the geographic authentication, while an honest fixed
// device is promoted normally. The committee never admits an attacker, so
// the <1/3-faulty assumption of PBFT is preserved.
//
//   ./build/examples/sybil_attack
#include <algorithm>
#include <cstdio>
#include <memory>

#include "sim/deployment.hpp"

int main() {
  using namespace gpbft;

  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.nodes = 9;  // 4 core + 1 honest candidate + 4 attacker-controlled
  spec.committee.initial = 4;
  spec.clients = 0;
  spec.seed = 99;
  spec.committee.era_period = Duration::seconds(10);
  spec.geo.report_period = Duration::seconds(2);
  spec.geo.window = Duration::seconds(10);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(15);

  const auto cluster = std::make_unique<sim::GpbftCluster>(spec);

  // Attacker setup. Devices 6-9 are controlled by the adversary.
  //  - device 6: *fabricated* — claims machine 1's cell; physically absent
  //    (remove it from the area registry: no neighbour ever sees it).
  cluster->endorser(5).set_location(cluster->placement().position(0));
  cluster->area().remove(cluster->endorser(5).id());
  //  - device 7: real but *lying* — physically at its own spot, claims the
  //    area center next to machine 2 instead.
  cluster->endorser(6).set_location(cluster->placement().position(1));
  //  - devices 8 and 9: report truthfully but from *outside* the area.
  const geo::GeoPoint outside_a = cluster->placement().outside_position(0);
  const geo::GeoPoint outside_b = cluster->placement().outside_position(3);
  cluster->endorser(7).set_location(outside_a);
  cluster->area().place(cluster->endorser(7).id(), outside_a);
  cluster->endorser(8).set_location(outside_b);
  cluster->area().place(cluster->endorser(8).id(), outside_b);

  cluster->start();
  std::printf("genesis committee: 4 machines; honest candidate: node-5;\n");
  std::printf("attacker identities: node-6 (fabricated), node-7 (lying),\n");
  std::printf("                     node-8/node-9 (outside the area)\n\n");

  for (int tick = 0; tick < 8; ++tick) {
    cluster->run_for(Duration::seconds(5));
    std::printf("t=%3.0fs  era %llu  committee: ",
                cluster->simulator().now().to_seconds(),
                static_cast<unsigned long long>(cluster->era()));
    for (const NodeId member : cluster->roster()) std::printf("%s ", member.str().c_str());
    std::printf("\n");
  }

  const auto& filter = cluster->endorser(0).sybil_filter();
  std::printf("\nSybil filter verdicts at the committee:\n");
  for (std::uint64_t id = 5; id <= 9; ++id) {
    std::printf("  node-%llu: %s\n", static_cast<unsigned long long>(id),
                filter.is_flagged(NodeId{id}) ? "FLAGGED (excluded from election)"
                                              : "clean");
  }

  const auto& roster = cluster->roster();
  const bool honest_in =
      std::find(roster.begin(), roster.end(), NodeId{5}) != roster.end();
  bool any_attacker_in = false;
  for (std::uint64_t id = 6; id <= 9; ++id) {
    any_attacker_in |= std::find(roster.begin(), roster.end(), NodeId{id}) != roster.end();
  }
  std::printf("\nhonest candidate promoted: %s\n", honest_in ? "yes" : "no");
  std::printf("any attacker admitted:     %s\n", any_attacker_in ? "YES (!!)" : "no");
  return any_attacker_in ? 1 : 0;
}
