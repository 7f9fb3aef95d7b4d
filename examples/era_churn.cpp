// Era churn: device arrival and departure handled by era switches (§III-E).
//
// A 10-device deployment where the population changes while transactions
// flow: new fixed devices join and qualify; a committee member is
// physically relocated (demoted next era); another crashes mid-run (view
// change now, penalty and expulsion at the next switch). Throughout, the
// system keeps committing — transactions submitted during a switch period
// are queued and land right after it.
//
//   ./build/examples/era_churn
#include <algorithm>
#include <cstdio>
#include <memory>

#include "sim/deployment.hpp"

namespace {

void print_status(gpbft::sim::GpbftCluster& cluster, const char* note) {
  std::printf("t=%5.1fs  era %llu  committee(%zu): ",
              cluster.simulator().now().to_seconds(),
              static_cast<unsigned long long>(cluster.era()), cluster.committee_size());
  for (const gpbft::NodeId member : cluster.roster()) {
    std::printf("%llu ", static_cast<unsigned long long>(member.value));
  }
  std::printf(" %s\n", note);
}

}  // namespace

int main() {
  using namespace gpbft;

  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.nodes = 10;
  spec.clients = 4;
  spec.seed = 31;
  spec.committee.initial = 5;
  spec.committee.min = 4;
  spec.committee.max = 8;
  spec.committee.era_period = Duration::seconds(10);
  spec.geo.report_period = Duration::seconds(2);
  spec.geo.window = Duration::seconds(10);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(15);
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  spec.workload.period = Duration::seconds(3);
  spec.workload.txs_per_client = 25;

  const auto cluster = std::make_unique<sim::GpbftCluster>(spec);
  cluster->start();

  // Constant background load from the IoT clients.
  sim::LatencyRecorder recorder;
  cluster->schedule_workload(spec.workload, &recorder);

  print_status(*cluster, "(genesis: devices 1-5; 6-10 are candidates)");

  cluster->run_for(Duration::seconds(22));
  print_status(*cluster, "(candidates qualified after 15 s stationary -> capped at 8)");

  // Departure 1: device 2 is physically relocated. It is demoted at the
  // next era switch (its reports no longer match the enrolled location),
  // and — staying put at the new spot — re-earns endorsement later.
  const geo::GeoPoint moved = cluster->placement().position(40);
  cluster->endorser(1).set_location(moved);
  cluster->area().place(cluster->endorser(1).id(), moved);
  std::printf("         >> device 2 relocated (honest move)\n");

  bool device2_demoted = false;
  for (int chunk = 0; chunk < 11; ++chunk) {
    cluster->run_for(Duration::seconds(2));
    const auto& members = cluster->roster();
    const bool in_committee =
        std::find(members.begin(), members.end(), cluster->endorser(1).id()) != members.end();
    if (!in_committee && !device2_demoted) {
      device2_demoted = true;
      print_status(*cluster, "(device 2 demoted: reports left its enrolled cell)");
    } else if (in_committee && device2_demoted) {
      print_status(*cluster, "(device 2 re-qualified at its new fixed location)");
      break;
    }
  }

  // Departure 2: device 3 crashes outright.
  cluster->network().crash(cluster->endorser(2).id());
  std::printf("         >> device 3 crashed\n");

  cluster->run_for(Duration::seconds(30));
  print_status(*cluster, "(device 3 expelled after missing its blocks)");

  cluster->run_until_committed(spec.workload.txs_per_client,
                               TimePoint{Duration::seconds(300).ns});

  const std::uint64_t committed = cluster->committed_count();
  std::printf("\nall workload transactions committed: %llu/%llu (mean latency %.3f s, max %.3f s)\n",
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(spec.workload.txs_per_client *
                                              cluster->client_count()),
              recorder.mean(), recorder.percentile(100));
  std::printf("era switches completed: %llu; last switch period: %.3f s\n",
              static_cast<unsigned long long>(cluster->total_era_switches()),
              cluster->endorser(0).last_switch_duration().to_seconds());

  const auto& roster = cluster->roster();
  const bool crashed_out =
      std::find(roster.begin(), roster.end(), cluster->endorser(2).id()) == roster.end();
  std::printf("relocated device was demoted: %s; crashed device expelled: %s\n",
              device2_demoted ? "yes" : "no", crashed_out ? "yes" : "no");
  return (device2_demoted && crashed_out) ? 0 : 1;
}
