// Ablation A6 (DESIGN.md): heterogeneous device power.
//
// The paper's endorser-selection argument (§I, §III-B): fixed infrastructure
// devices have more computational power than mobile phones and sensors, so
// putting *them* in the committee buys performance. Here the same 40-node
// deployment (committee of 10) runs three ways:
//   strong-committee — committee members process 320 msg/s, the rest 40
//   uniform          — everyone at the calibrated 160 msg/s
//   weak-committee   — committee members 40 msg/s, the rest 320
// Consensus latency tracks the *committee's* power, not the fleet average —
// exactly why G-PBFT elects the powerful fixed devices.
#include <cstdio>
#include <memory>

#include "sim/deployment.hpp"

namespace {

using namespace gpbft;

double run_case(double committee_rate, double device_rate) {
  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.nodes = 40;
  spec.clients = 40;
  spec.seed = 23;
  spec.committee.initial = 10;
  spec.committee.era_period = Duration::seconds(1000);  // isolate the effect
  spec.engine.request_timeout = Duration::seconds(4000);
  spec.workload.period = Duration::seconds(5);
  spec.workload.txs_per_client = 8;

  const auto cluster = std::make_unique<sim::GpbftCluster>(spec);
  for (std::size_t i = 0; i < cluster->endorser_count(); ++i) {
    const bool in_committee = i < spec.committee.initial;
    cluster->network().set_processing_rate(cluster->endorser(i).id(),
                                           in_committee ? committee_rate : device_rate);
  }
  cluster->start();

  sim::LatencyRecorder recorder;
  cluster->schedule_workload(spec.workload, &recorder);
  cluster->run_until_committed(spec.workload.txs_per_client,
                               TimePoint{Duration::seconds(2000).ns});
  cluster->stop();
  return recorder.mean();
}

}  // namespace

int main() {
  std::printf("Ablation A6: device heterogeneity (40 nodes, committee 10)\n");
  std::printf("%-18s %16s %14s %14s\n", "case", "committee msg/s", "others msg/s",
              "mean lat(s)");
  struct Case {
    const char* name;
    double committee;
    double others;
  };
  for (const Case c : {Case{"strong-committee", 320, 40}, Case{"uniform", 160, 160},
                       Case{"weak-committee", 40, 320}}) {
    const double latency = run_case(c.committee, c.others);
    std::printf("%-18s %16.0f %14.0f %14.3f\n", c.name, c.committee, c.others, latency);
    std::fflush(stdout);
  }
  std::printf("(latency follows the committee's power: electing the strong fixed devices\n"
              " as endorsers — G-PBFT's selection rule — is what buys the speedup)\n");
  return 0;
}
