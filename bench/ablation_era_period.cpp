// Ablation A1 (DESIGN.md): the era period T.
//
// §III-E argues T must be neither too small (frequent switch periods pause
// the system) nor too large (slow reaction to membership change). Both
// effects are measured here on a 12-node deployment (committee capped at 8):
//   * mean transaction latency under constant load (switch pauses tax it),
//   * promotion delay: how long after a candidate becomes eligible it
//     actually enters the committee (bounded below by T).
#include <memory>

#include "bench_util.hpp"
#include "sim/deployment.hpp"

namespace {

using namespace gpbft;

struct EraPeriodResult {
  double mean_latency{0};
  double promotion_delay{0};
  std::uint64_t switches{0};
};

EraPeriodResult run_with_period(Duration era_period) {
  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.nodes = 12;
  spec.clients = 12;
  spec.seed = 11;
  spec.committee.initial = 4;
  spec.committee.min = 4;
  spec.committee.max = 8;
  spec.committee.era_period = era_period;
  spec.geo.report_period = Duration::seconds(2);
  spec.geo.window = std::max(era_period, Duration::seconds(6));
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  spec.engine.request_timeout = Duration::seconds(4000);
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 30;

  const auto cluster = std::make_unique<sim::GpbftCluster>(spec);
  cluster->start();

  sim::LatencyRecorder recorder;
  cluster->schedule_workload(spec.workload, &recorder);

  // Candidates become eligible at promotion_threshold (20 s); record when
  // the committee first grows beyond the initial 4.
  double grew_at = -1.0;
  const TimePoint eligible_at{Duration::seconds(20).ns};
  while (cluster->simulator().now().to_seconds() < 90.0) {
    cluster->run_for(Duration::millis(200));
    if (grew_at < 0 && cluster->committee_size() > 4) {
      grew_at = cluster->simulator().now().to_seconds();
    }
  }
  cluster->run_until_committed(spec.workload.txs_per_client,
                               TimePoint{Duration::seconds(600).ns});
  cluster->stop();

  EraPeriodResult result;
  result.mean_latency = recorder.mean();
  result.promotion_delay = grew_at < 0 ? -1.0 : grew_at - eligible_at.to_seconds();
  result.switches = cluster->total_era_switches();
  return result;
}

}  // namespace

int main() {
  std::printf("Ablation A1: era period T (12 nodes, committee 4..8, constant load)\n");
  std::printf("%8s %14s %18s %9s\n", "T(s)", "mean lat(s)", "promo delay(s)", "switches");
  for (const std::int64_t period : {3, 6, 12, 24, 48}) {
    const EraPeriodResult result = run_with_period(Duration::seconds(period));
    std::printf("%8lld %14.3f %18.1f %9llu\n", static_cast<long long>(period),
                result.mean_latency, result.promotion_delay,
                static_cast<unsigned long long>(result.switches));
    std::fflush(stdout);
  }
  std::printf("(small T: more switch pauses; large T: slower committee adaptation)\n");
  return 0;
}
