// Table IV of the paper: comparison between consensus mechanisms.
//
// Four of the rows — PBFT, dBFT, PoW, G-PBFT — are *measured* on the
// implementations in this repository (the paper quotes literature values):
//   speed            — committed transactions per simulated second at the
//                      reference scale (40 nodes)
//   scalability      — mean-latency growth factor when the network grows
//                      from 40 to 202 nodes (flat = High)
//   network overhead — consensus KB for one transaction workload unit
//   computing ovhd   — PoW: hashes per confirmed transaction; BFT family:
//                      MAC operations (2 per message)
// The remaining mechanisms (PoS, DPoS, PoA, PoSpace, PoI, PoB) keep the
// paper's literature assessment — they are not implemented here.
#include <algorithm>

#include "bench_util.hpp"

int main() {
  using namespace gpbft;
  sim::ScenarioSpec options = sim::default_options();
  options.workload.txs_per_client = 6;

  // --- measured rows ---------------------------------------------------------
  std::printf("Table IV: comparison between consensus mechanisms\n\n");
  std::printf("measured on this repository (40 -> 202 nodes, constant-frequency workload):\n");
  std::printf("%-8s %10s %14s %14s %16s\n", "protocol", "tx/s@40", "lat x(40->202)",
              "KB/tx @202", "compute/tx");

  const auto tps = [](const sim::ExperimentResult& r) {
    return static_cast<double>(r.committed) / std::max(r.sim_seconds, 1e-9);
  };

  // PBFT
  const sim::ExperimentResult pbft40 = sim::run_pbft_latency(40, options);
  const sim::ExperimentResult pbft202 = sim::run_pbft_latency(202, options);
  const sim::ExperimentResult pbft_cost = sim::run_pbft_single_tx(202, options);
  bench::append_json_record("table4.pbft.40", pbft40, options.seed);
  bench::append_json_record("table4.pbft.202", pbft202, options.seed);
  bench::append_json_record("table4.pbft.cost", pbft_cost, options.seed);
  std::printf("%-8s %10.1f %13.1fx %14.1f %16s\n", "PBFT", tps(pbft40),
              pbft202.latency.mean / std::max(pbft40.latency.mean, 1e-9),
              pbft_cost.consensus_kb, "~2 MAC/msg");

  // dBFT
  sim::ScenarioSpec dbft_options = options;
  dbft_options.workload.txs_per_client = 3;  // 15 s pacing: keep runs bounded
  const sim::ExperimentResult dbft40 = sim::run_dbft_latency(40, dbft_options);
  const sim::ExperimentResult dbft202 = sim::run_dbft_latency(202, dbft_options);
  bench::append_json_record("table4.dbft.40", dbft40, dbft_options.seed);
  bench::append_json_record("table4.dbft.202", dbft202, dbft_options.seed);
  std::printf("%-8s %10.1f %13.1fx %14.1f %16s\n", "dBFT", tps(dbft40),
              dbft202.latency.mean / std::max(dbft40.latency.mean, 1e-9),
              dbft202.consensus_kb / std::max<double>(1.0, static_cast<double>(dbft202.committed)),
              "~2 MAC/msg");

  // PoW
  sim::ScenarioSpec pow_options = options;
  pow_options.workload.txs_per_client = 2;
  pow_options.deadline = Duration::seconds(4000);
  const sim::ExperimentResult pow40 = sim::run_pow_latency(40, pow_options);
  const sim::ExperimentResult pow202 = sim::run_pow_latency(202, pow_options);
  bench::append_json_record("table4.pow.40", pow40, pow_options.seed);
  bench::append_json_record("table4.pow.202", pow202, pow_options.seed);
  std::printf("%-8s %10.1f %13.1fx %14.1f %11.2e hash\n", "PoW", tps(pow40),
              pow202.latency.mean / std::max(pow40.latency.mean, 1e-9),
              pow202.total_kb / std::max<double>(1.0, static_cast<double>(pow202.committed)),
              pow202.hashes_computed / std::max<double>(1.0, static_cast<double>(pow202.committed)));

  // G-PBFT
  const sim::ExperimentResult gpbft40 = sim::run_gpbft_latency(40, options);
  const sim::ExperimentResult gpbft202 = sim::run_gpbft_latency(202, options);
  const sim::ExperimentResult gpbft_cost = sim::run_gpbft_single_tx(202, options);
  bench::append_json_record("table4.gpbft.40", gpbft40, options.seed);
  bench::append_json_record("table4.gpbft.202", gpbft202, options.seed);
  bench::append_json_record("table4.gpbft.cost", gpbft_cost, options.seed);
  std::printf("%-8s %10.1f %13.1fx %14.1f %16s\n", "G-PBFT", tps(gpbft40),
              gpbft202.latency.mean / std::max(gpbft40.latency.mean, 1e-9),
              gpbft_cost.consensus_kb, "~2 MAC/msg");

  // --- the paper's qualitative matrix ------------------------------------------
  struct Row {
    const char* name;
    const char* type;
    const char* speed;
    const char* scalability;
    const char* net_overhead;
    const char* compute_overhead;
    const char* adversary;
    const char* example;
  };
  const Row rows[] = {
      {"BFT", "Permissioned", "High", "Low", "High", "Low", "<33.3% Replicas", "Tendermint"},
      {"PBFT", "Permissioned", "High", "Low", "High", "Low", "<33.3% Faulty Replicas",
       "this repo (measured)"},
      {"dBFT", "Permissioned", "Low", "High", "High", "Low", "<33.3% Faulty Replicas",
       "this repo (measured)"},
      {"PoW", "Permissionless", "Low", "Low", "High", "High", "<25% Computing Power",
       "this repo (measured)"},
      {"PoS", "Permissionless", "Low", "Low", "High", "Low", "<50% Stake", "Peercoin"},
      {"DPoS", "Permissionless", "High", "Low", "Low", "Low", "<50% Validators", "BitShares"},
      {"PoA", "Permissionless", "Low", "High", "Low", "Low", "<50% of Online Stake", "Decred"},
      {"PoSpace", "Permissionless", "Low", "Low", "High", "Low", "<50% Space", "SpaceMint"},
      {"PoI", "Permissionless", "Low", "Low", "High", "Low", "<50% Stake", "NEM"},
      {"PoB", "Permissionless", "Low", "Low", "High", "Low", "<50% Coins", "XCP"},
      {"G-PBFT", "Permissionless", "High", "High", "Low", "Low", "<33.3% Endorsers",
       "this repo (measured)"},
  };
  std::printf("\n%-8s %-14s %-6s %-12s %-9s %-9s %-24s %s\n", "Consensus", "Type", "Speed",
              "Scalability", "NetOvhd", "CompOvhd", "Adversary Tolerance", "Example");
  for (const Row& row : rows) {
    std::printf("%-8s %-14s %-6s %-12s %-9s %-9s %-24s %s\n", row.name, row.type, row.speed,
                row.scalability, row.net_overhead, row.compute_overhead, row.adversary,
                row.example);
  }
  return 0;
}
