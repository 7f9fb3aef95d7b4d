// gpbft_cli — command-line front end for the simulation harness.
//
// Runs any of the four implemented consensus protocols against the paper's
// workloads without writing C++:
//
//   gpbft_cli latency --protocol gpbft --nodes 202
//   gpbft_cli cost    --protocol pbft  --nodes 130
//   gpbft_cli sweep   --protocol gpbft --nodes 4,40,130,202 --runs 3 --csv
//   gpbft_cli chaos   --seeds 20 --intensity all
//   gpbft_cli run     --scenario deployment.scenario --trace-out t.json
//   gpbft_cli report  --scenario deployment.scenario
//
// Commands:
//   latency  constant-frequency workload; per-transaction commit latency
//   cost     single transaction; bytes on the wire
//   sweep    latency over a comma-separated node grid
//   chaos    seeded fault-injection campaign (seeds x intensities x
//            protocols) with the online invariant monitor attached; prints
//            a deterministic pass/fail report and exits non-zero on any
//            violation
//   run      one deployment described by a declarative scenario file
//            (key=value; see sim/scenario.hpp). When the scenario's chaos
//            block injects faults, the run goes through the same monitored
//            driver as the `chaos` campaigns (sim::run_chaos_scenario) with
//            the fault plan seeded from the file's seed, and the invariant
//            report is printed (non-zero exit on violations).
//            --metrics-out writes the telemetry registry as JSONL;
//            --trace-out enables causal tracing and writes a Chrome/
//            Perfetto trace.json (both byte-identical for identical seeds).
//   report   like run, but also pretty-prints the telemetry rollup
//            (per-family counter totals, histogram means) after the run;
//            with --trace-out it additionally prints the commit
//            critical-path breakdown derived from the trace.
//   profile  like run, but with the wall-clock profiler enabled: prints
//            the probe hotspot table (exclusive wall time per site), the
//            commit critical-path phase breakdown and the slowest
//            requests. --profile-out writes the probe call tree as JSON;
//            --collapsed-out writes Brendan-Gregg collapsed stacks for
//            flamegraph.pl / speedscope. Profiling reads only the host's
//            steady clock: the run's chain tip, metrics and trace exports
//            are byte-identical to an unprofiled same-seed run.
//
// Common options (defaults = the calibrated values of DESIGN.md §4):
//   --protocol pbft|gpbft|dbft|pow   --nodes N[,N...]   --seed S
//   --txs K          transactions per client        (12)
//   --period SEC     proposal period per client     (5)
//   --rate S         node processing rate, msgs/s   (160)
//   --batch B        block batch size ceiling       (32)
//   --batch-close N  consensus batch close size     (1 = unbatched)
//   --batch-timeout SEC  partial-batch deadline     (0.25)
//   --max-committee C   G-PBFT committee cap        (40)
//   --era-period SEC    G-PBFT era switch period    (30)
//   --runs R         seeded repetitions (sweep)     (1)
//   --csv            machine-readable output
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "sim/chaos.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace gpbft;

struct CliOptions {
  std::string command;
  std::string protocol = "gpbft";
  std::vector<std::size_t> nodes = {40};
  std::size_t runs = 1;
  bool csv = false;
  sim::ScenarioSpec experiment = sim::default_options();
  std::string intensity = "all";  // chaos: light|medium|heavy|all
  std::size_t seeds = 10;         // chaos: seeds per (protocol, intensity)
  double restart_chance = 0.0;    // chaos: crash-restart-from-disk chance per step
  double disk_fault_chance = 0.0; // chaos: disk corruption chance per step
  bool attack_election = false;   // chaos: election-attack pack (G-PBFT)
  bool stock_election = false;    // chaos: keep the stock geo-timer election
  bool tamper = false;            // chaos: wire-tamper storm (Replace-mode adversary)
  bool reject_safe = false;       // chaos: REJECT-SAFE clean/Inject tip-identity pairs
  double tamper_chance = 0.0;     // chaos: tamper-window chance per step (0 = default)
  std::string scenario_path;      // run: scenario file
  std::string trace_out;          // run/report: Perfetto trace destination
  std::string metrics_out;        // run/report: metrics JSONL destination
  std::string profile_out;        // profile: probe call tree JSON
  std::string collapsed_out;      // profile: collapsed-stack flamegraph input
  std::size_t top = 15;           // profile/report: hotspot table rows
  bool protocol_set = false;      // chaos/run defaults when unset
  bool seed_set = false;          // run keeps the file's seed when unset
  bool txs_set = false;           // chaos keeps its own default when unset
};

void print_usage() {
  std::fprintf(stderr,
               "usage: gpbft_cli <latency|cost|sweep|chaos|run|report|profile> [options]\n"
               "  --protocol pbft|gpbft|dbft|pow   consensus to run (default gpbft)\n"
               "  --nodes N[,N...]                 network sizes (default 40)\n"
               "  --seed S --txs K --period SEC --rate S --batch B\n"
               "  --batch-close N --batch-timeout SEC\n"
               "  --max-committee C --era-period SEC --runs R --csv\n"
               "chaos options:\n"
               "  --protocol pbft|gpbft|dbft|pow|all  protocols to torture (default all)\n"
               "  --seeds N                        seeds per protocol x intensity (default 10)\n"
               "  --intensity light|medium|heavy|all  fault intensity (default all)\n"
               "  --nodes N                        committee size (default 7)\n"
               "  --restarts P                     crash-restart-from-disk chance per step\n"
               "  --disk-faults P                  disk corruption chance per step\n"
               "  --attack-election                election-attack pack (Sybil floods, targeted\n"
               "                                   crashes, mobility oscillation) with the\n"
               "                                   reputation-weighted election; G-PBFT only\n"
               "                                   unless --protocol says otherwise\n"
               "  --stock-election                 with --attack-election: keep the stock\n"
               "                                   geo-timer election (expected to fail)\n"
               "  --tamper                         wire-tamper storm: an in-flight adversary\n"
               "                                   flips bits, truncates/extends, retypes,\n"
               "                                   oversizes and replays messages (MITM mode)\n"
               "  --tamper-chance P                tamper-window chance per step\n"
               "  --reject-safe                    REJECT-SAFE pairs: each seed runs clean and\n"
               "                                   under a man-on-the-side Inject storm; with\n"
               "                                   MACs on the chain tips must be identical\n"
               "  --seed S --txs K\n"
               "run/report/profile options:\n"
               "  --scenario FILE                  declarative scenario (key=value)\n"
               "  --protocol P --seed S            override the file's values\n"
               "  --trace-out FILE                 enable tracing, write Perfetto trace.json\n"
               "  --metrics-out FILE               write the metrics registry as JSONL\n"
               "profile options:\n"
               "  --profile-out FILE               write the probe call tree as JSON\n"
               "  --collapsed-out FILE             write collapsed stacks (flamegraph input)\n"
               "  --top N                          hotspot/slowest-request table rows (15)\n");
}

// Strict numeric flag values (the scenario format's parsers): junk such as
// "12abc" fails the whole command line instead of running a truncated value.
template <typename T>
bool read_uint(const std::string& value, T& out) {
  const auto parsed = sim::parse_u64(value);
  if (!parsed) return false;
  out = static_cast<T>(parsed.value());
  return true;
}

bool read_double(const std::string& value, double& out) {
  const auto parsed = sim::parse_double(value);
  if (!parsed) return false;
  out = parsed.value();
  return true;
}

bool read_seconds(const std::string& value, Duration& out) {
  double seconds = 0.0;
  if (!read_double(value, seconds)) return false;
  out = Duration::from_seconds(seconds);
  return true;
}

/// A chance per step: a number in [0, 1].
bool read_chance(const std::string& value, double& out) {
  return read_double(value, out) && out >= 0.0 && out <= 1.0;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  if (argc < 2) return false;
  options.command = argv[1];
  if (options.command != "latency" && options.command != "cost" && options.command != "sweep" &&
      options.command != "chaos" && options.command != "run" && options.command != "report" &&
      options.command != "profile") {
    return false;
  }

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--csv") {
      options.csv = true;
      continue;
    }
    if (flag == "--attack-election") {
      options.attack_election = true;
      continue;
    }
    if (flag == "--stock-election") {
      options.stock_election = true;
      continue;
    }
    if (flag == "--tamper") {
      options.tamper = true;
      continue;
    }
    if (flag == "--reject-safe") {
      options.reject_safe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--protocol") {
      options.protocol = value;
      options.protocol_set = true;
    } else if (flag == "--nodes") {
      const auto parsed = sim::parse_id_list(value);
      if (!parsed || parsed.value().empty()) return false;
      options.nodes.assign(parsed.value().begin(), parsed.value().end());
    } else if (flag == "--seed") {
      if (!read_uint(value, options.experiment.seed)) return false;
      options.seed_set = true;
    } else if (flag == "--txs") {
      if (!read_uint(value, options.experiment.workload.txs_per_client)) return false;
      options.txs_set = true;
    } else if (flag == "--period") {
      if (!read_seconds(value, options.experiment.workload.period)) return false;
    } else if (flag == "--rate") {
      if (!read_double(value, options.experiment.net.processing_rate_msgs_per_sec)) return false;
    } else if (flag == "--batch") {
      if (!read_uint(value, options.experiment.engine.batch_size)) return false;
    } else if (flag == "--batch-close") {
      if (!read_uint(value, options.experiment.batch.size)) return false;
    } else if (flag == "--batch-timeout") {
      if (!read_seconds(value, options.experiment.batch.timeout)) return false;
    } else if (flag == "--max-committee") {
      if (!read_uint(value, options.experiment.committee.max)) return false;
    } else if (flag == "--era-period") {
      // The promotion window follows the era cadence (Algorithm 1 evaluates
      // one era's worth of reports).
      if (!read_seconds(value, options.experiment.committee.era_period)) return false;
      options.experiment.geo.window = options.experiment.committee.era_period;
    } else if (flag == "--runs") {
      if (!read_uint(value, options.runs)) return false;
      if (options.runs == 0) options.runs = 1;
    } else if (flag == "--seeds") {
      if (!read_uint(value, options.seeds)) return false;
      if (options.seeds == 0) options.seeds = 1;
    } else if (flag == "--intensity") {
      options.intensity = value;
    } else if (flag == "--restarts") {
      if (!read_chance(value, options.restart_chance)) return false;
    } else if (flag == "--disk-faults") {
      if (!read_chance(value, options.disk_fault_chance)) return false;
    } else if (flag == "--tamper-chance") {
      if (!read_chance(value, options.tamper_chance)) return false;
    } else if (flag == "--scenario") {
      options.scenario_path = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--metrics-out") {
      options.metrics_out = value;
    } else if (flag == "--profile-out") {
      options.profile_out = value;
    } else if (flag == "--collapsed-out") {
      options.collapsed_out = value;
    } else if (flag == "--top") {
      if (!read_uint(value, options.top)) return false;
      if (options.top == 0) options.top = 15;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (options.command == "chaos") {
    if (!options.protocol_set) options.protocol = "all";
    if (options.protocol != "all" && !sim::protocol_from_name(options.protocol).ok()) {
      return false;
    }
    if (options.intensity != "none" && options.intensity != "light" &&
        options.intensity != "medium" && options.intensity != "heavy" &&
        options.intensity != "all") {
      return false;
    }
    return true;
  }
  if (options.command == "run" || options.command == "report" || options.command == "profile") {
    if (options.scenario_path.empty()) return false;
    if (options.protocol_set && !sim::protocol_from_name(options.protocol).ok()) return false;
    return true;
  }
  if (!sim::protocol_from_name(options.protocol).ok()) return false;
  return true;
}

int run_chaos(const CliOptions& options) {
  sim::ChaosCampaignOptions campaign;
  campaign.seeds = options.seeds;
  campaign.base_seed = options.experiment.seed;
  campaign.committee = options.nodes.empty() ? 7 : options.nodes.front();
  campaign.chaos.restart_chance = options.restart_chance;
  campaign.chaos.disk_fault_chance = options.disk_fault_chance;
  if (options.txs_set) campaign.txs_per_client = options.experiment.workload.txs_per_client;
  if (options.intensity != "all") campaign.intensities = {options.intensity};
  if (options.protocol != "all") {
    campaign.protocols = {sim::protocol_from_name(options.protocol).value()};
  }
  if (options.attack_election) {
    campaign.chaos.sybil_burst_chance = 0.25;
    campaign.chaos.targeted_crash_chance = 0.2;
    campaign.chaos.oscillate_chance = 0.25;
    campaign.reputation = !options.stock_election;
    // The attacks target the endorser election; torture G-PBFT unless the
    // user named a protocol explicitly.
    if (!options.protocol_set) campaign.protocols = {sim::ProtocolKind::Gpbft};
  }
  if (options.reject_safe) {
    // Clean/Inject pairs at each seed; intensities are ignored ("none" is
    // used so node faults stay out of the tip-identity comparison).
    campaign.chaos.tamper_chance = options.tamper_chance;
    const sim::ChaosCampaignResult result = sim::run_tamper_campaign(campaign);
    std::fputs(result.summary().c_str(), stdout);
    return result.failed_runs() == 0 ? 0 : 1;
  }
  if (options.tamper || options.tamper_chance > 0.0) {
    campaign.chaos.tamper_chance = options.tamper_chance > 0.0 ? options.tamper_chance : 0.5;
  }

  const sim::ChaosCampaignResult result = sim::run_chaos_campaign(campaign);
  std::fputs(result.summary().c_str(), stdout);
  return result.failed_runs() == 0 ? 0 : 1;
}

sim::ExperimentResult run_latency(const CliOptions& options, std::size_t nodes) {
  return sim::run_latency(sim::protocol_from_name(options.protocol).value(), nodes,
                          options.experiment);
}

sim::ExperimentResult run_cost(const CliOptions& options, std::size_t nodes) {
  if (options.protocol == "pbft") return sim::run_pbft_single_tx(nodes, options.experiment);
  if (options.protocol == "gpbft") return sim::run_gpbft_single_tx(nodes, options.experiment);
  std::fprintf(stderr, "cost: only pbft/gpbft supported\n");
  std::exit(2);
}

void print_result(const std::string& protocol, bool csv, const sim::ExperimentResult& r) {
  if (csv) {
    std::printf("%s,%zu,%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.3f,%.3f,%llu,%llu,%llu\n",
                protocol.c_str(), r.nodes, r.committee, r.latency.min, r.latency.q1,
                r.latency.median, r.latency.q3, r.latency.max, r.latency.mean, r.consensus_kb,
                r.total_kb, static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.expected),
                static_cast<unsigned long long>(r.era_switches));
    return;
  }
  std::printf("%-6s n=%-4zu committee=%-4zu | latency %s | consensus %.2f KB, total %.2f KB | "
              "%llu/%llu committed",
              protocol.c_str(), r.nodes, r.committee, r.latency.str().c_str(),
              r.consensus_kb, r.total_kb, static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(r.expected));
  if (r.era_switches > 0) {
    std::printf(" | %llu era switches", static_cast<unsigned long long>(r.era_switches));
  }
  if (r.hashes_computed > 0) std::printf(" | %.2e hashes", r.hashes_computed);
  std::printf("\n");
}

void print_csv_header() {
  std::printf(
      "protocol,nodes,committee,lat_min,lat_q1,lat_med,lat_q3,lat_max,lat_mean,"
      "consensus_kb,total_kb,committed,expected,era_switches\n");
}

/// `run`: one deployment straight from a scenario file.
int run_scenario(const CliOptions& options) {
  std::ifstream file(options.scenario_path);
  if (!file) {
    std::fprintf(stderr, "run: cannot open %s\n", options.scenario_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto parsed = sim::parse_scenario(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "run: %s: %s\n", options.scenario_path.c_str(),
                 parsed.error().c_str());
    return 2;
  }
  sim::ScenarioSpec spec = parsed.value();
  if (options.protocol_set) spec.protocol = sim::protocol_from_name(options.protocol).value();
  if (options.seed_set) spec.seed = options.experiment.seed;

  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  const bool profiling = options.command == "profile";
  if (profiling) {
    // The profiler reads the host's steady clock only; it cannot perturb
    // the run. The critical-path analyzer needs the causal trace.
    obs::Profiler::instance().set_enabled(true);
    deployment->telemetry().set_trace_enabled(true);
  }
  if (!options.trace_out.empty()) deployment->telemetry().set_trace_enabled(true);
  sim::InvariantMonitor monitor(deployment->simulator());
  sim::LatencyRecorder recorder;
  const bool chaos = spec.chaos.enabled();
  if (chaos) {
    // The spec seed draws the fault plan, so a scenario file replays exactly.
    sim::run_chaos_scenario(*deployment, monitor, spec.seed, &recorder);
  } else {
    deployment->start();
    deployment->schedule_workload(spec.workload, &recorder);
    deployment->run_until_committed(spec.workload.txs_per_client, TimePoint{spec.deadline.ns});
    deployment->stop();
  }
  deployment->finalize_telemetry();
  const sim::ExperimentResult result = sim::finish_result(*deployment, recorder);

  if (options.csv) print_csv_header();
  print_result(sim::protocol_name(spec.protocol), options.csv, result);
  if (options.command == "report") {
    std::fputs(deployment->telemetry().metrics().summary().c_str(), stdout);
    if (deployment->telemetry().trace_enabled()) {
      const auto path = obs::CriticalPathReport::analyze(deployment->telemetry().trace());
      std::printf("\n%s", path.phase_table().c_str());
    }
  }
  if (profiling) {
    obs::Profiler& prof = obs::Profiler::instance();
    prof.set_enabled(false);
    std::printf("\ntip %s\n", deployment->tip_hex().c_str());
    std::printf("\n--- wall-clock hotspots (exclusive time) ---\n%s",
                prof.hotspot_table(options.top).c_str());
    const auto path = obs::CriticalPathReport::analyze(deployment->telemetry().trace());
    std::printf("\n--- commit critical path ---\n%s", path.phase_table().c_str());
    std::printf("\n--- slowest requests ---\n%s", path.slowest_table(options.top).c_str());
    if (!options.profile_out.empty() && !prof.write_json(options.profile_out)) {
      std::fprintf(stderr, "cannot write profile to %s\n", options.profile_out.c_str());
      return 2;
    }
    if (!options.collapsed_out.empty() && !prof.write_collapsed(options.collapsed_out)) {
      std::fprintf(stderr, "cannot write collapsed stacks to %s\n",
                   options.collapsed_out.c_str());
      return 2;
    }
  }
  if (!options.trace_out.empty() && !deployment->telemetry().write_trace(options.trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", options.trace_out.c_str());
    return 2;
  }
  if (!options.metrics_out.empty() &&
      !deployment->telemetry().write_metrics_jsonl(options.metrics_out)) {
    std::fprintf(stderr, "cannot write metrics to %s\n", options.metrics_out.c_str());
    return 2;
  }

  if (chaos) {
    std::fputs(monitor.report().c_str(), stdout);
    return monitor.clean() ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) {
    print_usage();
    return 2;
  }

  if (options.command == "chaos") return run_chaos(options);
  if (options.command == "run" || options.command == "report" || options.command == "profile") {
    return run_scenario(options);
  }

  if (options.csv) print_csv_header();

  if (options.command == "latency") {
    for (const std::size_t nodes : options.nodes) {
      print_result(options.protocol, options.csv, run_latency(options, nodes));
    }
    return 0;
  }
  if (options.command == "cost") {
    for (const std::size_t nodes : options.nodes) {
      print_result(options.protocol, options.csv, run_cost(options, nodes));
    }
    return 0;
  }
  // sweep: repeated seeded runs per node count, merged distributions.
  for (const std::size_t nodes : options.nodes) {
    const sim::ExperimentResult merged = sim::repeat_runs(
        [&options](std::size_t n, const sim::ScenarioSpec& experiment) {
          CliOptions point = options;
          point.experiment = experiment;
          return run_latency(point, n);
        },
        nodes, options.experiment, options.runs);
    print_result(options.protocol, options.csv, merged);
  }
  return 0;
}
