#include "sim/scenario.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>

namespace gpbft::sim {

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::Pbft: return "pbft";
    case ProtocolKind::Gpbft: return "gpbft";
    case ProtocolKind::Dbft: return "dbft";
    case ProtocolKind::Pow: return "pow";
  }
  return "unknown";
}

Result<ProtocolKind> protocol_from_name(const std::string& name) {
  if (name == "pbft") return ProtocolKind::Pbft;
  if (name == "gpbft") return ProtocolKind::Gpbft;
  if (name == "dbft") return ProtocolKind::Dbft;
  if (name == "pow") return ProtocolKind::Pow;
  return make_error("unknown protocol: \"" + name + "\" (expected pbft|gpbft|dbft|pow)");
}

const char* workload_mode_name(WorkloadMode mode) {
  switch (mode) {
    case WorkloadMode::PerClient: return "per_client";
    case WorkloadMode::Plane: return "plane";
  }
  return "unknown";
}

Result<WorkloadMode> workload_mode_from_name(const std::string& name) {
  if (name == "per_client") return WorkloadMode::PerClient;
  if (name == "plane") return WorkloadMode::Plane;
  return make_error("unknown workload mode: \"" + name + "\" (expected per_client|plane)");
}

const char* arrival_name(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::Constant: return "constant";
    case ArrivalProcess::Poisson: return "poisson";
    case ArrivalProcess::Burst: return "burst";
    case ArrivalProcess::Diurnal: return "diurnal";
  }
  return "unknown";
}

Result<ArrivalProcess> arrival_from_name(const std::string& name) {
  if (name == "constant") return ArrivalProcess::Constant;
  if (name == "poisson") return ArrivalProcess::Poisson;
  if (name == "burst") return ArrivalProcess::Burst;
  if (name == "diurnal") return ArrivalProcess::Diurnal;
  return make_error("unknown arrival process: \"" + name +
                    "\" (expected constant|poisson|burst|diurnal)");
}

// --- strict value parsers ------------------------------------------------------------
//
// Every parser consumes the whole value or fails: "3abc", "1e3garbage" and
// silent overflow are rejected (the historical strtol-accepts-junk trap).

Result<std::uint64_t> parse_u64(const std::string& value) {
  if (value.empty() || value[0] == '-' || value[0] == '+') {
    return make_error("expected unsigned integer, got \"" + value + "\"");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size() || errno == ERANGE) {
    return make_error("expected unsigned integer, got \"" + value + "\"");
  }
  return static_cast<std::uint64_t>(parsed);
}

Result<double> parse_double(const std::string& value) {
  if (value.empty()) return make_error("expected number, got \"\"");
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || errno == ERANGE) {
    return make_error("expected number, got \"" + value + "\"");
  }
  return parsed;
}

Result<std::vector<std::uint64_t>> parse_id_list(const std::string& value) {
  std::vector<std::uint64_t> ids;
  if (value.empty()) return ids;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = value.find(',', start);
    auto parsed = parse_u64(value.substr(start, comma - start));  // npos: the rest
    if (!parsed || parsed.value() == 0) {
      return make_error("expected comma-separated positive integers, got \"" + value + "\"");
    }
    ids.push_back(parsed.value());
    if (comma == std::string::npos) return ids;
    start = comma + 1;
  }
}

namespace {

Result<std::int64_t> parse_i64(const std::string& value) {
  if (value.empty()) return make_error("expected integer, got \"\"");
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size() || errno == ERANGE) {
    return make_error("expected integer, got \"" + value + "\"");
  }
  return static_cast<std::int64_t>(parsed);
}

Result<bool> parse_bool(const std::string& value) {
  if (value == "true") return true;
  if (value == "false") return false;
  return make_error("expected true|false, got \"" + value + "\"");
}

std::string double_str(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// --- field table --------------------------------------------------------------------
//
// One table drives both directions: print_scenario walks it in order,
// parse_scenario looks lines up in it. Adding a spec field means adding one
// row here; round-trip identity then holds by construction.

struct Field {
  const char* key;
  std::function<std::string(const ScenarioSpec&)> print;
  std::function<Result<void>(ScenarioSpec&, const std::string&)> parse;
};

Field u64_field(const char* key, std::uint64_t ScenarioSpec::* member) {
  return {key, [member](const ScenarioSpec& s) { return std::to_string(s.*member); },
          [member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_u64(v);
            if (!parsed) return make_error(parsed.error());
            s.*member = parsed.value();
            return {};
          }};
}

template <typename Sub>
Field size_field(const char* key, Sub ScenarioSpec::* sub, std::size_t Sub::* member) {
  return {key,
          [sub, member](const ScenarioSpec& s) { return std::to_string(s.*sub.*member); },
          [sub, member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_u64(v);
            if (!parsed) return make_error(parsed.error());
            s.*sub.*member = static_cast<std::size_t>(parsed.value());
            return {};
          }};
}

template <typename Sub>
Field u64_sub_field(const char* key, Sub ScenarioSpec::* sub, std::uint64_t Sub::* member) {
  return {key,
          [sub, member](const ScenarioSpec& s) { return std::to_string(s.*sub.*member); },
          [sub, member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_u64(v);
            if (!parsed) return make_error(parsed.error());
            s.*sub.*member = parsed.value();
            return {};
          }};
}

template <typename Sub>
Field duration_field(const char* key, Sub ScenarioSpec::* sub, Duration Sub::* member) {
  return {key,
          [sub, member](const ScenarioSpec& s) { return std::to_string((s.*sub.*member).ns); },
          [sub, member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_i64(v);
            if (!parsed) return make_error(parsed.error());
            if (parsed.value() < 0) return make_error("negative duration: \"" + v + "\"");
            (s.*sub.*member).ns = parsed.value();
            return {};
          }};
}

template <typename Sub>
Field i64_sub_field(const char* key, Sub ScenarioSpec::* sub, std::int64_t Sub::* member) {
  return {key,
          [sub, member](const ScenarioSpec& s) { return std::to_string(s.*sub.*member); },
          [sub, member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_i64(v);
            if (!parsed) return make_error(parsed.error());
            s.*sub.*member = parsed.value();
            return {};
          }};
}

template <typename Sub>
Field double_field(const char* key, Sub ScenarioSpec::* sub, double Sub::* member) {
  return {key, [sub, member](const ScenarioSpec& s) { return double_str(s.*sub.*member); },
          [sub, member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_double(v);
            if (!parsed) return make_error(parsed.error());
            s.*sub.*member = parsed.value();
            return {};
          }};
}

template <typename Sub>
Field bool_field(const char* key, Sub ScenarioSpec::* sub, bool Sub::* member) {
  return {key,
          [sub, member](const ScenarioSpec& s) { return s.*sub.*member ? "true" : "false"; },
          [sub, member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_bool(v);
            if (!parsed) return make_error(parsed.error());
            s.*sub.*member = parsed.value();
            return {};
          }};
}

Field id_list_field(const char* key, std::vector<NodeId> CommitteeSpec::* member) {
  return {key,
          [member](const ScenarioSpec& s) {
            std::string out;
            for (const NodeId id : s.committee.*member) {
              if (!out.empty()) out += ',';
              out += std::to_string(id.value);
            }
            return out;
          },
          [member](ScenarioSpec& s, const std::string& v) -> Result<void> {
            auto parsed = parse_id_list(v);
            if (!parsed) return make_error(parsed.error());
            std::vector<NodeId>& ids = s.committee.*member;
            ids.clear();
            for (const std::uint64_t id : parsed.value()) ids.push_back(NodeId{id});
            return {};
          }};
}

const std::vector<Field>& field_table() {
  static const std::vector<Field> fields = [] {
    std::vector<Field> f;
    f.push_back({"protocol",
                 [](const ScenarioSpec& s) { return std::string(protocol_name(s.protocol)); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = protocol_from_name(v);
                   if (!parsed) return make_error(parsed.error());
                   s.protocol = parsed.value();
                   return {};
                 }});
    f.push_back(u64_field("seed", &ScenarioSpec::seed));
    f.push_back({"nodes", [](const ScenarioSpec& s) { return std::to_string(s.nodes); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_u64(v);
                   if (!parsed) return make_error(parsed.error());
                   if (parsed.value() == 0) return make_error("nodes must be >= 1");
                   s.nodes = static_cast<std::size_t>(parsed.value());
                   return {};
                 }});
    f.push_back({"clients", [](const ScenarioSpec& s) { return std::to_string(s.clients); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_u64(v);
                   if (!parsed) return make_error(parsed.error());
                   s.clients = static_cast<std::size_t>(parsed.value());
                   return {};
                 }});
    f.push_back({"deadline_ns",
                 [](const ScenarioSpec& s) { return std::to_string(s.deadline.ns); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_i64(v);
                   if (!parsed) return make_error(parsed.error());
                   if (parsed.value() < 0) return make_error("negative duration: \"" + v + "\"");
                   s.deadline.ns = parsed.value();
                   return {};
                 }});

    f.push_back(u64_sub_field("workload.txs_per_client", &ScenarioSpec::workload,
                              &WorkloadSpec::txs_per_client));
    f.push_back(duration_field("workload.period_ns", &ScenarioSpec::workload,
                               &WorkloadSpec::period));
    f.push_back(size_field("workload.payload_bytes", &ScenarioSpec::workload,
                           &WorkloadSpec::payload_bytes));
    f.push_back(u64_sub_field("workload.fee", &ScenarioSpec::workload, &WorkloadSpec::fee));
    f.push_back({"workload.start_ns",
                 [](const ScenarioSpec& s) { return std::to_string(s.workload.start.ns); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_i64(v);
                   if (!parsed) return make_error(parsed.error());
                   if (parsed.value() < 0) return make_error("negative instant: \"" + v + "\"");
                   s.workload.start.ns = parsed.value();
                   return {};
                 }});
    f.push_back(duration_field("workload.stagger_ns", &ScenarioSpec::workload,
                               &WorkloadSpec::stagger));
    f.push_back(bool_field("workload.client_retries", &ScenarioSpec::workload,
                           &WorkloadSpec::client_retries));
    f.push_back({"workload.mode",
                 [](const ScenarioSpec& s) {
                   return std::string(workload_mode_name(s.workload.mode));
                 },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = workload_mode_from_name(v);
                   if (!parsed) return make_error(parsed.error());
                   s.workload.mode = parsed.value();
                   return {};
                 }});
    f.push_back(u64_sub_field("workload.devices", &ScenarioSpec::workload,
                              &WorkloadSpec::devices));
    f.push_back({"workload.arrival",
                 [](const ScenarioSpec& s) {
                   return std::string(arrival_name(s.workload.arrival));
                 },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = arrival_from_name(v);
                   if (!parsed) return make_error(parsed.error());
                   s.workload.arrival = parsed.value();
                   return {};
                 }});
    f.push_back(double_field("workload.rate_hz", &ScenarioSpec::workload,
                             &WorkloadSpec::rate_hz));
    f.push_back(duration_field("workload.horizon_ns", &ScenarioSpec::workload,
                               &WorkloadSpec::horizon));
    f.push_back(duration_field("workload.burst_on_ns", &ScenarioSpec::workload,
                               &WorkloadSpec::burst_on));
    f.push_back(duration_field("workload.burst_off_ns", &ScenarioSpec::workload,
                               &WorkloadSpec::burst_off));
    f.push_back(duration_field("workload.diurnal_period_ns", &ScenarioSpec::workload,
                               &WorkloadSpec::diurnal_period));
    f.push_back(double_field("workload.diurnal_trough", &ScenarioSpec::workload,
                             &WorkloadSpec::diurnal_trough));

    f.push_back(size_field("committee.initial", &ScenarioSpec::committee,
                           &CommitteeSpec::initial));
    f.push_back(size_field("committee.min", &ScenarioSpec::committee, &CommitteeSpec::min));
    f.push_back(size_field("committee.max", &ScenarioSpec::committee, &CommitteeSpec::max));
    f.push_back(duration_field("committee.era_period_ns", &ScenarioSpec::committee,
                               &CommitteeSpec::era_period));
    f.push_back(id_list_field("committee.blacklist", &CommitteeSpec::blacklist));
    f.push_back(id_list_field("committee.whitelist", &CommitteeSpec::whitelist));

    f.push_back(duration_field("geo.report_period_ns", &ScenarioSpec::geo,
                               &GeoSpec::report_period));
    f.push_back(duration_field("geo.window_ns", &ScenarioSpec::geo, &GeoSpec::window));
    f.push_back(size_field("geo.min_reports", &ScenarioSpec::geo, &GeoSpec::min_reports));
    f.push_back(duration_field("geo.promotion_threshold_ns", &ScenarioSpec::geo,
                               &GeoSpec::promotion_threshold));
    f.push_back(bool_field("geo.reports_on_chain", &ScenarioSpec::geo,
                           &GeoSpec::reports_on_chain));

    f.push_back(size_field("engine.batch_size", &ScenarioSpec::engine, &EngineSpec::batch_size));
    f.push_back(size_field("engine.checkpoint_interval", &ScenarioSpec::engine,
                           &EngineSpec::checkpoint_interval));
    f.push_back(bool_field("engine.compute_macs", &ScenarioSpec::engine,
                           &EngineSpec::compute_macs));
    f.push_back(duration_field("engine.request_timeout_ns", &ScenarioSpec::engine,
                               &EngineSpec::request_timeout));
    f.push_back(duration_field("engine.view_change_timeout_ns", &ScenarioSpec::engine,
                               &EngineSpec::view_change_timeout));

    f.push_back({"batch.size",
                 [](const ScenarioSpec& s) { return std::to_string(s.batch.size); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_u64(v);
                   if (!parsed) return make_error(parsed.error());
                   if (parsed.value() == 0) return make_error("batch.size must be >= 1");
                   s.batch.size = static_cast<std::size_t>(parsed.value());
                   return {};
                 }});
    f.push_back(duration_field("batch.timeout_ns", &ScenarioSpec::batch, &BatchSpec::timeout));

    f.push_back(duration_field("net.base_latency_ns", &ScenarioSpec::net,
                               &net::NetConfig::base_latency));
    f.push_back(duration_field("net.jitter_ns", &ScenarioSpec::net, &net::NetConfig::jitter));
    f.push_back(double_field("net.bandwidth_bytes_per_sec", &ScenarioSpec::net,
                             &net::NetConfig::bandwidth_bytes_per_sec));
    f.push_back(double_field("net.processing_rate_msgs_per_sec", &ScenarioSpec::net,
                             &net::NetConfig::processing_rate_msgs_per_sec));
    f.push_back(double_field("net.processing_secs_per_byte", &ScenarioSpec::net,
                             &net::NetConfig::processing_secs_per_byte));
    f.push_back(double_field("net.drop_rate", &ScenarioSpec::net, &net::NetConfig::drop_rate));

    f.push_back({"placement.base_latitude",
                 [](const ScenarioSpec& s) { return double_str(s.placement.base.latitude); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_double(v);
                   if (!parsed) return make_error(parsed.error());
                   s.placement.base.latitude = parsed.value();
                   return {};
                 }});
    f.push_back({"placement.base_longitude",
                 [](const ScenarioSpec& s) { return double_str(s.placement.base.longitude); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_double(v);
                   if (!parsed) return make_error(parsed.error());
                   s.placement.base.longitude = parsed.value();
                   return {};
                 }});
    f.push_back({"placement.area_precision",
                 [](const ScenarioSpec& s) { return std::to_string(s.placement.area_precision); },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   auto parsed = parse_i64(v);
                   if (!parsed) return make_error(parsed.error());
                   if (parsed.value() < 1 || parsed.value() > 12) {
                     return make_error("placement.area_precision must be in [1, 12]");
                   }
                   s.placement.area_precision = static_cast<int>(parsed.value());
                   return {};
                 }});
    f.push_back(double_field("placement.spacing_meters", &ScenarioSpec::placement,
                             &PlacementConfig::spacing_meters));

    f.push_back(duration_field("dbft.block_interval_ns", &ScenarioSpec::dbft,
                               &DbftSpec::block_interval));
    f.push_back(size_field("dbft.delegates", &ScenarioSpec::dbft, &DbftSpec::delegates));
    f.push_back(size_field("dbft.epoch_blocks", &ScenarioSpec::dbft, &DbftSpec::epoch_blocks));

    f.push_back(duration_field("pow.block_interval_ns", &ScenarioSpec::pow,
                               &PowSpec::block_interval));
    f.push_back(u64_sub_field("pow.confirmations", &ScenarioSpec::pow, &PowSpec::confirmations));
    f.push_back(double_field("pow.hashrate", &ScenarioSpec::pow, &PowSpec::hashrate));

    f.push_back({"chaos.intensity",
                 [](const ScenarioSpec& s) { return s.chaos.intensity; },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   if (v != "none" && v != "light" && v != "medium" && v != "heavy") {
                     return make_error("chaos.intensity must be none|light|medium|heavy, got \"" +
                                       v + "\"");
                   }
                   s.chaos.intensity = v;
                   return {};
                 }});
    f.push_back(duration_field("chaos.horizon_ns", &ScenarioSpec::chaos, &ChaosSpec::horizon));
    f.push_back(duration_field("chaos.liveness_grace_ns", &ScenarioSpec::chaos,
                               &ChaosSpec::liveness_grace));
    f.push_back(double_field("chaos.restart_chance", &ScenarioSpec::chaos,
                             &ChaosSpec::restart_chance));
    f.push_back(double_field("chaos.disk_fault_chance", &ScenarioSpec::chaos,
                             &ChaosSpec::disk_fault_chance));
    f.push_back(double_field("chaos.sybil_burst_chance", &ScenarioSpec::chaos,
                             &ChaosSpec::sybil_burst_chance));
    f.push_back(double_field("chaos.targeted_crash_chance", &ScenarioSpec::chaos,
                             &ChaosSpec::targeted_crash_chance));
    f.push_back(double_field("chaos.oscillate_chance", &ScenarioSpec::chaos,
                             &ChaosSpec::oscillate_chance));
    f.push_back(double_field("chaos.tamper_chance", &ScenarioSpec::chaos,
                             &ChaosSpec::tamper_chance));
    f.push_back({"chaos.tamper_mode",
                 [](const ScenarioSpec& s) { return s.chaos.tamper_mode; },
                 [](ScenarioSpec& s, const std::string& v) -> Result<void> {
                   if (v != "replace" && v != "inject") {
                     return make_error("chaos.tamper_mode must be replace|inject, got \"" + v +
                                       "\"");
                   }
                   s.chaos.tamper_mode = v;
                   return {};
                 }});

    f.push_back(bool_field("reputation.enabled", &ScenarioSpec::reputation,
                           &ReputationSpec::enabled));
    f.push_back(duration_field("reputation.half_life_ns", &ScenarioSpec::reputation,
                               &ReputationSpec::half_life));
    f.push_back(i64_sub_field("reputation.quarantine_enter", &ScenarioSpec::reputation,
                              &ReputationSpec::quarantine_enter));
    f.push_back(i64_sub_field("reputation.quarantine_exit", &ScenarioSpec::reputation,
                              &ReputationSpec::quarantine_exit));
    f.push_back(size_field("reputation.sybil_rate_factor", &ScenarioSpec::reputation,
                           &ReputationSpec::sybil_rate_factor));
    return f;
  }();
  return fields;
}

}  // namespace

std::string print_scenario(const ScenarioSpec& spec) {
  std::string out = "# gpbft scenario (key=value; durations in nanoseconds)\n";
  for (const Field& field : field_table()) {
    out += field.key;
    out += '=';
    out += field.print(spec);
    out += '\n';
  }
  return out;
}

Result<ScenarioSpec> parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  std::size_t line_start = 0;
  std::size_t line_number = 0;
  while (line_start <= text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;

    // Trim whitespace; skip blanks and comments.
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    if (line[0] == '#') continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return make_error("line " + std::to_string(line_number) + ": expected key=value, got \"" +
                        line + "\"");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);

    const Field* match = nullptr;
    for (const Field& field : field_table()) {
      if (key == field.key) {
        match = &field;
        break;
      }
    }
    if (match == nullptr) {
      return make_error("line " + std::to_string(line_number) + ": unknown key \"" + key + "\"");
    }
    if (Result<void> parsed = match->parse(spec, value); !parsed) {
      return make_error("line " + std::to_string(line_number) + ": " + key + ": " +
                        parsed.error());
    }
  }
  return spec;
}

}  // namespace gpbft::sim
