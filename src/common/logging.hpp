// Leveled logger.
//
// A single process-wide sink with a runtime level filter. The simulator
// stamps log lines with simulated time when available; modules log through
// the free functions below. Logging is off (Warn) by default so tests and
// benches stay quiet; examples raise the level to narrate runs.
#pragma once

#include <cstdio>
#include <string>

namespace gpbft {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  /// Optional simulated-time prefix, set by the running simulator.
  void set_sim_time_seconds(double t) { sim_time_ = t; has_sim_time_ = true; }
  void clear_sim_time() { has_sim_time_ = false; }
  [[nodiscard]] bool has_sim_time() const { return has_sim_time_; }
  [[nodiscard]] double sim_time_seconds() const { return sim_time_; }

  void log(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  LogLevel level_{LogLevel::Warn};
  double sim_time_{0.0};
  bool has_sim_time_{false};
};

/// RAII guard for the sim-time prefix: restores the previous prefix state
/// (set or cleared) on scope exit, so a harness that runs a simulator
/// inside a wall-clock program does not leak a stale timestamp onto later
/// non-sim log lines. Deployment teardown uses the same restore path.
class SimTimeScope {
 public:
  SimTimeScope()
      : had_(Logger::instance().has_sim_time()), previous_(Logger::instance().sim_time_seconds()) {}
  explicit SimTimeScope(double t) : SimTimeScope() {
    Logger::instance().set_sim_time_seconds(t);
  }
  ~SimTimeScope() {
    if (had_) {
      Logger::instance().set_sim_time_seconds(previous_);
    } else {
      Logger::instance().clear_sim_time();
    }
  }
  SimTimeScope(const SimTimeScope&) = delete;
  SimTimeScope& operator=(const SimTimeScope&) = delete;

 private:
  bool had_;
  double previous_;
};

void log_debug(const std::string& message);
void log_info(const std::string& message);
void log_warn(const std::string& message);
void log_error(const std::string& message);

}  // namespace gpbft
