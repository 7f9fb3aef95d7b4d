#include "common/logging.hpp"

#include <cstdlib>
#include <cstring>

namespace gpbft {

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?";
}

/// GPBFT_LOG=trace|debug|info|warn|error|off overrides the default (Warn)
/// at process start; programmatic set_level still wins afterwards. Lets a
/// failing seed be re-run with full narration without a rebuild.
LogLevel initial_level() {
  const char* env = std::getenv("GPBFT_LOG");
  if (env == nullptr) return LogLevel::Warn;
  if (std::strcmp(env, "trace") == 0) return LogLevel::Trace;
  if (std::strcmp(env, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(env, "info") == 0) return LogLevel::Info;
  if (std::strcmp(env, "warn") == 0) return LogLevel::Warn;
  if (std::strcmp(env, "error") == 0) return LogLevel::Error;
  if (std::strcmp(env, "off") == 0) return LogLevel::Off;
  return LogLevel::Warn;
}
}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  static const bool env_applied = [] {
    logger.set_level(initial_level());
    return true;
  }();
  (void)env_applied;
  return logger;
}

void Logger::log(LogLevel level, const std::string& message) {
  if (level < level_) return;
  if (has_sim_time_) {
    std::fprintf(stderr, "[%s t=%.6fs] %s\n", level_name(level), sim_time_, message.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
  }
}

void log_debug(const std::string& message) { Logger::instance().log(LogLevel::Debug, message); }
void log_info(const std::string& message) { Logger::instance().log(LogLevel::Info, message); }
void log_warn(const std::string& message) { Logger::instance().log(LogLevel::Warn, message); }
void log_error(const std::string& message) { Logger::instance().log(LogLevel::Error, message); }

}  // namespace gpbft
