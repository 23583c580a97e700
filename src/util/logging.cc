#include "util/logging.h"

#include <cstdio>

namespace pdms {

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

Logger& Logger::Get() {
  static Logger logger;
  return logger;
}

void Logger::Log(LogLevel level, const std::string& message) {
  if (!Enabled(level)) return;
  const std::string_view name = LogLevelName(level);
  std::string line;
  line.reserve(name.size() + message.size() + 4);
  line.append("[").append(name).append("] ").append(message).append("\n");
  // One fwrite holds stderr's stream lock for the whole line.
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace pdms
