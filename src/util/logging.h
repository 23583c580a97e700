#ifndef PDMS_UTIL_LOGGING_H_
#define PDMS_UTIL_LOGGING_H_

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace pdms {

/// Severity levels in increasing order of importance.
enum class LogLevel : uint8_t { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

std::string_view LogLevelName(LogLevel level);

/// Minimal leveled logger writing to stderr.
///
/// The library logs sparingly (topology construction summaries, convergence
/// warnings, rejected messages); simulations stay silent at the default
/// `kWarning` threshold so that benchmark output is clean. Thread-safe:
/// rejections are logged from the engine's round lanes and from
/// `PdmsNode`'s socket thread, so each line goes out in one write and
/// concurrent lines never interleave.
class Logger {
 public:
  /// Global logger instance.
  static Logger& Get();

  /// Messages below `level` are discarded.
  void set_min_level(LogLevel level) {
    min_level_.store(level, std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return min_level_.load(std::memory_order_relaxed);
  }

  /// Emits one line: "[LEVEL] message".
  void Log(LogLevel level, const std::string& message);

  bool Enabled(LogLevel level) const { return level >= min_level(); }

 private:
  Logger() = default;
  std::atomic<LogLevel> min_level_{LogLevel::kWarning};
};

/// Stream-style log statement builder; emits on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() {
    if (Logger::Get().Enabled(level_)) Logger::Get().Log(level_, stream_.str());
  }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (Logger::Get().Enabled(level_)) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace pdms

#define PDMS_LOG_DEBUG ::pdms::LogMessage(::pdms::LogLevel::kDebug)
#define PDMS_LOG_INFO ::pdms::LogMessage(::pdms::LogLevel::kInfo)
#define PDMS_LOG_WARNING ::pdms::LogMessage(::pdms::LogLevel::kWarning)
#define PDMS_LOG_ERROR ::pdms::LogMessage(::pdms::LogLevel::kError)

#endif  // PDMS_UTIL_LOGGING_H_
