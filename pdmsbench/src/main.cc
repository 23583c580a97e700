// PDMS benchmark entry point: runs one workload and prints its metrics.
//
//   pdms_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>]
//
// Prints one "metric" line per metric, notes on sample counts, and as the
// last line a JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// metrics of a traced run, after both its untraced and traced end-to-end
// metrics. Exits 1 when a correctness check fails, 2 on bad arguments.
// With --setup-only it prints only the seconds of a few set-ups of the
// workload, one per line; a run starts several such processes for setup_s.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: pdms_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:");
  for (const std::string& name : pdmsbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

void PrintMetrics(const char* label,
                  const std::vector<pdmsbench::Metric>& metrics) {
  for (const pdmsbench::Metric& metric : metrics) {
    std::printf("%s %-30s %16.6f %s\n", label, metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
}

/// JSON-escapes the few characters a failure message may carry.
std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pdmsbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      setup_only = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    unsigned long long number = 0;
    if (flag == "--workload" && value != nullptr) {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      config.trace = number == 1;
      have_trace = true;
    } else if (flag == "--out-dir" && value != nullptr) {
      config.out_dir = value;
    } else {
      Usage();
      return 2;
    }
    ++i;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      pdmsbench::FindWorkload(config.workload) == nullptr) {
    Usage();
    return 2;
  }

  if (setup_only) {
    const std::vector<double> seconds = pdmsbench::SetUpSamples(config);
    for (double value : seconds) std::printf("%.9f\n", value);
    return seconds.empty() ? 1 : 0;
  }

  const pdmsbench::RunResult result = pdmsbench::RunWorkload(config);

  std::printf("workload %s seed %llu seconds %.0f trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  if (config.trace) {
    PrintMetrics("untraced", result.untraced_end_to_end);
    PrintMetrics("traced  ", result.traced_end_to_end);
  }
  PrintMetrics("metric  ", result.metrics);
  for (const std::string& note : result.notes) {
    std::printf("note     %s\n", note.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("FAILED   %s\n", failure.c_str());
  }

  const bool correct = result.failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const pdmsbench::Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i > 0) json += ", ";
    json.append("\"").append(Escape(metric.name));
    json.append("\": {\"value\": ").append(value);
    json.append(", \"unit\": \"").append(Escape(metric.unit)).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
