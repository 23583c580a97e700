#ifndef PDMSBENCH_WORKLOADS_H_
#define PDMSBENCH_WORKLOADS_H_

// The benchmark's workloads (BENCHMARK.json lists longcycle-1k and
// node-serve; steady-10k runs by name) and the metrics they report. Every call
// into the system goes through its public surface: `PdmsBuilder`,
// `Session`, `PdmsNode`, the `Transport` interface, the codec's
// `EncodePayload`/`DecodePayload` and `SnapshotStore`.

#include <cstdint>
#include <string>
#include <vector>

#include "pdms/pdms.h"

namespace pdmsbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement window; workloads repeat their measured sequence until
  /// it is spent (at least once).
  double seconds = 20;
  /// False: untraced end-to-end metrics. True: the per-layer metrics of a
  /// traced run, plus the same run's end-to-end metrics untraced and
  /// traced (informational, the tracing overhead).
  bool trace = false;
  /// Directory (inside the checkout) for span logs and scratch files.
  std::string out_dir = ".bench_out";
};

struct RunResult {
  /// Correctness-check failures; empty = correct.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics of the final JSON line (end-to-end untraced, or
  /// per-layer when traced).
  std::vector<Metric> metrics;
  /// Traced runs: the end-to-end metrics measured with tracing on, printed
  /// beside `untraced_end_to_end` to show the overhead.
  std::vector<Metric> untraced_end_to_end;
  std::vector<Metric> traced_end_to_end;
  /// Free-form lines printed before the result (sample counts, checks).
  std::vector<std::string> notes;
};

/// Names of the workloads `RunWorkload` accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Unknown names are a failure of the returned result.
RunResult RunWorkload(const RunConfig& config);

/// `--setup-only`: the workload's set-up, timed a few times in this
/// process, in seconds; empty on failure. `RunWorkload` takes its `setup_s`
/// samples from several such processes.
std::vector<double> SetUpSamples(const RunConfig& config);

/// Engine options and network of a named workload, for the self-test.
struct WorkloadSpec {
  std::string name;
  size_t peers = 0;
  uint64_t structure_seed = 0;
  /// Whether the run's seed renumbers peers and edges (`MakeNetwork`);
  /// otherwise the seed drives only the query mix.
  bool relabel = true;
  pdms::EngineOptions options;
  double value_error_budget = 0;
  double accuracy_floor = 0;
  /// Discoveries timed per run, each on a fresh set-up.
  size_t discovery_samples = 1;
  /// In-process `Session::Query` calls after each inference phase
  /// (SimTransport workloads).
  size_t session_queries = 0;
};
const WorkloadSpec* FindWorkload(const std::string& name);

}  // namespace pdmsbench

#endif  // PDMSBENCH_WORKLOADS_H_
