#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "net/codec.h"
#include "net/socket_transport.h"
#include "network.h"
#include "node/pdms_node.h"
#include "store/snapshot.h"
#include "tracing.h"
#include "util/rng.h"

namespace pdmsbench {

using pdms::EngineOptions;
using pdms::Pdms;
using pdms::PdmsBuilder;
using pdms::PeerId;
using pdms::TransportStats;

namespace {

/// Set-ups are timed in fresh processes of this binary, `kSetupRepeats`
/// each, every one torn down right away (the iterations' own set-ups run on
/// a heap shaped by earlier iterations and are not counted). A process's
/// memory layout sets its level: the same node set-up took 2.4 ms in some
/// processes and 3.6 ms in others, within 3% inside each. Half of the
/// `kSetupProcesses` run before the measured phases and half after, as the
/// host's load moved the level by up to 2x within a minute.
constexpr size_t kSetupProcesses = 8;
constexpr size_t kSetupRepeats = 9;
constexpr uint32_t kQueryTtl = 3;
/// Converge cap of longcycle-1k.
constexpr size_t kConvergeCap = 500;
constexpr size_t kWarmupSteps = 3;
/// Work per run is a fixed function of `--seconds`, sized so a run measures
/// for about that long on a 4-core 2.1 GHz VM: steady-10k runs
/// `seconds * kSteadyStepsPerSecond` Steps, longcycle-1k
/// `seconds / kSecondsPerConvergeBlock` Converge blocks and node-serve
/// `seconds / kSecondsPerNodeIteration` node lifetimes (RunDiscovery plus
/// 300 rounds, 8-12 s: the node's rounds swing between ~20 and ~36 ms with
/// the host's load for seconds at a time, so a run needs several lifetimes).
constexpr double kSteadyStepsPerSecond = 7.0;
constexpr double kSecondsPerConvergeBlock = 2.0;
constexpr double kSecondsPerNodeIteration = 11.0;
/// node-serve: fixed rounds (tolerance 0) and the open-loop query rate.
constexpr size_t kNodeRounds = 300;
/// The query client starts when this round completes. One of the first two
/// rounds of every RunRounds takes 4-6x a steady round; queries due inside
/// it would queue behind it. node.startup_round_ms reports that round.
constexpr size_t kQueryStartRound = 3;
constexpr double kNodeQueriesPerSecond = 100.0;
constexpr int kNodeQueryTimeoutMs = 5000;
/// The client spins for at most this long before a query's due time.
constexpr int64_t kSpinNs = 1'000'000;

enum class Inference { kConverge, kFixedSteps };

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> list;
    {
      // The paper's regime: belief crosses 3- and 4-cycles.
      WorkloadSpec spec;
      spec.name = "longcycle-1k";
      spec.peers = 1000;
      spec.structure_seed = 3026;
      spec.options.probe_ttl = 4;
      spec.options.closure_limits.min_cycle_length = 2;
      spec.options.closure_limits.max_cycle_length = 4;
      spec.options.closure_limits.max_path_length = 1;
      spec.options.damping = 0.5;
      // Rounds fan out over a 4-lane pool (posteriors are bitwise those of
      // the serial engine): serial round times on a shared 4-vCPU host
      // moved with the host's load by up to 1.75x between runs, pooled
      // ones by a few percent.
      spec.options.parallelism = 4;
      spec.options.min_peers_per_lane = 1;
      spec.accuracy_floor = 0.85;
      spec.discovery_samples = 2;
      spec.session_queries = 300;
      // Kept in its generated numbering: renumbering reorders floating-point
      // sums, which moves the verdict between 100 and 206 rounds.
      spec.relabel = false;
      list.push_back(spec);
    }
    {
      // The existing scale regime (2-cycles only) where the pool fans out.
      // Runnable, and the self-test's phase check runs on it, but not listed
      // in BENCHMARK.json: its runs would leave node-serve too little of the
      // time budget to measure steadily.
      WorkloadSpec spec;
      spec.name = "steady-10k";
      spec.peers = 10000;
      spec.structure_seed = 12026;
      spec.options.probe_ttl = 2;
      spec.options.closure_limits.min_cycle_length = 2;
      spec.options.closure_limits.max_cycle_length = 2;
      spec.options.closure_limits.max_path_length = 1;
      spec.options.parallelism = 4;
      spec.accuracy_floor = 0.82;
      spec.discovery_samples = 4;
      spec.session_queries = 1000;
      list.push_back(spec);
    }
    {
      // One pdms_node over loopback sockets, quantized wire.
      WorkloadSpec spec;
      spec.name = "node-serve";
      spec.peers = 1000;
      spec.structure_seed = 3026;
      spec.options.probe_ttl = 3;
      spec.options.closure_limits.min_cycle_length = 2;
      spec.options.closure_limits.max_cycle_length = 3;
      spec.options.closure_limits.max_path_length = 1;
      spec.options.damping = 0.5;
      spec.options.tolerance = 0.0;
      spec.options.parallelism = 1;
      spec.value_error_budget = 1e-3;
      spec.accuracy_floor = 0.83;
      spec.discovery_samples = 3;
      spec.relabel = false;
      list.push_back(spec);
    }
    return list;
  }();
  return specs;
}

// --- Statistics -----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The lower quartile, interpolating between order statistics.
double LowerQuartile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = 0.25 * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(position);
  const size_t above = std::min(below + 1, values.size() - 1);
  const double weight = position - static_cast<double>(below);
  return values[below] + weight * (values[above] - values[below]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Median and the highest percentile with at least ten samples beyond it.
struct Distribution {
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;
  size_t samples = 0;
};

Distribution Summarize(std::vector<double> values) {
  Distribution d;
  d.samples = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = Median(values);
  const size_t index = values.size() > 10 ? values.size() - 11 : 0;
  d.tail = values.size() > 10 ? values[index] : values.back();
  d.tail_percentile =
      100.0 * static_cast<double>(index + 1) / static_cast<double>(d.samples);
  return d;
}

/// The p50 and tail of an ungated distribution, with the tail's percentile.
std::string DistributionNote(const std::string& name, const Distribution& d) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s (ungated): p50 %.4f, tail %.4f = p%.2f of %zu samples "
                "(10 beyond it)",
                name.c_str(), d.p50, d.tail, d.tail_percentile, d.samples);
  return line;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Repetitions of a block that takes about `block_seconds`, for a
/// `seconds` window; at least `minimum`.
size_t CountFor(double seconds, double block_seconds, size_t minimum) {
  return std::max<size_t>(minimum,
                          static_cast<size_t>(std::lround(seconds / block_seconds)));
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// --- Accumulators ---------------------------------------------------------

/// End-to-end observations pooled over a run's iterations.
struct EndToEnd {
  /// Median set-up of each set-up process; setup_s is their mean, which
  /// moves smoothly with the mix of fast and slow layouts where a median
  /// would jump between them.
  std::vector<double> setup_s;
  std::vector<double> discover_s;
  /// Wall time of each inference phase; every phase of a run runs the same
  /// number of rounds (longcycle-1k checks it bit for bit).
  std::vector<double> converge_s;
  std::vector<double> round_ms;
  std::vector<double> query_ms;
  uint64_t rounds = 0;
  uint64_t wire_bytes = 0;
  uint64_t wire_rounds = 0;
  double accuracy = 0;
  uint64_t queries_offered = 0;
  uint64_t queries_ok = 0;
  double peak_rss_mb = 0;

  std::vector<Metric> Metrics(std::vector<std::string>* notes) const {
    const Distribution rounds_dist = Summarize(round_ms);
    const Distribution query_dist = Summarize(query_ms);
    notes->push_back(DistributionNote("round ms", rounds_dist));
    notes->push_back(DistributionNote("query ms", query_dist));
    char line[200];
    std::snprintf(line, sizeof(line),
                  "samples: %zu setup processes, %zu discoveries, %zu "
                  "inference phases, %llu queries offered",
                  setup_s.size(), discover_s.size(), converge_s.size(),
                  static_cast<unsigned long long>(queries_offered));
    notes->push_back(line);
    // Round speed is the lower quartile of the run's round wall times, and
    // converge_s a phase's rounds at that speed. The host's load only ever
    // adds time, in stretches of seconds up to minutes that slow whole
    // phases or whole runs. Over six sets of node-serve runs the
    // interquartile spread of this figure was 0.07-0.22 of its median,
    // against up to 0.26 for the lower-quartile phase and 0.30 for the
    // median round. A slowdown of fewer than a quarter of the rounds shows
    // only in the per-layer round.p50_ms and round.tail_ms.
    const double round_lq_ms = LowerQuartile(round_ms);
    const double rounds_per_phase =
        converge_s.empty()
            ? 0.0
            : static_cast<double>(rounds) / static_cast<double>(converge_s.size());
    std::snprintf(line, sizeof(line),
                  "inference phase s (ungated): median %.4f, lower quartile "
                  "%.4f of %zu, %.1f rounds each",
                  Median(converge_s), LowerQuartile(converge_s),
                  converge_s.size(), rounds_per_phase);
    notes->push_back(line);
    return {
        {"setup_s", Mean(setup_s), "s"},
        {"discover_s", Median(discover_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"converge_s", rounds_per_phase * round_lq_ms * 1e-3, "s"},
        {"rounds_per_s", round_lq_ms > 0 ? 1e3 / round_lq_ms : 0.0, "1/s"},
        {"wire_bytes_per_round",
         wire_rounds > 0 ? static_cast<double>(wire_bytes) / wire_rounds : 0.0,
         "B"},
        {"detect_accuracy", accuracy, "ratio"},
        {"query_ok_ratio",
         queries_offered > 0
             ? static_cast<double>(queries_ok) / queries_offered
             : 0.0,
         "ratio"},
    };
  }
};

/// Per-layer observations of a traced run. Fields a workload does not
/// exercise stay 0.
struct Layers {
  std::vector<RoundPhases> rounds;
  /// Untraced per-round wall times of the run, for round.p50_ms and
  /// round.tail_ms.
  std::vector<double> round_ms;
  uint64_t wire_rounds = 0;
  uint64_t value_bytes = 0;
  uint64_t header_bytes = 0;
  uint64_t alias_bytes = 0;
  uint64_t converge_rounds = 0;

  uint64_t discover_ticks = 0;
  uint64_t discover_probe_msgs = 0;
  uint64_t discover_feedback_msgs = 0;
  uint64_t discover_bytes = 0;
  uint64_t discover_factors = 0;
  double discover_rss_growth_mb = 0;
  double discover_drain_ms = 0;
  double discover_send_ms = 0;

  double codec_encode_mb_per_s = 0;
  double codec_decode_mb_per_s = 0;
  double codec_bytes_per_update = 0;

  std::vector<double> node_round_ms;
  double node_startup_round_ms = 0;
  double node_envelopes_per_round = 0;
  double node_bytes_per_round = 0;

  std::vector<double> query_exec_us;
  /// The end-to-end query latencies of the run, for query.tail_ms.
  std::vector<double> query_ms;
  double query_wait_ms = 0;
  double query_reached_mean = 0;
  double query_generator_lag_ms = 0;

  double store_snapshot_bytes = 0;
  double store_encode_ms = 0;
  double store_save_ms = 0;
  double store_load_ms = 0;

  double overhead_ratio = 0;

  std::vector<Metric> Metrics() const {
    auto phase = [&](double RoundPhases::*field) {
      std::vector<double> values;
      for (const RoundPhases& r : rounds) values.push_back(r.*field);
      return Median(values);
    };
    std::vector<double> envelopes, updates;
    for (const RoundPhases& r : rounds) {
      envelopes.push_back(static_cast<double>(r.envelopes));
      updates.push_back(static_cast<double>(r.updates));
    }
    const auto per_round = [&](uint64_t total) {
      return wire_rounds > 0 ? static_cast<double>(total) / wire_rounds : 0.0;
    };
    const Distribution node = Summarize(node_round_ms);
    return {
        {"round.p50_ms", Median(round_ms), "ms"},
        {"round.tail_ms", Summarize(round_ms).tail, "ms"},
        {"round.tick_ms", phase(&RoundPhases::tick_ms), "ms"},
        {"round.deliver_ms", phase(&RoundPhases::deliver_ms), "ms"},
        {"round.absorb_ms", phase(&RoundPhases::absorb_ms), "ms"},
        {"round.compute_ms", phase(&RoundPhases::compute_ms), "ms"},
        {"round.send_ms", phase(&RoundPhases::send_ms), "ms"},
        {"transport.drain_ms", phase(&RoundPhases::drain_self_ms), "ms"},
        {"transport.send_ms", phase(&RoundPhases::send_self_ms), "ms"},
        {"round.envelopes", Median(envelopes), "count"},
        {"round.updates", Median(updates), "count"},
        {"wire.value_bytes_per_round", per_round(value_bytes), "B"},
        {"wire.header_bytes_per_round", per_round(header_bytes), "B"},
        {"wire.alias_bytes_per_round", per_round(alias_bytes), "B"},
        {"converge.rounds", static_cast<double>(converge_rounds), "count"},
        {"discover.ticks", static_cast<double>(discover_ticks), "count"},
        {"discover.probe_msgs", static_cast<double>(discover_probe_msgs),
         "count"},
        {"discover.feedback_msgs",
         static_cast<double>(discover_feedback_msgs), "count"},
        {"discover.bytes", static_cast<double>(discover_bytes), "B"},
        {"discover.factors", static_cast<double>(discover_factors), "count"},
        {"discover.factors_per_kprobe",
         discover_probe_msgs > 0
             ? 1000.0 * static_cast<double>(discover_factors) /
                   static_cast<double>(discover_probe_msgs)
             : 0.0,
         "count"},
        {"discover.rss_growth_mb", discover_rss_growth_mb, "MB"},
        {"discover.drain_ms", discover_drain_ms, "ms"},
        {"discover.send_ms", discover_send_ms, "ms"},
        {"codec.encode_mb_per_s", codec_encode_mb_per_s, "MB/s"},
        {"codec.decode_mb_per_s", codec_decode_mb_per_s, "MB/s"},
        {"codec.bytes_per_update", codec_bytes_per_update, "B"},
        {"node.round_p50_ms", node.p50, "ms"},
        {"node.round_tail_ms", node.tail, "ms"},
        {"node.startup_round_ms", node_startup_round_ms, "ms"},
        {"node.envelopes_per_round", node_envelopes_per_round, "count"},
        {"node.bytes_per_round", node_bytes_per_round, "B"},
        {"query.p50_ms", Median(query_ms), "ms"},
        {"query.tail_ms", Summarize(query_ms).tail, "ms"},
        {"query.exec_us_p50", Median(query_exec_us), "us"},
        {"query.wait_ms_p50", query_wait_ms, "ms"},
        {"query.reached_mean", query_reached_mean, "count"},
        {"query.generator_lag_ms", query_generator_lag_ms, "ms"},
        {"store.snapshot_bytes", store_snapshot_bytes, "B"},
        {"store.encode_ms", store_encode_ms, "ms"},
        {"store.save_ms", store_save_ms, "ms"},
        {"store.load_ms", store_load_ms, "ms"},
        {"trace.overhead_ratio", overhead_ratio, "ratio"},
    };
  }
};

/// Everything one run shares across its iterations.
struct RunContext {
  const WorkloadSpec* spec = nullptr;
  const RunConfig* config = nullptr;
  pdms::SyntheticPdms network;
  SpanLog spans;
  RunResult* result = nullptr;

  void Fail(std::string message) {
    result->failures.push_back(std::move(message));
  }
};

// --- Building -------------------------------------------------------------

PdmsBuilder MakeBuilder(const RunContext& ctx) {
  PdmsBuilder builder = PdmsBuilder::FromSynthetic(ctx.network);
  builder.WithOptions(ctx.spec->options)
      .WithValueErrorBudget(ctx.spec->value_error_budget);
  return builder;
}

/// Builds over the SimTransport of the workload's options, wrapped in a
/// TracingTransport when `tracer` is non-null. Returns an invalid Pdms
/// (and records a failure) when Build fails.
Pdms BuildSim(RunContext* ctx, TracingTransport** tracer) {
  PdmsBuilder builder = MakeBuilder(*ctx);
  if (tracer != nullptr) {
    builder.WithTransport(
        [tracer](size_t peers, const EngineOptions& options) {
          return MakeTracedSimTransport(peers, options.network, tracer);
        });
  }
  pdms::Result<Pdms> built = builder.Build();
  if (!built.ok()) {
    ctx->Fail("Build failed: " + built.status().ToString());
    return Pdms();
  }
  return std::move(built).value();
}

/// What the node's round hook records, on the node's round thread.
struct RoundLog {
  std::vector<int64_t> ends;
  /// Called once, when round `kQueryStartRound` completes.
  std::function<void()> start_queries;
};

struct NodeHandle {
  std::unique_ptr<pdms::PdmsNode> node;
  std::unique_ptr<RoundLog> rounds = std::make_unique<RoundLog>();
};

/// Build over a loopback SocketTransport, PdmsNode::Create and Connect: the
/// node's set-up.
NodeHandle SetUpNode(RunContext* ctx) {
  NodeHandle handle;
  PdmsBuilder builder = MakeBuilder(*ctx);
  builder.WithTransport([](size_t peers, const EngineOptions&) {
    return std::unique_ptr<pdms::Transport>(
        pdms::SocketTransport::CreateLoopback(peers));
  });
  pdms::Result<Pdms> built = builder.Build();
  if (!built.ok()) {
    ctx->Fail("Build failed: " + built.status().ToString());
    return handle;
  }
  pdms::NodeOptions options;
  options.max_rounds = kNodeRounds;
  RoundLog* log = handle.rounds.get();
  options.round_hook = [log](uint64_t) {
    log->ends.push_back(NowNs());
    if (log->ends.size() == kQueryStartRound && log->start_queries) {
      log->start_queries();
    }
  };
  pdms::Result<std::unique_ptr<pdms::PdmsNode>> node =
      pdms::PdmsNode::Create(std::move(built).value(), std::move(options));
  if (!node.ok()) {
    ctx->Fail("PdmsNode::Create failed: " + node.status().ToString());
    return handle;
  }
  const pdms::Status connected = (*node)->Connect();
  if (!connected.ok()) {
    ctx->Fail("PdmsNode::Connect failed: " + connected.ToString());
    return handle;
  }
  handle.node = std::move(node).value();
  return handle;
}

/// Times `kSetupRepeats` set-ups in this process, each torn down right away.
void TimeSetUps(RunContext* ctx, bool node, std::vector<double>* seconds) {
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    NodeHandle handle;
    Pdms pdms;
    if (node) {
      handle = SetUpNode(ctx);
    } else {
      pdms = BuildSim(ctx, nullptr);
    }
    const int64_t end = NowNs();  // before the teardown
    if (node ? handle.node == nullptr : !pdms.valid()) return;
    seconds->push_back(static_cast<double>(end - start) * 1e-9);
  }
}

/// Samples of `setup_s`: runs this binary `processes` times with
/// `--setup-only` (`SetUpSamples`), one after another, and keeps the median
/// set-up of each.
void TimeSetUpsInProcesses(RunContext* ctx, size_t processes, EndToEnd* e2e) {
  char exe[4096];
  const ssize_t length = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (length <= 0) {
    ctx->Fail("cannot resolve /proc/self/exe");
    return;
  }
  std::string quoted = "'";
  for (char c : std::string(exe, static_cast<size_t>(length))) {
    quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  const std::string command =
      quoted + "' --workload " + ctx->spec->name + " --seed " +
      std::to_string(ctx->config->seed) + " --seconds 1 --trace 0 --setup-only";
  for (size_t i = 0; i < processes; ++i) {
    const int64_t start = NowNs();
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
      ctx->Fail("cannot start a set-up process: " +
                std::string(std::strerror(errno)));
      return;
    }
    std::vector<double> seconds;
    double value = 0;
    while (std::fscanf(pipe, "%lf", &value) == 1) seconds.push_back(value);
    const int status = pclose(pipe);
    if (status != 0 || seconds.size() != kSetupRepeats) {
      ctx->Fail("set-up process failed (status " + std::to_string(status) +
                ", " + std::to_string(seconds.size()) + " samples)");
      return;
    }
    e2e->setup_s.push_back(Median(seconds));
    ctx->spans.Add("setup.process", start, NowNs(), -1, seconds.size());
  }
}

/// Median traced round over median untraced round of one alternating pass.
double OverheadRatio(const RoundClock& clock) {
  std::vector<double> traced;
  for (const RoundPhases& phases : clock.phases()) {
    traced.push_back(phases.step_ms);
  }
  const double untraced = Median(clock.untraced_round_ms());
  return untraced > 0 ? Median(traced) / untraced : 0.0;
}

// --- Shared measurement pieces ------------------------------------------------

/// Range and accuracy-floor checks; returns the posteriors checked.
std::vector<double> CheckPosteriors(RunContext* ctx, const Pdms& pdms,
                                    EndToEnd* e2e) {
  std::vector<double> posteriors = AllPosteriors(pdms);
  const std::string range = CheckPosteriorRange(posteriors);
  if (!range.empty()) ctx->Fail(range);
  e2e->accuracy = DetectAccuracy(pdms, ctx->network);
  if (e2e->accuracy < ctx->spec->accuracy_floor) {
    char line[120];
    std::snprintf(line, sizeof(line),
                  "detect_accuracy %.4f is below the floor %.2f",
                  e2e->accuracy, ctx->spec->accuracy_floor);
    ctx->Fail(line);
  }
  return posteriors;
}

bool HasMarkerRow(const pdms::QueryReport& report, PeerId origin) {
  const std::string marker = MarkerValue(origin);
  for (const auto& [peer, row] : report.rows) {
    if (peer != origin) continue;
    for (const std::string& value : row.values) {
      if (value == marker) return true;
    }
  }
  return false;
}

/// In-process queries through `Session::Query` after the inference phase:
/// one untimed warm-up (it also delivers the last round's traffic), then
/// the workload's `session_queries` timed ones from seeded origins.
void RunSessionQueries(RunContext* ctx, Pdms* pdms, uint64_t stream,
                       EndToEnd* e2e, Layers* layers) {
  const size_t count = ctx->spec->session_queries;
  const std::vector<PeerId> origins = QueryOrigins(
      pdms->peer_count(), count + 1, ctx->config->seed * 7919 + stream);
  std::vector<pdms::Query> queries;
  for (PeerId origin : origins) {
    pdms::Result<pdms::Query> query = pdms::ParseQuery(
        MarkerQueryText(*pdms, origin), pdms->peer(origin).schema());
    if (!query.ok()) {
      ctx->Fail("query parse failed: " + query.status().ToString());
      return;
    }
    queries.push_back(std::move(query).value());
  }
  pdms->session().Query(origins[0], queries[0], kQueryTtl);
  const int64_t begin = NowNs();
  double reached = 0;
  for (size_t i = 1; i < origins.size(); ++i) {
    const int64_t start = NowNs();
    const pdms::QueryReport report =
        pdms->session().Query(origins[i], queries[i], kQueryTtl);
    const int64_t end = NowNs();
    ++e2e->queries_offered;
    ++ctx->result->attempted;
    if (HasMarkerRow(report, origins[i])) {
      ++e2e->queries_ok;
      e2e->query_ms.push_back(NsToMs(end - start));
    } else {
      ++ctx->result->failed;
    }
    reached += static_cast<double>(report.reached.size());
  }
  ctx->spans.Add("queries", begin, NowNs(), -1, count);
  if (layers != nullptr) layers->query_reached_mean = reached / count;
}

/// Encode/decode throughput over captured belief bundles.
void TimeCodec(RunContext* ctx, const std::vector<pdms::Payload>& payloads,
               Layers* layers) {
  if (payloads.empty()) {
    ctx->Fail("no belief bundles captured for the codec timing");
    return;
  }
  std::vector<std::vector<uint8_t>> encoded(payloads.size());
  uint64_t bytes = 0;
  uint64_t updates = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    pdms::EncodePayload(payloads[i], &encoded[i]);
    bytes += encoded[i].size();
    updates += std::get<pdms::BeliefMessage>(payloads[i]).update_count();
  }
  constexpr double kMinSeconds = 0.2;
  std::vector<uint8_t> buffer;
  size_t passes = 0;
  int64_t start = NowNs();
  do {
    for (const pdms::Payload& payload : payloads) {
      buffer.clear();
      pdms::EncodePayload(payload, &buffer);
    }
    ++passes;
  } while (SecondsSince(start) < kMinSeconds);
  const double encode_s = SecondsSince(start);
  ctx->spans.Add("codec.encode", start, NowNs(), -1, passes);

  size_t decode_passes = 0;
  start = NowNs();
  do {
    for (const std::vector<uint8_t>& bytes_in : encoded) {
      pdms::Result<pdms::Payload> decoded =
          pdms::DecodePayload(pdms::MessageKind::kBelief, bytes_in);
      if (!decoded.ok()) {
        ctx->Fail("DecodePayload rejected an encoded bundle: " +
                  decoded.status().ToString());
        return;
      }
    }
    ++decode_passes;
  } while (SecondsSince(start) < kMinSeconds);
  const double decode_s = SecondsSince(start);
  ctx->spans.Add("codec.decode", start, NowNs(), -1, decode_passes);

  const double mb = static_cast<double>(bytes) / 1e6;
  layers->codec_encode_mb_per_s = mb * passes / encode_s;
  layers->codec_decode_mb_per_s = mb * decode_passes / decode_s;
  layers->codec_bytes_per_update =
      updates > 0 ? static_cast<double>(bytes) / updates : 0.0;
}

/// Encodes, saves and reloads a snapshot of `pdms`'s engine state under a
/// scratch directory of the run.
void TimeStore(RunContext* ctx, const Pdms& pdms, uint64_t state_epoch,
               uint64_t round, Layers* layers) {
  pdms::NodeSnapshot snapshot;
  snapshot.state_epoch = state_epoch;
  snapshot.round = round;
  snapshot.tick = pdms.transport().now();
  snapshot.engine = pdms.engine().CaptureImage();

  int64_t start = NowNs();
  const std::vector<uint8_t> encoded = pdms::EncodeSnapshot(snapshot);
  layers->store_encode_ms = NsToMs(NowNs() - start);
  layers->store_snapshot_bytes = static_cast<double>(encoded.size());

  const std::string dir = ctx->config->out_dir + "/store-" +
                          std::to_string(static_cast<long>(getpid()));
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    ctx->Fail("cannot create " + dir + ": " + error.message());
    return;
  }
  const pdms::SnapshotStore store(dir, 0);
  start = NowNs();
  const pdms::Status saved = store.Save(snapshot);
  layers->store_save_ms = NsToMs(NowNs() - start);
  ctx->spans.Add("store.save", start, NowNs());
  if (!saved.ok()) {
    ctx->Fail("SnapshotStore::Save failed: " + saved.ToString());
  } else {
    start = NowNs();
    pdms::Result<pdms::NodeSnapshot> loaded = store.Load(state_epoch);
    layers->store_load_ms = NsToMs(NowNs() - start);
    ctx->spans.Add("store.load", start, NowNs());
    if (!loaded.ok() || loaded->round != round) {
      ctx->Fail("SnapshotStore::Load did not return the saved cut");
    }
  }
  std::filesystem::remove_all(dir, error);
}

// --- SimTransport workloads ---------------------------------------------------


void RecordDiscovery(const TransportStats& before, const TransportStats& after,
                     const TransportTally& tally, size_t factors,
                     double rss_before, Layers* layers) {
  const size_t probe = static_cast<size_t>(pdms::MessageKind::kProbe);
  const size_t feedback = static_cast<size_t>(pdms::MessageKind::kFeedback);
  layers->discover_ticks = tally.ticks;
  layers->discover_probe_msgs = after.sent[probe] - before.sent[probe];
  layers->discover_feedback_msgs = after.sent[feedback] - before.sent[feedback];
  layers->discover_bytes = after.bytes_sent - before.bytes_sent;
  layers->discover_factors = factors;
  layers->discover_rss_growth_mb = PeakRssMb() - rss_before;
  layers->discover_drain_ms = NsToMs(static_cast<int64_t>(tally.drain_ns));
  layers->discover_send_ms = NsToMs(static_cast<int64_t>(tally.send_ns));
}

/// Build → marker rows → timed Discover. `layers` needs `*tracer`.
/// Returns an invalid Pdms on failure.
Pdms BuildAndDiscover(RunContext* ctx, TracingTransport** tracer,
                      EndToEnd* e2e, Layers* layers) {
  Pdms pdms = BuildSim(ctx, tracer);
  if (!pdms.valid()) return pdms;
  InsertMarkerRows(&pdms);
  const double rss_before = PeakRssMb();
  if (layers != nullptr) (*tracer)->Take();
  const TransportStats before = pdms.transport().stats();
  const int64_t start = NowNs();
  const size_t factors = pdms.session().Discover();
  const int64_t end = NowNs();
  e2e->discover_s.push_back(static_cast<double>(end - start) * 1e-9);
  ctx->spans.Add("discover", start, end, -1, factors);
  ++ctx->result->attempted;
  if (factors == 0) ctx->Fail("discovery found no factors");
  if (layers != nullptr) {
    RecordDiscovery(before, pdms.transport().stats(), (*tracer)->Take(),
                    factors, rss_before, layers);
  }
  return pdms;
}

/// The inference phase from the current state — Converge to the verdict,
/// or warm-up plus `steps` Steps — then the posterior checks and the
/// in-process queries. Returns the posteriors the inference reached.
std::vector<double> MeasureInference(RunContext* ctx, Pdms* pdms,
                                     Inference inference, size_t steps,
                                     uint64_t block, TracingTransport* tracer,
                                     EndToEnd* e2e, Layers* layers) {
  if (inference == Inference::kFixedSteps) {
    for (size_t i = 0; i < kWarmupSteps; ++i) pdms->session().Step();
  }
  const TransportStats before = pdms->transport().stats();
  const int64_t start = NowNs();
  const char* name = inference == Inference::kConverge ? "converge" : "steps";
  const int64_t span = ctx->spans.Add(name, start, start);
  RoundClock clock(tracer, &ctx->spans, span);
  pdms->session().AddObserver(&clock);
  clock.Start();
  size_t rounds = steps;
  if (inference == Inference::kConverge) {
    const pdms::ConvergenceReport report =
        pdms->session().Converge(kConvergeCap);
    rounds = report.rounds;
    if (!report.converged) {
      ctx->Fail("no converged verdict within " + std::to_string(kConvergeCap) +
                " rounds");
    }
  } else {
    for (size_t i = 0; i < steps; ++i) pdms->session().Step();
  }
  const int64_t end = NowNs();
  pdms->session().RemoveObserver(&clock);
  clock.Stop();
  ctx->spans.Add(std::string(name) + ".total", start, end, span, rounds);
  const TransportStats after = pdms->transport().stats();
  const double seconds = static_cast<double>(end - start) * 1e-9;
  e2e->converge_s.push_back(seconds);
  e2e->rounds += rounds;
  ctx->result->attempted += rounds;
  e2e->round_ms.insert(e2e->round_ms.end(), clock.round_ms().begin(),
                       clock.round_ms().end());
  e2e->wire_bytes += after.bytes_sent - before.bytes_sent;
  e2e->wire_rounds += rounds;
  if (layers != nullptr) {
    layers->rounds = clock.phases();
    layers->overhead_ratio = OverheadRatio(clock);
    layers->wire_rounds = rounds;
    layers->value_bytes = after.value_bytes_sent - before.value_bytes_sent;
    layers->header_bytes = after.header_bytes_sent - before.header_bytes_sent;
    layers->alias_bytes = after.alias_bytes_sent - before.alias_bytes_sent;
    layers->converge_rounds = rounds;
  }
  std::vector<double> posteriors = CheckPosteriors(ctx, *pdms, e2e);
  RunSessionQueries(ctx, pdms, block, e2e, layers);
  return posteriors;
}

void RunSimWorkload(RunContext* ctx, Inference inference) {
  const RunConfig& config = *ctx->config;
  RunResult* result = ctx->result;
  const size_t steps =
      inference == Inference::kFixedSteps
          ? std::max<size_t>(30, static_cast<size_t>(std::lround(
                                     config.seconds * kSteadyStepsPerSecond)))
          : 0;
  if (!config.trace) {
    EndToEnd e2e;
    TimeSetUpsInProcesses(ctx, kSetupProcesses / 2, &e2e);
    Pdms pdms;
    for (size_t i = 0;
         i < ctx->spec->discovery_samples && result->failures.empty(); ++i) {
      pdms = Pdms();  // release the previous network first
      pdms = BuildAndDiscover(ctx, nullptr, &e2e, nullptr);
    }
    if (!result->failures.empty()) return;
    if (inference == Inference::kFixedSteps) {
      MeasureInference(ctx, &pdms, inference, steps, 0, nullptr, &e2e,
                       nullptr);
    } else {
      // Converge again and again from the same discovered state: each
      // block rolls the engine back to it, so every block must repeat the
      // first bit for bit.
      std::vector<double> first;
      uint64_t block = 0;
      do {
        pdms::UndoSession undo = pdms.StartUndoSession();
        const std::vector<double> posteriors = MeasureInference(
            ctx, &pdms, inference, 0, block, nullptr, &e2e, nullptr);
        if (block == 0) {
          first = posteriors;
        } else if (posteriors.size() != first.size() ||
                   std::memcmp(posteriors.data(), first.data(),
                               first.size() * sizeof(double)) != 0) {
          ctx->Fail("Converge from the same state gave different posteriors");
        }
        ++block;
      } while (result->failures.empty() &&
               block < CountFor(config.seconds, kSecondsPerConvergeBlock, 2));
    }
    e2e.peak_rss_mb = PeakRssMb();
    TimeSetUpsInProcesses(ctx, kSetupProcesses - kSetupProcesses / 2, &e2e);
    result->metrics = e2e.Metrics(&result->notes);
    return;
  }
  // Traced run: one traced pass (first, so discovery's RSS growth is
  // measured from a fresh process), then one untraced for the overhead.
  const size_t trace_steps = std::max<size_t>(30, steps / 2);
  Layers layers;
  EndToEnd traced;
  TimeSetUpsInProcesses(ctx, kSetupProcesses, &traced);
  {
    TracingTransport* tracer = nullptr;
    Pdms pdms = BuildAndDiscover(ctx, &tracer, &traced, &layers);
    if (!pdms.valid()) return;
    MeasureInference(ctx, &pdms, inference, trace_steps, 0, tracer, &traced,
                     &layers);
    // One more round with bundle capture feeds the codec timing; the
    // measured state above is final by now.
    tracer->SetCapture(true);
    pdms.session().Step();
    tracer->SetCapture(false);
    TimeCodec(ctx, tracer->TakeCaptured(), &layers);
    TimeStore(ctx, pdms, /*state_epoch=*/1, layers.converge_rounds, &layers);
  }
  traced.peak_rss_mb = PeakRssMb();
  EndToEnd untraced;
  untraced.setup_s = traced.setup_s;
  if (result->failures.empty()) {
    Pdms pdms = BuildAndDiscover(ctx, nullptr, &untraced, nullptr);
    if (!pdms.valid()) return;
    MeasureInference(ctx, &pdms, inference, trace_steps, 0, nullptr,
                     &untraced, nullptr);
  }
  untraced.peak_rss_mb = PeakRssMb();
  std::vector<std::string> ignored;
  result->traced_end_to_end = traced.Metrics(&ignored);
  result->untraced_end_to_end = untraced.Metrics(&result->notes);
  // A query's own work, timed without the decorator on its drains.
  layers.query_exec_us.clear();
  for (double ms : untraced.query_ms) layers.query_exec_us.push_back(ms * 1e3);
  layers.query_ms = untraced.query_ms;
  layers.round_ms = untraced.round_ms;
  result->metrics = layers.Metrics();
}

// --- node-serve -------------------------------------------------------------

/// One open-loop query client: a request is due every 1/rate seconds from
/// `Start`; each is sent when due (or as soon as the previous one returned)
/// and timed from its due time to its response.
class OpenLoopClient {
 public:
  OpenLoopClient(const pdms::PdmsNode& node, std::vector<std::string> texts,
                 uint64_t seed)
      : address_(node.local_address()), texts_(std::move(texts)), rng_(seed) {}

  ~OpenLoopClient() { Stop(); }
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  void Start() {
    start_ns_ = NowNs();
    thread_ = std::thread([this] { Main(); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  struct Outcome {
    bool ok = false;
    int64_t due_ns = 0;
    int64_t end_ns = 0;
    double latency_ms = 0;
    double lag_ms = 0;
    uint64_t reached = 0;
  };
  /// Valid after Stop.
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  /// Requests issued, in order (for replaying the same mix in process).
  const std::vector<pdms::QueryRequestFrame>& requests() const {
    return requests_;
  }

 private:
  void Main() {
    const double interval_ns = 1e9 / kNodeQueriesPerSecond;
    for (uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
      const int64_t due =
          start_ns_ + static_cast<int64_t>(interval_ns * static_cast<double>(i));
      // Sleep to just before the due time, then spin: a timer wake-up can
      // overshoot by a millisecond on a loaded VM, which would be charged
      // to the node.
      const int64_t wait = due - kSpinNs - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      while (NowNs() < due) {
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      pdms::QueryRequestFrame request;
      request.request_id = i + 1;
      request.origin = static_cast<PeerId>(rng_.NextUint64() % texts_.size());
      request.ttl = kQueryTtl;
      request.text = texts_[request.origin];
      Outcome outcome;
      outcome.due_ns = due;
      outcome.lag_ms = NsToMs(NowNs() - due);
      pdms::Result<pdms::QueryResponseFrame> response =
          pdms::PdmsNode::QueryNode(address_, request, kNodeQueryTimeoutMs);
      outcome.end_ns = NowNs();
      outcome.latency_ms = NsToMs(outcome.end_ns - due);
      if (response.ok() && response->ok &&
          response->request_id == request.request_id) {
        outcome.reached = response->reached;
        const std::string marker = MarkerValue(request.origin);
        for (const std::string& row : response->rows) {
          if (row.find(marker) != std::string::npos) outcome.ok = true;
        }
      }
      outcomes_.push_back(outcome);
      requests_.push_back(std::move(request));
    }
  }

  std::string address_;
  std::vector<std::string> texts_;
  pdms::Rng rng_;
  int64_t start_ns_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<Outcome> outcomes_;
  std::vector<pdms::QueryRequestFrame> requests_;
  std::thread thread_;
};

/// Timed `PdmsNode::RunDiscovery`; false (and a recorded failure) when it
/// fails or finds nothing.
bool TimeNodeDiscovery(RunContext* ctx, pdms::PdmsNode* node, EndToEnd* e2e) {
  const int64_t start = NowNs();
  pdms::Result<size_t> replicas = node->RunDiscovery();
  const int64_t end = NowNs();
  ++ctx->result->attempted;
  if (!replicas.ok() || *replicas == 0) {
    ctx->Fail("RunDiscovery failed: " +
              (replicas.ok() ? std::string("no factors")
                             : replicas.status().ToString()));
    return false;
  }
  e2e->discover_s.push_back(static_cast<double>(end - start) * 1e-9);
  ctx->spans.Add("discover", start, end, -1, *replicas);
  return true;
}

/// Set-up → marker rows → RunDiscovery → RunRounds with the open-loop
/// client running. Returns the node's final posteriors (empty on failure).
std::vector<double> RunNodeIteration(RunContext* ctx, uint64_t iteration,
                                     EndToEnd* e2e, Layers* layers) {
  NodeHandle handle = SetUpNode(ctx);
  if (handle.node == nullptr) return {};
  pdms::PdmsNode& node = *handle.node;
  InsertMarkerRows(&node.pdms());
  if (!TimeNodeDiscovery(ctx, &node, e2e)) return {};

  std::vector<std::string> texts;
  for (PeerId p = 0; p < node.pdms().peer_count(); ++p) {
    texts.push_back(MarkerQueryText(node.pdms(), p));
  }
  OpenLoopClient client(node, std::move(texts),
                        ctx->config->seed * 1000003 + iteration);
  handle.rounds->start_queries = [&client] { client.Start(); };
  const TransportStats before_rounds = node.pdms().transport().stats();
  const int64_t rounds_start = NowNs();
  pdms::Result<pdms::ConvergenceReport> report = node.RunRounds();
  const int64_t rounds_end = NowNs();
  client.Stop();
  handle.rounds->start_queries = nullptr;
  const TransportStats after_rounds = node.pdms().transport().stats();
  if (!report.ok()) {
    ctx->Fail("RunRounds failed: " + report.status().ToString());
    return {};
  }
  const int64_t rounds_span =
      ctx->spans.Add("node.rounds", rounds_start, rounds_end, -1,
                     report->rounds);
  if (report->rounds != kNodeRounds) {
    ctx->Fail("RunRounds ran " + std::to_string(report->rounds) +
              " rounds, expected " + std::to_string(kNodeRounds));
  }
  const double inference_s =
      static_cast<double>(rounds_end - rounds_start) * 1e-9;
  e2e->converge_s.push_back(inference_s);
  e2e->rounds += report->rounds;
  ctx->result->attempted += report->rounds;
  std::vector<double> node_round_ms;
  int64_t previous = rounds_start;
  for (int64_t end : handle.rounds->ends) {
    node_round_ms.push_back(NsToMs(end - previous));
    ctx->spans.Add("node.round", previous, end, rounds_span);
    previous = end;
  }
  e2e->round_ms.insert(e2e->round_ms.end(), node_round_ms.begin(),
                       node_round_ms.end());
  const uint64_t round_bytes = after_rounds.bytes_sent - before_rounds.bytes_sent;
  e2e->wire_bytes += round_bytes;
  e2e->wire_rounds += report->rounds;

  std::vector<double> query_ms;
  std::vector<double> lag_ms;
  double reached = 0;
  for (const OpenLoopClient::Outcome& outcome : client.outcomes()) {
    ctx->spans.Add(outcome.ok ? "query" : "query.failed", outcome.due_ns,
                   outcome.end_ns, rounds_span, outcome.reached);
    ++e2e->queries_offered;
    ++ctx->result->attempted;
    lag_ms.push_back(outcome.lag_ms);
    reached += static_cast<double>(outcome.reached);
    if (outcome.ok) {
      ++e2e->queries_ok;
      e2e->query_ms.push_back(outcome.latency_ms);
      query_ms.push_back(outcome.latency_ms);
    } else {
      ++ctx->result->failed;
    }
  }

  CheckPosteriors(ctx, node.pdms(), e2e);

  if (layers != nullptr) {
    layers->node_round_ms = node_round_ms;
    layers->node_startup_round_ms = *std::max_element(
        node_round_ms.begin(),
        node_round_ms.begin() +
            std::min(node_round_ms.size(), kQueryStartRound));
    const size_t belief = static_cast<size_t>(pdms::MessageKind::kBelief);
    layers->node_envelopes_per_round =
        static_cast<double>(after_rounds.sent[belief] -
                            before_rounds.sent[belief]) /
        static_cast<double>(report->rounds);
    layers->node_bytes_per_round =
        static_cast<double>(round_bytes) / static_cast<double>(report->rounds);
    // The same request mix, executed in process against the final
    // snapshot: the query's own work, without waiting.
    for (const pdms::QueryRequestFrame& request : client.requests()) {
      const int64_t start = NowNs();
      const pdms::QueryResponseFrame response =
          node.ExecuteSnapshotQuery(request);
      layers->query_exec_us.push_back(static_cast<double>(NowNs() - start) *
                                      1e-3);
      if (!response.ok) ctx->Fail("ExecuteSnapshotQuery: " + response.error);
    }
    layers->query_ms = query_ms;
    layers->query_wait_ms =
        std::max(0.0, Median(query_ms) - Median(layers->query_exec_us) * 1e-3);
    layers->query_reached_mean =
        client.outcomes().empty() ? 0.0 : reached / client.outcomes().size();
    layers->query_generator_lag_ms = Mean(lag_ms);
    TimeStore(ctx, node.pdms(), node.state_epoch(), report->rounds, layers);
  }
  return AllPosteriors(node.pdms());
}

/// The in-process twin of node-serve: same network and options over
/// SimTransport, `kNodeRounds` Steps. Returns its posteriors.
std::vector<double> RunNodeTwin(RunContext* ctx, bool traced, Layers* layers) {
  TracingTransport* tracer = nullptr;
  EndToEnd discovery;
  Pdms pdms =
      BuildAndDiscover(ctx, traced ? &tracer : nullptr, &discovery, layers);
  if (!pdms.valid()) return {};
  const TransportStats before_rounds = pdms.transport().stats();
  const int64_t start = NowNs();
  const int64_t span = ctx->spans.Add(traced ? "twin.steps.traced"
                                             : "twin.steps",
                                      start, start);
  RoundClock clock(tracer, &ctx->spans, span);
  pdms.session().AddObserver(&clock);
  clock.Start();
  for (size_t i = 0; i < kNodeRounds; ++i) {
    if (tracer != nullptr && i + 1 == kNodeRounds) tracer->SetCapture(true);
    pdms.session().Step();
  }
  pdms.session().RemoveObserver(&clock);
  clock.Stop();
  const TransportStats after_rounds = pdms.transport().stats();
  if (layers != nullptr) {
    tracer->SetCapture(false);
    layers->rounds = clock.phases();
    layers->overhead_ratio = OverheadRatio(clock);
    layers->wire_rounds = kNodeRounds;
    layers->value_bytes =
        after_rounds.value_bytes_sent - before_rounds.value_bytes_sent;
    layers->header_bytes =
        after_rounds.header_bytes_sent - before_rounds.header_bytes_sent;
    layers->alias_bytes =
        after_rounds.alias_bytes_sent - before_rounds.alias_bytes_sent;
    layers->converge_rounds = kNodeRounds;
    TimeCodec(ctx, tracer->TakeCaptured(), layers);
  }
  return AllPosteriors(pdms);
}

void CheckBitwise(RunContext* ctx, const std::vector<double>& node,
                  const std::vector<double>& twin) {
  if (node.size() != twin.size() ||
      std::memcmp(node.data(), twin.data(), node.size() * sizeof(double)) !=
          0) {
    ctx->Fail("node-serve posteriors differ from the in-process run");
  }
}

void RunNodeWorkload(RunContext* ctx) {
  const RunConfig& config = *ctx->config;
  RunResult* result = ctx->result;
  EndToEnd e2e;
  TimeSetUpsInProcesses(ctx, config.trace ? kSetupProcesses
                                          : kSetupProcesses / 2,
                        &e2e);
  if (!result->failures.empty()) return;
  // Extra discovery samples: set-up plus RunDiscovery, torn down.
  for (size_t i = 1; i < ctx->spec->discovery_samples && !config.trace; ++i) {
    NodeHandle handle = SetUpNode(ctx);
    if (handle.node == nullptr || !TimeNodeDiscovery(ctx, handle.node.get(), &e2e)) {
      return;
    }
  }
  Layers layers;
  std::vector<double> traced_twin;
  if (config.trace) {
    // Traced twin first, so discovery's RSS growth is measured from a
    // fresh process.
    traced_twin = RunNodeTwin(ctx, /*traced=*/true, &layers);
  }
  std::vector<std::vector<double>> node_posteriors;
  const size_t iterations =
      config.trace ? 1 : CountFor(config.seconds, kSecondsPerNodeIteration, 1);
  for (uint64_t i = 0; i < iterations && result->failures.empty(); ++i) {
    node_posteriors.push_back(RunNodeIteration(
        ctx, i, &e2e, config.trace && i == 0 ? &layers : nullptr));
  }
  e2e.peak_rss_mb = PeakRssMb();
  if (!result->failures.empty()) return;
  if (!config.trace) {
    TimeSetUpsInProcesses(ctx, kSetupProcesses - kSetupProcesses / 2, &e2e);
  }

  const std::vector<double> twin = RunNodeTwin(ctx, /*traced=*/false, nullptr);
  for (const std::vector<double>& posteriors : node_posteriors) {
    CheckBitwise(ctx, posteriors, twin);
  }
  if (!config.trace) {
    result->metrics = e2e.Metrics(&result->notes);
    return;
  }
  CheckBitwise(ctx, node_posteriors.front(), traced_twin);
  result->untraced_end_to_end = e2e.Metrics(&result->notes);
  layers.round_ms = e2e.round_ms;
  result->notes.push_back(
      "node-serve end-to-end metrics come from the untraced node; tracing "
      "wraps only the in-process twin");
  result->metrics = layers.Metrics();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> list;
    for (const WorkloadSpec& spec : Specs()) list.push_back(spec.name);
    return list;
  }();
  return names;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<double> SetUpSamples(const RunConfig& config) {
  RunResult result;
  RunContext ctx;
  ctx.spec = FindWorkload(config.workload);
  ctx.config = &config;
  ctx.result = &result;
  std::vector<double> seconds;
  if (ctx.spec == nullptr) return seconds;
  ctx.network = MakeNetwork(ctx.spec->peers, ctx.spec->structure_seed,
                            ctx.spec->relabel, config.seed);
  TimeSetUps(&ctx, ctx.spec->name == "node-serve", &seconds);
  if (!result.failures.empty()) seconds.clear();
  return seconds;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  RunContext ctx;
  ctx.spec = FindWorkload(config.workload);
  ctx.config = &config;
  ctx.result = &result;
  if (ctx.spec == nullptr) {
    ctx.Fail("unknown workload " + config.workload);
    return result;
  }
  const int64_t generate_start = NowNs();
  ctx.network = MakeNetwork(ctx.spec->peers, ctx.spec->structure_seed,
                            ctx.spec->relabel, config.seed);
  ctx.spans.Add("generate", generate_start, NowNs());

  if (ctx.spec->name == "node-serve") {
    RunNodeWorkload(&ctx);
  } else if (ctx.spec->name == "longcycle-1k") {
    RunSimWorkload(&ctx, Inference::kConverge);
  } else {
    RunSimWorkload(&ctx, Inference::kFixedSteps);
  }

  std::error_code error;
  std::filesystem::create_directories(config.out_dir, error);
  const std::string path = config.out_dir + "/spans-" + config.workload +
                           "-seed" + std::to_string(config.seed) +
                           (config.trace ? "-traced" : "") + ".jsonl";
  if (error || !ctx.spans.WriteJsonLines(path)) {
    result.notes.push_back("could not write spans to " + path);
  } else {
    result.notes.push_back("spans: " + path);
  }
  return result;
}

}  // namespace pdmsbench
