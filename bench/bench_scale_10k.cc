// Streaming scale benchmark: how fast does a full inference round go as the
// network grows, and how far does round parallelism carry it?
//
// Builds Barabási–Albert and Erdős–Rényi mapping networks at 1k/5k/10k
// peers (symmetrized, so every mapping has an inverse and length-2 cycles
// provide dense, bounded feedback evidence), discovers closures, then
// measures rounds/sec and bytes moved at parallelism 1/2/4/8. Results are
// emitted both as a console table and as machine-readable BENCH_scale.json,
// so the performance trajectory of this workload is diffable across PRs.
//
// The run doubles as a determinism check: posteriors at every parallelism
// level must match the serial run to 1e-12 (they are in fact bitwise
// identical — see docs/PERFORMANCE.md for why).
//
// BA cells also get exact-wire serial rows at probe TTL 3 and 4 (cycles of
// up to 3 and 4 mappings), the paper's long-cycle regime, whose discovery
// floods are far larger than the 2-cycle rows'. Every row records the probe
// messages its discovery sent.
//
// Each (topology, peers) 2-cycle cell is additionally rerun serially with
// the default adaptive value-error budget (--value-budget, 1e-3 unless
// overridden) so the quantized wire format's bytes/round and posterior
// accuracy delta land in the same JSON; at 10k peers the run fails unless
// quantization cuts bytes/round by at least 4x.
//
// Usage:
//   bench_scale_10k [--smoke] [--out FILE] [--peers a,b,c]
//                   [--parallelism a,b,c] [--rounds N] [--topology ba|er]
//                   [--value-budget EPS] [--no-faults] [--no-adversaries]
//                   [--require-cores=N] [--require-speedup=P:X]
//
// The adversary sweep reruns the BA workload guarded with 0/1/5/10% of
// peers lying per a seeded ByzantinePlan and gates on lying-link demotion
// recall (>= 0.95), honest-subnetwork posterior drift (<= 0.25) and the
// clean run's false-positive demotions (< 1%).
//
// --smoke (CI mode) restricts to 1k peers, parallelism 1/2, 3 measured
// rounds and only the TTL-4 long-cycle row: fast enough for every PR, still
// end-to-end through discovery, parallel rounds, transport accounting and
// the JSON writer. The 200-peer fault sweep runs in full either way.
// --require-cores=N exits 3 up front when the host has fewer than N
// hardware threads (CI guard for the multi-core perf job);
// --require-speedup=P:X fails the run unless the best exact parallelism-P
// row reaches a speedup of at least X over serial.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/topology.h"
#include "net/fault_injection.h"
#include "net/network.h"
#include "pdms/pdms.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"

namespace pdms {
namespace {

constexpr uint64_t kSeed = 2026;
constexpr size_t kAttrs = 6;

struct BenchResult {
  std::string topology;
  size_t peers = 0;
  size_t edges = 0;
  size_t factors = 0;
  /// Probe TTL, also the longest cycle (in mappings) the row discovers.
  uint32_t probe_ttl = 2;
  size_t parallelism = 0;
  size_t rounds = 0;
  /// Per-value error budget of this row (0 = exact raw doubles). Quantized
  /// rows reuse max_posterior_diff_vs_serial as "vs the exact serial run"
  /// and are held to the budget instead of the 1e-12 determinism bar.
  double value_budget = 0.0;
  double discover_seconds = 0.0;
  /// Probe messages sent by `Discover` (deterministic for a workload).
  uint64_t discover_probe_messages = 0;
  /// Process peak RSS (VmHWM) when this row's discovery finished. Rows run
  /// one after another in one process, so this bounds the row's discovery
  /// peak from above.
  double rss_high_water_mb = 0.0;
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  double belief_updates_per_round = 0.0;
  double bytes_per_round = 0.0;
  double key_bytes_per_round = 0.0;
  double alias_bytes_per_round = 0.0;
  double value_bytes_per_round = 0.0;
  double header_bytes_per_round = 0.0;
  double round_seconds_p50 = 0.0;
  double round_seconds_p95 = 0.0;
  double speedup_vs_serial = 1.0;
  double max_posterior_diff_vs_serial = 0.0;
};

/// One point on the robustness curve: a `FaultPlan` applied to the belief
/// rounds (discovery runs fault-free, mirroring Figure 11's setup where
/// only belief messages are lossy), with convergence cost and posterior
/// error vs the fault-free run.
struct FaultRun {
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  size_t rounds = 0;
  bool converged = false;
  double max_posterior_error = 0.0;
  uint64_t events = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
};

/// One point on the Byzantine-resilience curve: a guarded run with a
/// fraction of peers lying per a seeded `ByzantinePlan`, scored on how
/// far honest-subnetwork posteriors drift from the adversary-free guarded
/// run and how precisely misbehaving links are demoted. The fraction-0
/// row is the clean guarded control: its false-positive rate is the
/// "guard does not demote honest traffic" gate.
struct AdversaryRun {
  double byzantine_fraction = 0.0;
  size_t adversary_count = 0;
  size_t rounds = 0;
  bool converged = false;
  /// Max |posterior - clean guarded run| over mappings whose BOTH
  /// endpoints are honest.
  double honest_posterior_delta = 0.0;
  /// Guard links at honest receivers whose neighbor is an adversary.
  size_t lying_links = 0;
  size_t demoted_lying_links = 0;
  double demotion_recall = 1.0;
  /// Guard links at honest receivers whose neighbor is also honest.
  size_t honest_links = 0;
  size_t demoted_honest_links = 0;
  double false_positive_rate = 0.0;
  uint64_t rejected_beliefs = 0;
};

/// Nearest-rank percentile of the (unsorted) per-round wall times.
double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Peak resident set size of this process so far, in MB (0 off Linux).
double RssHighWaterMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

EngineOptions ScaleOptions(size_t parallelism, uint32_t probe_ttl = 2) {
  EngineOptions options;
  // Deliberately keeps the default min_peers_per_lane: the bench measures
  // the engine as shipped, so parallelism-p rows below the fan-out
  // threshold (1k peers at any p, 5k at p=8) run the inline path — their
  // speedup_vs_serial ~= 1.0 is the small-scale fix, not a pool number.
  // Length-2 cycles (a mapping and its inverse) are the evidence unit of
  // this workload: probe two hops, accept 2-cycles, skip parallel paths.
  // Longer TTLs accept every cycle of up to `probe_ttl` mappings.
  options.probe_ttl = probe_ttl;
  options.closure_limits.min_cycle_length = 2;
  options.closure_limits.max_cycle_length = probe_ttl;
  options.closure_limits.max_path_length = 1;
  options.parallelism = parallelism;
  return options;
}

SyntheticPdms BuildWorkload(const std::string& topology, size_t peers) {
  Rng rng(kSeed + peers);
  Digraph graph = topology == "ba"
                      ? topology::BarabasiAlbert(peers, 2, &rng)
                      : topology::ErdosRenyi(peers, 2.0 / peers, &rng);
  topology::Symmetrize(&graph);
  MappingNetworkOptions options;
  options.attributes_per_schema = kAttrs;
  options.error_rate = 0.2;
  return BuildSyntheticPdms(graph, options, &rng);
}

/// Posterior of attribute 0 of every live mapping — the determinism probe.
std::vector<double> SamplePosteriors(const Pdms& pdms) {
  std::vector<double> sample;
  const std::vector<EdgeId> live = pdms.graph().LiveEdges();
  sample.reserve(live.size());
  for (EdgeId e : live) sample.push_back(pdms.Posterior(e, 0));
  return sample;
}

BenchResult RunConfig(const std::string& topology, const SyntheticPdms& workload,
                      size_t parallelism, size_t rounds,
                      const std::vector<double>* serial_sample,
                      std::vector<double>* sample_out,
                      double value_budget = 0.0, uint32_t probe_ttl = 2) {
  BenchResult result;
  result.topology = topology;
  result.peers = workload.graph.node_count();
  result.edges = workload.graph.edge_count();
  result.probe_ttl = probe_ttl;
  result.parallelism = parallelism;
  result.rounds = rounds;
  result.value_budget = value_budget;

  Pdms pdms = PdmsBuilder::FromSynthetic(workload)
                  .WithOptions(ScaleOptions(parallelism, probe_ttl))
                  .WithValueErrorBudget(value_budget)
                  .Build()
                  .value();
  Session& session = pdms.session();

  const auto discover_begin = std::chrono::steady_clock::now();
  result.factors = session.Discover();
  result.discover_seconds =
      Seconds(discover_begin, std::chrono::steady_clock::now());
  result.discover_probe_messages =
      pdms.transport().stats().sent[static_cast<size_t>(MessageKind::kProbe)];
  result.rss_high_water_mb = RssHighWaterMb();

  // Warm-up: the first exchange populates remote messages, and the next
  // two complete the alias negotiation (binding -> ack -> bare-alias), so
  // the measured rounds reflect the steady-state wire format.
  for (int warm = 0; warm < 3; ++warm) session.Step();
  pdms.transport().ResetStats();
  uint64_t updates = 0;
  std::vector<double> round_seconds;
  round_seconds.reserve(rounds);
  const auto begin = std::chrono::steady_clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    const auto round_begin = std::chrono::steady_clock::now();
    updates += session.Step().belief_updates_sent;
    round_seconds.push_back(
        Seconds(round_begin, std::chrono::steady_clock::now()));
  }
  result.seconds = Seconds(begin, std::chrono::steady_clock::now());
  result.rounds_per_sec =
      result.seconds > 0.0 ? static_cast<double>(rounds) / result.seconds : 0.0;
  result.belief_updates_per_round =
      static_cast<double>(updates) / static_cast<double>(rounds);
  result.bytes_per_round =
      static_cast<double>(pdms.transport().stats().bytes_sent) /
      static_cast<double>(rounds);
  result.key_bytes_per_round =
      static_cast<double>(pdms.transport().stats().key_bytes_sent) /
      static_cast<double>(rounds);
  result.alias_bytes_per_round =
      static_cast<double>(pdms.transport().stats().alias_bytes_sent) /
      static_cast<double>(rounds);
  result.value_bytes_per_round =
      static_cast<double>(pdms.transport().stats().value_bytes_sent) /
      static_cast<double>(rounds);
  result.header_bytes_per_round =
      static_cast<double>(pdms.transport().stats().header_bytes_sent) /
      static_cast<double>(rounds);
  result.round_seconds_p50 = Percentile(round_seconds, 0.50);
  result.round_seconds_p95 = Percentile(round_seconds, 0.95);

  *sample_out = SamplePosteriors(pdms);
  if (serial_sample != nullptr) {
    for (size_t i = 0; i < sample_out->size(); ++i) {
      result.max_posterior_diff_vs_serial =
          std::max(result.max_posterior_diff_vs_serial,
                   std::abs((*sample_out)[i] - (*serial_sample)[i]));
    }
  }
  return result;
}

FaultRun RunFaultConfig(const SyntheticPdms& workload, const FaultPlan& plan,
                        size_t max_rounds,
                        const std::vector<double>* reference,
                        std::vector<double>* sample_out) {
  // Serial rounds. The decorator's draws would replay at any parallelism
  // (the engine issues sends in canonical peer order), but the sweep
  // measures fault cost, not the pool.
  Pdms pdms = PdmsBuilder::FromSynthetic(workload)
                  .WithOptions(ScaleOptions(1))
                  .WithTransport([](size_t peer_count, const EngineOptions&) {
                    return std::make_unique<FaultInjectingTransport>(
                        std::make_unique<SimTransport>(peer_count,
                                                       NetworkOptions{}),
                        FaultPlan{});
                  })
                  .Build()
                  .value();
  auto& faulty = static_cast<FaultInjectingTransport&>(pdms.transport());
  Session& session = pdms.session();
  session.Discover();

  // Faults arm right after discovery — every belief round runs under fire,
  // so the rounds column is the full convergence cost of the fault mix.
  faulty.set_plan(plan);
  const ConvergenceReport report = session.Converge(max_rounds);

  FaultRun run;
  run.drop_rate = plan.drop_rate;
  run.duplicate_rate = plan.duplicate_rate;
  run.reorder_rate = plan.reorder_rate;
  run.rounds = report.rounds;
  run.converged = report.converged;
  const FaultStats stats = faulty.fault_stats();
  run.events = stats.events;
  run.dropped = stats.dropped;
  run.duplicated = stats.duplicated;
  run.reordered = stats.reordered;

  const std::vector<double> sample = SamplePosteriors(pdms);
  if (reference != nullptr) {
    for (size_t i = 0; i < sample.size(); ++i) {
      run.max_posterior_error = std::max(
          run.max_posterior_error, std::abs(sample[i] - (*reference)[i]));
    }
  }
  if (sample_out != nullptr) *sample_out = sample;
  return run;
}

/// Figure-11-style sweep: drop × duplicate × reorder over a small BA
/// network. Faults here are engine-visible (a dropped belief is gone), so
/// the curve measures convergence cost and residual posterior error — the
/// complement of the socket layer's bitwise-identical guarantee. The full
/// 27-row sweep takes seconds, so smoke runs keep it: CI then re-checks
/// exactly the checked-in rows (bench_compare's converged-error gate).
std::vector<FaultRun> RunFaultSweep() {
  constexpr size_t kFaultPeers = 200;
  constexpr size_t kFaultMaxRounds = 400;
  const std::vector<double> rates = {0.0, 0.15, 0.3};

  const SyntheticPdms workload = BuildWorkload("ba", kFaultPeers);
  std::vector<double> reference;
  std::vector<FaultRun> runs;
  uint64_t index = 0;
  std::printf("\nfault sweep (ba n=%zu, faults on belief rounds only):\n",
              kFaultPeers);
  TextTable table;
  table.SetHeader({"drop", "dup", "reorder", "rounds", "converged",
                   "max |err| vs clean", "injected"});
  for (double drop : rates) {
    for (double duplicate : rates) {
      for (double reorder : rates) {
        FaultPlan plan;
        plan.seed = kSeed * 1000 + index++;
        plan.drop_rate = drop;
        plan.duplicate_rate = duplicate;
        plan.reorder_rate = reorder;
        const bool is_clean = !plan.Enabled();
        FaultRun run = RunFaultConfig(workload, plan, kFaultMaxRounds,
                                      is_clean ? nullptr : &reference,
                                      is_clean ? &reference : nullptr);
        table.AddRow(
            {StrFormat("%.2f", run.drop_rate),
             StrFormat("%.2f", run.duplicate_rate),
             StrFormat("%.2f", run.reorder_rate),
             StrFormat("%zu", run.rounds), run.converged ? "yes" : "no",
             StrFormat("%.2e", run.max_posterior_error),
             StrFormat("%llu/%llu/%llu",
                       static_cast<unsigned long long>(run.dropped),
                       static_cast<unsigned long long>(run.duplicated),
                       static_cast<unsigned long long>(run.reordered))});
        runs.push_back(run);
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return runs;
}

/// Every `count`-th peer, spread across the id space: deterministic, and
/// at the fractions used here (<= 10%) the stride is >= 10 so the picks
/// are distinct.
std::vector<PeerId> PickAdversaries(size_t peers, size_t count) {
  std::vector<PeerId> adversaries;
  adversaries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    adversaries.push_back(static_cast<PeerId>(i * peers / count));
  }
  return adversaries;
}

AdversaryRun RunAdversaryConfig(const SyntheticPdms& workload,
                                const ByzantinePlan& plan, size_t max_rounds,
                                const std::vector<double>* reference,
                                std::vector<double>* sample_out) {
  ByzantineGuardOptions guard;
  guard.enabled = true;
  Pdms pdms = PdmsBuilder::FromSynthetic(workload)
                  .WithOptions(ScaleOptions(1))
                  .WithByzantineGuard(guard)
                  .WithByzantinePlan(plan)
                  .Build()
                  .value();
  Session& session = pdms.session();
  session.Discover();
  const ConvergenceReport report = session.Converge(max_rounds);

  AdversaryRun run;
  run.adversary_count = plan.adversaries.size();
  run.byzantine_fraction =
      static_cast<double>(plan.adversaries.size()) /
      static_cast<double>(workload.graph.node_count());
  run.rounds = report.rounds;
  run.converged = report.converged;
  run.rejected_beliefs = pdms.engine().GuardRejectedBeliefs();

  const auto is_adversary = [&plan](PeerId peer) {
    return std::binary_search(plan.adversaries.begin(), plan.adversaries.end(),
                              peer);
  };
  // Honest-subnetwork accuracy: mappings with both endpoints honest,
  // against the adversary-free guarded run.
  const std::vector<double> sample = SamplePosteriors(pdms);
  if (reference != nullptr) {
    const std::vector<EdgeId> live = pdms.graph().LiveEdges();
    for (size_t i = 0; i < live.size(); ++i) {
      const Edge& edge = pdms.graph().edge(live[i]);
      if (is_adversary(edge.src) || is_adversary(edge.dst)) continue;
      run.honest_posterior_delta = std::max(
          run.honest_posterior_delta, std::abs(sample[i] - (*reference)[i]));
    }
  }
  if (sample_out != nullptr) *sample_out = sample;

  // Demotion precision/recall over honest receivers' guard links.
  const size_t peers = workload.graph.node_count();
  for (PeerId p = 0; p < peers; ++p) {
    if (is_adversary(p)) continue;
    for (const Peer::GuardLinkView& view : pdms.peer(p).GuardViews()) {
      const bool demoted = view.demote_level >= 1;
      if (is_adversary(view.peer)) {
        ++run.lying_links;
        if (demoted) ++run.demoted_lying_links;
      } else {
        ++run.honest_links;
        if (demoted) ++run.demoted_honest_links;
      }
    }
  }
  run.demotion_recall =
      run.lying_links > 0 ? static_cast<double>(run.demoted_lying_links) /
                                static_cast<double>(run.lying_links)
                          : 1.0;
  run.false_positive_rate =
      run.honest_links > 0 ? static_cast<double>(run.demoted_honest_links) /
                                 static_cast<double>(run.honest_links)
                           : 0.0;
  return run;
}

/// Byzantine sweep: guarded runs at 0 / 1 / 5 / 10% lying peers. The
/// fraction-0 control doubles as the false-positive gate; the adversary
/// rows gate demotion recall and honest-subnetwork accuracy.
std::vector<AdversaryRun> RunAdversarySweep(bool smoke) {
  const size_t peers = smoke ? 200 : 10000;
  const size_t max_rounds = smoke ? 80 : 120;
  const std::vector<double> fractions = {0.01, 0.05, 0.10};

  const SyntheticPdms workload = BuildWorkload("ba", peers);
  std::printf("\nadversary sweep (ba n=%zu, guarded, seeded lying peers):\n",
              peers);
  std::vector<AdversaryRun> runs;
  std::vector<double> reference;

  ByzantinePlan clean;
  runs.push_back(
      RunAdversaryConfig(workload, clean, max_rounds, nullptr, &reference));

  uint64_t index = 0;
  for (double fraction : fractions) {
    ByzantinePlan plan;
    plan.seed = kSeed * 77 + index++;
    plan.lie_probability = 0.5;
    plan.invert_values = true;
    plan.equivocate_rate = 0.2;
    plan.adversaries = PickAdversaries(
        peers, std::max<size_t>(1, static_cast<size_t>(
                                       static_cast<double>(peers) * fraction)));
    runs.push_back(
        RunAdversaryConfig(workload, plan, max_rounds, &reference, nullptr));
  }

  TextTable table;
  table.SetHeader({"byzantine", "rounds", "converged", "honest |err|",
                   "recall", "false pos", "rejected"});
  for (const AdversaryRun& run : runs) {
    table.AddRow({StrFormat("%.0f%%", run.byzantine_fraction * 100.0),
                  StrFormat("%zu", run.rounds), run.converged ? "yes" : "no",
                  StrFormat("%.2e", run.honest_posterior_delta),
                  StrFormat("%zu/%zu", run.demoted_lying_links,
                            run.lying_links),
                  StrFormat("%.2f%%", run.false_positive_rate * 100.0),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        run.rejected_beliefs))});
  }
  std::printf("%s\n", table.ToString().c_str());
  return runs;
}

void WriteJson(const std::string& path, const std::vector<BenchResult>& results,
               const std::vector<FaultRun>& fault_runs,
               const std::vector<AdversaryRun>& adversary_runs, bool smoke) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"scale_10k\",\n");
  // v7: + probe_ttl / discover_probe_messages / rss_high_water_mb; BA
  //     cells add exact serial rows at probe_ttl 3 and 4 (cycles of up to
  //     3 and 4 mappings), matched on probe_ttl by tools/bench_compare.py.
  // v6: + adversary_runs — guarded runs under seeded Byzantine plans
  //     (lying / equivocating peers), scored on honest-subnetwork
  //     posterior drift, lying-link demotion recall and the clean-run
  //     false-positive rate.
  // v5: + value_budget / value_bytes_per_round / header_bytes_per_round —
  //     quantized config rows (value_budget > 0) carry adaptive fixed-point
  //     log-odds values; their max_posterior_diff_vs_serial is measured
  //     against the exact serial run instead of the determinism bar.
  // v4: + fault_runs — drop × duplicate × reorder robustness sweep
  //     (engine-visible faults on belief rounds; convergence cost and
  //     residual posterior error vs the fault-free run).
  // v3: + alias_bytes_per_round (belief-bundle alias/header overhead);
  //     key_bytes_per_round now counts only unacked binding declarations
  //     (the session-alias wire format), and measured rounds start after
  //     the 3-step negotiation warm-up.
  // v2: + key_bytes_per_round (FactorId fingerprint bytes on the wire)
  //     + round_seconds_p50 / round_seconds_p95 per-round latency.
  std::fprintf(out, "  \"schema_version\": 7,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(out, "  \"attributes_per_schema\": %zu,\n", kAttrs);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(
        out,
        "    {\"topology\": \"%s\", \"peers\": %zu, \"edges\": %zu, "
        "\"factors\": %zu, \"probe_ttl\": %u, \"parallelism\": %zu, "
        "\"rounds\": %zu, \"value_budget\": %.1e, "
        "\"discover_seconds\": %.6f, \"discover_probe_messages\": %llu, "
        "\"rss_high_water_mb\": %.1f, \"seconds\": %.6f, "
        "\"rounds_per_sec\": %.3f, \"belief_updates_per_round\": %.1f, "
        "\"bytes_per_round\": %.1f, \"key_bytes_per_round\": %.1f, "
        "\"alias_bytes_per_round\": %.1f, \"value_bytes_per_round\": %.1f, "
        "\"header_bytes_per_round\": %.1f, "
        "\"round_seconds_p50\": %.6f, \"round_seconds_p95\": %.6f, "
        "\"speedup_vs_serial\": %.3f, "
        "\"max_posterior_diff_vs_serial\": %.3e}%s\n",
        r.topology.c_str(), r.peers, r.edges, r.factors, r.probe_ttl,
        r.parallelism, r.rounds, r.value_budget, r.discover_seconds,
        static_cast<unsigned long long>(r.discover_probe_messages),
        r.rss_high_water_mb, r.seconds,
        r.rounds_per_sec, r.belief_updates_per_round, r.bytes_per_round,
        r.key_bytes_per_round, r.alias_bytes_per_round,
        r.value_bytes_per_round, r.header_bytes_per_round,
        r.round_seconds_p50, r.round_seconds_p95, r.speedup_vs_serial,
        r.max_posterior_diff_vs_serial, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"fault_runs\": [\n");
  for (size_t i = 0; i < fault_runs.size(); ++i) {
    const FaultRun& r = fault_runs[i];
    std::fprintf(
        out,
        "    {\"drop_rate\": %.2f, \"duplicate_rate\": %.2f, "
        "\"reorder_rate\": %.2f, \"rounds\": %zu, \"converged\": %s, "
        "\"max_posterior_error\": %.3e, \"events\": %llu, "
        "\"dropped\": %llu, \"duplicated\": %llu, \"reordered\": %llu}%s\n",
        r.drop_rate, r.duplicate_rate, r.reorder_rate, r.rounds,
        r.converged ? "true" : "false", r.max_posterior_error,
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.duplicated),
        static_cast<unsigned long long>(r.reordered),
        i + 1 < fault_runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"adversary_runs\": [\n");
  for (size_t i = 0; i < adversary_runs.size(); ++i) {
    const AdversaryRun& r = adversary_runs[i];
    std::fprintf(
        out,
        "    {\"byzantine_fraction\": %.4f, \"adversary_count\": %zu, "
        "\"rounds\": %zu, \"converged\": %s, "
        "\"honest_posterior_delta\": %.3e, "
        "\"lying_links\": %zu, \"demoted_lying_links\": %zu, "
        "\"demotion_recall\": %.4f, "
        "\"honest_links\": %zu, \"demoted_honest_links\": %zu, "
        "\"false_positive_rate\": %.4f, \"rejected_beliefs\": %llu}%s\n",
        r.byzantine_fraction, r.adversary_count, r.rounds,
        r.converged ? "true" : "false", r.honest_posterior_delta,
        r.lying_links, r.demoted_lying_links, r.demotion_recall,
        r.honest_links, r.demoted_honest_links, r.false_positive_rate,
        static_cast<unsigned long long>(r.rejected_beliefs),
        i + 1 < adversary_runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

std::vector<size_t> ParseSizeList(const char* text) {
  std::vector<size_t> values;
  size_t value = 0;
  bool have_digit = false;
  for (const char* c = text;; ++c) {
    if (*c >= '0' && *c <= '9') {
      value = value * 10 + static_cast<size_t>(*c - '0');
      have_digit = true;
    } else if (*c == ',' || *c == '\0') {
      if (have_digit) values.push_back(value);
      value = 0;
      have_digit = false;
      if (*c == '\0') break;
    }
  }
  return values;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  std::vector<size_t> peer_counts = {1000, 5000, 10000};
  std::vector<size_t> parallelism_levels = {1, 2, 4, 8};
  std::vector<std::string> topologies = {"ba", "er"};
  std::vector<uint32_t> long_cycle_ttls = {3, 4};
  size_t rounds = 10;
  bool run_faults = true;
  bool run_adversaries = true;
  size_t require_cores = 0;
  size_t speedup_parallelism = 0;
  double speedup_floor = 0.0;
  double value_budget = 1e-3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    // Rejects flags whose value is missing or contains no digits instead
    // of crashing on an empty list downstream.
    auto next_list = [&](const char* flag) {
      const std::vector<size_t> values = ParseSizeList(next());
      if (values.empty()) {
        std::fprintf(stderr, "%s needs a comma-separated number list\n", flag);
        std::exit(2);
      }
      return values;
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--no-faults") {
      run_faults = false;
    } else if (arg == "--no-adversaries") {
      run_adversaries = false;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--peers") {
      peer_counts = next_list("--peers");
    } else if (arg == "--parallelism") {
      parallelism_levels = next_list("--parallelism");
    } else if (arg == "--rounds") {
      rounds = next_list("--rounds").front();
    } else if (arg == "--topology") {
      topologies = {next()};
    } else if (arg.rfind("--require-cores=", 0) == 0) {
      require_cores = ParseSizeList(arg.c_str() + 16).front();
    } else if (arg == "--require-cores") {
      require_cores = next_list("--require-cores").front();
    } else if (arg.rfind("--require-speedup=", 0) == 0 ||
               arg == "--require-speedup") {
      // P:X — the best parallelism-P row must reach a speedup of at least X.
      const std::string spec =
          arg[17] == '=' ? arg.substr(18) : std::string(next());
      const size_t colon = spec.find(':');
      if (colon != std::string::npos) {
        const std::vector<size_t> par =
            ParseSizeList(spec.substr(0, colon).c_str());
        if (!par.empty()) speedup_parallelism = par.front();
        speedup_floor = std::strtod(spec.c_str() + colon + 1, nullptr);
      }
      if (speedup_parallelism == 0 || speedup_floor <= 0.0) {
        std::fprintf(stderr, "--require-speedup needs P:X (e.g. 4:1.2)\n");
        return 2;
      }
    } else if (arg.rfind("--value-budget=", 0) == 0) {
      value_budget = std::strtod(arg.c_str() + 15, nullptr);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (require_cores > 0) {
    const size_t cores = std::thread::hardware_concurrency();
    if (cores < require_cores) {
      std::fprintf(stderr,
                   "FAIL: need %zu hardware threads for a meaningful "
                   "multi-core run, found %zu\n",
                   require_cores, cores);
      return 3;
    }
  }
  if (smoke) {
    peer_counts = {1000};
    parallelism_levels = {1, 2};
    long_cycle_ttls = {4};
    rounds = 3;
  }

  std::printf("scale bench: peers up to %zu, %zu measured rounds per config\n\n",
              peer_counts.back(), rounds);
  std::vector<BenchResult> results;
  bool deterministic = true;
  bool wire_reduction_ok = true;
  for (const std::string& topology : topologies) {
    for (size_t peers : peer_counts) {
      const SyntheticPdms workload = BuildWorkload(topology, peers);
      std::vector<double> serial_sample;
      double serial_rate = 0.0;
      double serial_bytes = 0.0;
      for (size_t parallelism : parallelism_levels) {
        std::vector<double> sample;
        BenchResult result = RunConfig(
            topology, workload, parallelism, rounds,
            parallelism == parallelism_levels.front() ? nullptr
                                                      : &serial_sample,
            &sample);
        if (parallelism == parallelism_levels.front()) {
          serial_sample = std::move(sample);
          serial_rate = result.rounds_per_sec;
          serial_bytes = result.bytes_per_round;
        }
        result.speedup_vs_serial =
            serial_rate > 0.0 ? result.rounds_per_sec / serial_rate : 1.0;
        if (result.max_posterior_diff_vs_serial > 1e-12) deterministic = false;
        std::printf(
            "%s n=%-6zu edges=%-6zu factors=%-7zu p=%zu  %8.2f rounds/s  "
            "(x%.2f vs serial)  %.1f MB/round (%.1f%% key, %.1f%% alias hdr)  "
            "p50/p95=%.1f/%.1f ms  max|Δposterior|=%.1e\n",
            topology.c_str(), result.peers, result.edges, result.factors,
            result.parallelism, result.rounds_per_sec,
            result.speedup_vs_serial, result.bytes_per_round / 1e6,
            result.bytes_per_round > 0.0
                ? 100.0 * result.key_bytes_per_round / result.bytes_per_round
                : 0.0,
            result.bytes_per_round > 0.0
                ? 100.0 * result.alias_bytes_per_round / result.bytes_per_round
                : 0.0,
            result.round_seconds_p50 * 1e3, result.round_seconds_p95 * 1e3,
            result.max_posterior_diff_vs_serial);
        results.push_back(std::move(result));
      }

      // Quantized rerun: same workload and round budget, serial, with the
      // default adaptive error budget. Its posterior diff is measured
      // against the exact serial run (an accuracy delta, not a determinism
      // check); the wire reduction is gated at full scale.
      if (value_budget > 0.0) {
        std::vector<double> quantized_sample;
        BenchResult quantized = RunConfig(topology, workload, 1, rounds,
                                          &serial_sample, &quantized_sample,
                                          value_budget);
        quantized.speedup_vs_serial =
            serial_rate > 0.0 ? quantized.rounds_per_sec / serial_rate : 1.0;
        const double reduction =
            quantized.bytes_per_round > 0.0
                ? serial_bytes / quantized.bytes_per_round
                : 0.0;
        std::printf(
            "%s n=%-6zu quantized eps=%.0e p=1  %8.2f rounds/s  "
            "%.1f MB/round (%.1f%% values)  x%.2f wire reduction  "
            "max|Δposterior|=%.1e\n",
            topology.c_str(), quantized.peers, quantized.value_budget,
            quantized.rounds_per_sec, quantized.bytes_per_round / 1e6,
            quantized.bytes_per_round > 0.0
                ? 100.0 * quantized.value_bytes_per_round /
                      quantized.bytes_per_round
                : 0.0,
            reduction, quantized.max_posterior_diff_vs_serial);
        if (peers >= 10000 && reduction < 4.0) {
          std::fprintf(stderr,
                       "FAIL: %s n=%zu quantized wire reduction x%.2f "
                       "< x4.00 target\n",
                       topology.c_str(), peers, reduction);
          wire_reduction_ok = false;
        }
        results.push_back(std::move(quantized));
      }

      // Long-cycle rows: exact wire, serial, BA only.
      if (topology != "ba") continue;
      for (uint32_t ttl : long_cycle_ttls) {
        std::vector<double> sample;
        BenchResult result = RunConfig(topology, workload, 1, rounds, nullptr,
                                       &sample, 0.0, ttl);
        std::printf(
            "%s n=%-6zu cycles<=%u factors=%-7zu p=1  discover %.2f s, "
            "%llu probes, rss hwm %.0f MB  %8.2f rounds/s  %.1f MB/round\n",
            topology.c_str(), result.peers, ttl, result.factors,
            result.discover_seconds,
            static_cast<unsigned long long>(result.discover_probe_messages),
            result.rss_high_water_mb, result.rounds_per_sec,
            result.bytes_per_round / 1e6);
        results.push_back(std::move(result));
      }
    }
  }

  const std::vector<FaultRun> fault_runs =
      run_faults ? RunFaultSweep() : std::vector<FaultRun>{};
  const std::vector<AdversaryRun> adversary_runs =
      run_adversaries ? RunAdversarySweep(smoke) : std::vector<AdversaryRun>{};
  WriteJson(out_path, results, fault_runs, adversary_runs, smoke);

  bool adversaries_ok = true;
  for (const AdversaryRun& run : adversary_runs) {
    if (run.adversary_count == 0) {
      // The clean guarded control: the guard must not demote honest
      // traffic (< 1% of honest links) nor reject any belief.
      if (run.false_positive_rate >= 0.01) {
        std::fprintf(stderr,
                     "FAIL: clean guarded run demoted %.2f%% of honest links "
                     "(>= 1%% budget)\n",
                     run.false_positive_rate * 100.0);
        adversaries_ok = false;
      }
      continue;
    }
    if (run.demotion_recall < 0.95) {
      std::fprintf(stderr,
                   "FAIL: %.0f%% byzantine run demoted only %zu/%zu lying "
                   "links (recall %.2f < 0.95)\n",
                   run.byzantine_fraction * 100.0, run.demoted_lying_links,
                   run.lying_links, run.demotion_recall);
      adversaries_ok = false;
    }
    if (run.honest_posterior_delta > 0.25) {
      std::fprintf(stderr,
                   "FAIL: %.0f%% byzantine run drifted honest posteriors by "
                   "%.3f (> 0.25)\n",
                   run.byzantine_fraction * 100.0, run.honest_posterior_delta);
      adversaries_ok = false;
    }
  }
  if (!adversary_runs.empty() && adversaries_ok) {
    std::printf("adversary guard: recall >= 0.95, honest drift <= 0.25, "
                "clean false positives < 1%%\n");
  }

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: parallel posteriors diverged from serial (> 1e-12)\n");
    return 1;
  }
  std::printf("determinism: all parallel runs matched serial posteriors "
              "(<= 1e-12)\n");
  if (!wire_reduction_ok || !adversaries_ok) return 1;
  if (speedup_parallelism > 0) {
    double best = 0.0;
    for (const BenchResult& r : results) {
      if (r.parallelism == speedup_parallelism && r.value_budget == 0.0) {
        best = std::max(best, r.speedup_vs_serial);
      }
    }
    if (best < speedup_floor) {
      std::fprintf(stderr,
                   "FAIL: best parallelism-%zu speedup x%.2f < x%.2f floor\n",
                   speedup_parallelism, best, speedup_floor);
      return 1;
    }
    std::printf("speedup guard: parallelism-%zu reached x%.2f (floor x%.2f)\n",
                speedup_parallelism, best, speedup_floor);
  }
  return 0;
}

}  // namespace
}  // namespace pdms

int main(int argc, char** argv) { return pdms::Main(argc, argv); }
