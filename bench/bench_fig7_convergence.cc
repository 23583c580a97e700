// Reproduces Figure 7: convergence of the iterative (embedded, loopy)
// message passing algorithm on the example factor graph of Figure 4 with
// priors at 0.7, ∆ = 0.1 and feedback f1+, f2−, f3−.
//
// Prints the posterior P(m = correct) of all five mappings after every
// iteration, plus a sweep over random scale-free networks backing the
// Section 5.1.1 claim that convergence takes about ten iterations.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/fixtures.h"
#include "factor/exact.h"
#include "graph/topology.h"
#include "util/stats.h"
#include "util/table.h"

namespace pdms {
namespace {

void RunExampleTrajectory() {
  EngineOptions options;
  options.default_prior = 0.7;
  options.delta_override = 0.1;
  options.tolerance = 1e-7;
  bench::IntroFixture fixture = bench::MakeIntroFixture(options);
  bench::InjectPaperFeedback(fixture);

  Pdms& pdms = fixture.pdms;
  Session& session = pdms.session();
  const topology::ExampleEdges& e = fixture.edges;
  TrajectoryRecorder recorder({MappingVarKey{e.m12, 0}, MappingVarKey{e.m23, 0},
                               MappingVarKey{e.m34, 0}, MappingVarKey{e.m41, 0},
                               MappingVarKey{e.m24, 0}});
  session.AddObserver(&recorder);

  const ConvergenceReport report = session.Converge(30);

  std::printf("Figure 7 — convergence of iterative message passing\n");
  std::printf("(example graph, priors 0.7, delta 0.1, feedback f1+ f2- f3-)\n\n");
  TextTable table;
  table.SetHeader({"iteration", "m12", "m23", "m34", "m41", "m24"});
  const auto& trajectory = recorder.trajectory();
  for (size_t r = 0; r < trajectory.size(); ++r) {
    std::vector<double> row{static_cast<double>(r + 1)};
    row.insert(row.end(), trajectory[r].begin(), trajectory[r].end());
    table.AddNumericRow(row, 4);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("converged=%s after %zu iterations\n\n",
              report.converged ? "yes" : "no", report.rounds);

  // Reference: exact marginals of the same graph.
  std::vector<MappingVarKey> vars;
  const FactorGraph global = pdms.BuildGlobalFactorGraph(&vars);
  std::printf("exact marginals (variable elimination):\n");
  for (VarId v = 0; v < vars.size(); ++v) {
    Result<Belief> exact = ExactMarginalVariableElimination(global, v);
    std::printf("  %-12s exact=%.4f  loopy=%.4f\n",
                vars[v].ToString().c_str(),
                exact.ok() ? exact->ProbabilityCorrect() : -1.0,
                pdms.Posterior(vars[v].edge, vars[v].attribute));
  }
  std::printf("\n");
}

/// Quantized rerun: the same Figure 7 trajectory per precision tier. The
/// adaptive fixed-point log-odds encoding promises converged posteriors
/// within the per-value error budget of the exact run; this asserts it.
int RunQuantizedTiers() {
  auto converged_posteriors = [](double budget) {
    EngineOptions options;
    options.default_prior = 0.7;
    options.delta_override = 0.1;
    // A wire carrying budget-eps values cannot certify a residual finer
    // than its quantization step (coarse budgets settle into a one-quantum
    // limit cycle instead of a 1e-7 fixed point); the accuracy guarantee
    // is on the converged posteriors, asserted below.
    options.tolerance = std::max(1e-7, budget / 8.0);
    options.value_error_budget = budget;
    bench::IntroFixture fixture = bench::MakeIntroFixture(options);
    bench::InjectPaperFeedback(fixture);
    const ConvergenceReport report = fixture.pdms.session().Converge(60);
    const topology::ExampleEdges& e = fixture.edges;
    std::vector<double> posteriors;
    for (EdgeId m : {e.m12, e.m23, e.m34, e.m41, e.m24}) {
      posteriors.push_back(fixture.pdms.Posterior(m, 0));
    }
    posteriors.push_back(report.converged ? 1.0 : 0.0);
    return posteriors;
  };

  const std::vector<double> exact = converged_posteriors(0.0);
  std::printf("quantized value encoding — converged posteriors vs exact "
              "wire values:\n");
  TextTable table;
  table.SetHeader({"error budget", "converged", "max |delta|", "within budget"});
  bool ok = true;
  for (double budget : {1e-2, 1e-3, 1e-4}) {
    const std::vector<double> quantized = converged_posteriors(budget);
    double worst = 0.0;
    for (size_t i = 0; i + 1 < exact.size(); ++i) {
      worst = std::max(worst, std::abs(quantized[i] - exact[i]));
    }
    const bool converged = quantized.back() == 1.0;
    const bool within = converged && worst <= budget;
    ok = ok && within;
    table.AddRow({StrFormat("%.0e", budget), converged ? "yes" : "no",
                  StrFormat("%.2e", worst), within ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());
  if (!ok) std::fprintf(stderr, "FAIL: quantized posteriors broke budget\n");
  return ok ? 0 : 1;
}

void RunConvergenceSweep() {
  std::printf(
      "Section 5.1.1 — iterations to convergence on random scale-free "
      "PDMS\n(BA networks, 10-attribute schemas, 20%% mapping errors, "
      "tolerance 1e-7,\n cycle length capped at 4 per the Section 5.1.2 "
      "guidance for dense graphs)\n\n");
  TextTable table;
  table.SetHeader({"peers", "mappings", "factors", "rounds", "converged"});
  OnlineStats rounds_stats;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Digraph graph = topology::BarabasiAlbert(10 + seed, 2, &rng);
    MappingNetworkOptions network_options;
    network_options.attributes_per_schema = 10;
    network_options.error_rate = 0.2;
    const SyntheticPdms synthetic =
        BuildSyntheticPdms(graph, network_options, &rng);
    EngineOptions options;
    options.probe_ttl = 4;
    options.closure_limits.max_cycle_length = 4;
    options.closure_limits.max_path_length = 3;
    options.tolerance = 1e-2;  // "approximate results" (Section 5.1.1)
    options.damping = 0.25;    // dense evidence graphs oscillate undamped
    Result<Pdms> built =
        PdmsBuilder::FromSynthetic(synthetic).WithOptions(options).Build();
    if (!built.ok()) continue;
    Pdms pdms = std::move(built).value();
    const size_t factors = pdms.session().Discover();
    const ConvergenceReport report = pdms.session().Converge(100);
    rounds_stats.Add(static_cast<double>(report.rounds));
    table.AddRow({StrFormat("%zu", graph.node_count()),
                  StrFormat("%zu", graph.edge_count()),
                  StrFormat("%zu", factors), StrFormat("%zu", report.rounds),
                  report.converged ? "yes" : "no"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("mean rounds to convergence: %.1f (paper: \"ten iterations "
              "usually\")\n",
              rounds_stats.mean());
}

}  // namespace
}  // namespace pdms

int main() {
  pdms::RunExampleTrajectory();
  pdms::RunConvergenceSweep();
  return pdms::RunQuantizedTiers();
}
