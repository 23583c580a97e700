// Reproduces Figure 9: relative error of the decentralized iterative
// message passing scheme against a global exact inference process, as the
// length of cycle f1/f2 grows (the Figure 8 construction: peers are
// spliced into the p1 -> p2 mapping one at a time).
//
// Setup per the paper: example graph, ∆ = 0.1, priors at 0.8, feedback
// f1+, f2−, f3−, 10 iterations of the embedded algorithm. The paper
// reports the error biggest for very short cycles and never above 6%.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/fixtures.h"
#include "factor/exact.h"
#include "util/table.h"

namespace pdms {
namespace {

void Run() {
  std::printf("Figure 9 — relative error of loopy vs exact inference\n");
  std::printf("(Figure 8 construction, priors 0.8, delta 0.1, 10 iterations)\n\n");
  TextTable table;
  table.SetHeader({"inserted", "len(f1)", "mean |err| %", "max |err| %",
                   "|err(m24)| %", "mean rel err %"});

  for (size_t inserted = 0; inserted <= 8; ++inserted) {
    EngineOptions options;
    options.default_prior = 0.8;
    options.delta_override = 0.1;
    bench::IntroFixture fixture = bench::MakeIntroFixture(options, inserted);
    bench::InjectPaperFeedback(fixture);
    Pdms& pdms = fixture.pdms;
    for (int round = 0; round < 10; ++round) pdms.session().Step();

    std::vector<MappingVarKey> vars;
    const FactorGraph global = pdms.BuildGlobalFactorGraph(&vars);
    // Primary metric (the paper's): error in probability, in percentage
    // points — |P_loopy − P_exact| · 100. Relative-to-exact error is shown
    // for completeness; it blows up when the exact posterior is small.
    double max_abs = 0.0;
    double sum_abs = 0.0;
    double m24_abs = 0.0;
    double sum_rel = 0.0;
    for (VarId v = 0; v < vars.size(); ++v) {
      Result<Belief> exact = ExactMarginalVariableElimination(global, v);
      if (!exact.ok()) continue;
      const double truth = exact->ProbabilityCorrect();
      const double loopy = pdms.Posterior(vars[v].edge, vars[v].attribute);
      const double abs_err = std::abs(loopy - truth) * 100.0;
      max_abs = std::max(max_abs, abs_err);
      sum_abs += abs_err;
      sum_rel += truth > 0 ? std::abs(loopy - truth) / truth * 100.0 : 0.0;
      if (vars[v].edge == fixture.edges.m24) m24_abs = abs_err;
    }
    const auto n = static_cast<double>(vars.size());
    table.AddRow({StrFormat("%zu", inserted),
                  StrFormat("%zu", 4 + inserted),
                  StrFormat("%.3f", sum_abs / n), StrFormat("%.3f", max_abs),
                  StrFormat("%.3f", m24_abs), StrFormat("%.3f", sum_rel / n)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper: error largest for short cycles, never above 6%%\n");
}

/// The 10-iteration loopy posteriors of the Figure 8 construction, with
/// belief values optionally quantized to the given error budget.
std::vector<double> LoopyPosteriors(size_t inserted, double budget) {
  EngineOptions options;
  options.default_prior = 0.8;
  options.delta_override = 0.1;
  options.value_error_budget = budget;
  bench::IntroFixture fixture = bench::MakeIntroFixture(options, inserted);
  bench::InjectPaperFeedback(fixture);
  for (int round = 0; round < 10; ++round) fixture.pdms.session().Step();
  std::vector<MappingVarKey> vars;
  fixture.pdms.BuildGlobalFactorGraph(&vars);
  std::vector<double> posteriors;
  posteriors.reserve(vars.size());
  for (const MappingVarKey& v : vars) {
    posteriors.push_back(fixture.pdms.Posterior(v.edge, v.attribute));
  }
  return posteriors;
}

/// Quantized rerun of the whole Figure 9 sweep per precision tier: the
/// mid-trajectory posteriors after 10 iterations must stay within the
/// error budget of the raw-double run at every cycle length.
int RunQuantizedTiers() {
  constexpr size_t kMaxInserted = 8;
  std::printf("\nquantized value encoding — 10-iteration posteriors vs "
              "exact wire values\n(worst over inserted = 0..%zu):\n",
              kMaxInserted);
  std::vector<std::vector<double>> exact;
  for (size_t inserted = 0; inserted <= kMaxInserted; ++inserted) {
    exact.push_back(LoopyPosteriors(inserted, 0.0));
  }
  TextTable table;
  table.SetHeader({"error budget", "max |delta|", "within budget"});
  bool ok = true;
  for (double budget : {1e-2, 1e-3, 1e-4}) {
    double worst = 0.0;
    for (size_t inserted = 0; inserted <= kMaxInserted; ++inserted) {
      const std::vector<double> quantized = LoopyPosteriors(inserted, budget);
      for (size_t i = 0; i < quantized.size(); ++i) {
        worst = std::max(worst, std::abs(quantized[i] - exact[inserted][i]));
      }
    }
    const bool within = worst <= budget;
    ok = ok && within;
    table.AddRow({StrFormat("%.0e", budget), StrFormat("%.2e", worst),
                  within ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());
  if (!ok) std::fprintf(stderr, "FAIL: quantized posteriors broke budget\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pdms

int main() {
  pdms::Run();
  return pdms::RunQuantizedTiers();
}
