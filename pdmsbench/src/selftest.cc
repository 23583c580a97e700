// Self-test of the benchmark's own instruments:
//  1. The tracing decorator is invisible to the system: posteriors with and
//     without it are bitwise equal on a small network, serial and with a
//     4-lane pool.
//  2. The traced phases of steady-10k account for the Step: per round,
//     tick + deliver + compute + send lies within a few percent of the
//     Step's wall time measured around the call, and the transport-call
//     boundaries arrive in order.
//
//   pdms_bench_selftest        (exit 0 = pass)

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "network.h"
#include "tracing.h"
#include "workloads.h"

namespace {

using pdmsbench::TracingTransport;

int failures = 0;

void Expect(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

std::vector<double> SmallRunPosteriors(size_t parallelism, bool traced) {
  pdms::EngineOptions options;
  options.probe_ttl = 3;
  options.closure_limits.min_cycle_length = 2;
  options.closure_limits.max_cycle_length = 3;
  options.closure_limits.max_path_length = 1;
  options.damping = 0.5;
  options.parallelism = parallelism;
  options.min_peers_per_lane = 1;  // fan out even on a small network
  const pdms::SyntheticPdms network = pdmsbench::MakeNetwork(300, 7, true, 11);
  pdms::PdmsBuilder builder = pdms::PdmsBuilder::FromSynthetic(network);
  builder.WithOptions(options);
  TracingTransport* tracer = nullptr;
  if (traced) {
    builder.WithTransport(
        [&tracer](size_t peers, const pdms::EngineOptions& engine) {
          return pdmsbench::MakeTracedSimTransport(peers, engine.network,
                                                   &tracer);
        });
  }
  pdms::Pdms pdms = builder.Build().value();
  pdms.session().Discover();
  pdms.session().Converge(60);
  if (traced && (tracer == nullptr || tracer->Take().send_calls == 0)) {
    return {};  // the decorator was not on the path
  }
  return pdmsbench::AllPosteriors(pdms);
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return !a.empty() && a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void TestDecoratorIsInvisible() {
  const std::vector<double> serial = SmallRunPosteriors(1, false);
  Expect(BitwiseEqual(serial, SmallRunPosteriors(1, true)),
         "traced == untraced posteriors at parallelism 1");
  const std::vector<double> pooled = SmallRunPosteriors(4, false);
  Expect(BitwiseEqual(pooled, SmallRunPosteriors(4, true)),
         "traced == untraced posteriors at parallelism 4");
  Expect(BitwiseEqual(serial, pooled),
         "parallelism 4 == parallelism 1 posteriors");
}

void TestSteadyPhasesSumToStep() {
  const pdmsbench::WorkloadSpec* spec =
      pdmsbench::FindWorkload("steady-10k");
  const pdms::SyntheticPdms network =
      pdmsbench::MakeNetwork(spec->peers, spec->structure_seed, true, 1);
  TracingTransport* tracer = nullptr;
  pdms::Pdms pdms =
      pdms::PdmsBuilder::FromSynthetic(network)
          .WithOptions(spec->options)
          .WithTransport([&tracer](size_t peers,
                                   const pdms::EngineOptions& engine) {
            return pdmsbench::MakeTracedSimTransport(peers, engine.network,
                                                     &tracer);
          })
          .Build()
          .value();
  pdms.session().Discover();
  for (int i = 0; i < 3; ++i) pdms.session().Step();

  pdmsbench::SpanLog spans;
  pdmsbench::RoundClock clock(tracer, &spans, -1);
  pdms.session().AddObserver(&clock);
  clock.Start();
  constexpr int kSteps = 20;
  std::vector<double> step_ms;
  for (int i = 0; i < kSteps; ++i) {
    const int64_t start = pdmsbench::NowNs();
    pdms.session().Step();
    step_ms.push_back(pdmsbench::NsToMs(pdmsbench::NowNs() - start));
  }
  pdms.session().RemoveObserver(&clock);
  clock.Stop();

  // Tracing alternates round by round, starting traced: Step 2k is the
  // k-th traced round.
  bool ordered = true;
  double worst = 0;
  for (int i = 0; i < kSteps; i += 2) {
    const pdmsbench::RoundPhases& p = clock.phases()[i / 2];
    ordered = ordered && p.ordered && p.deliver_ms > 0 && p.compute_ms > 0;
    const double sum = p.tick_ms + p.deliver_ms + p.compute_ms + p.send_ms;
    worst = std::max(worst, std::fabs(sum - step_ms[i]) / step_ms[i]);
  }
  std::printf("     steady-10k: worst |phases - Step| / Step = %.4f over %d "
              "rounds\n",
              worst, kSteps);
  Expect(static_cast<int>(clock.phases().size()) == kSteps / 2,
         "one phase split per traced Step");
  Expect(ordered, "Drain/Send boundaries in order within every round");
  Expect(worst < 0.03, "steady-10k phases sum to the Step wall time (<3%)");
}

}  // namespace

int main() {
  TestDecoratorIsInvisible();
  TestSteadyPhasesSumToStep();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
