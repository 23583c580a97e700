#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "factor/belief.h"
#include "factor/exact.h"
#include "factor/factor.h"
#include "factor/factor_graph.h"
#include "factor/sum_product.h"
#include "graph/closure.h"
#include "graph/digraph.h"
#include "graph/topology.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

// --- Belief -----------------------------------------------------------------

TEST(BeliefTest, NormalizeAndProbability) {
  Belief b{2.0, 6.0};
  const Belief n = b.Normalized();
  EXPECT_DOUBLE_EQ(n.correct, 0.25);
  EXPECT_DOUBLE_EQ(n.incorrect, 0.75);
  EXPECT_DOUBLE_EQ(b.ProbabilityCorrect(), 0.25);
}

TEST(BeliefTest, ZeroBeliefNormalizesToUniform) {
  Belief zero{0.0, 0.0};
  const Belief n = zero.Normalized();
  EXPECT_DOUBLE_EQ(n.correct, 0.5);
  EXPECT_DOUBLE_EQ(n.incorrect, 0.5);
}

TEST(BeliefTest, ProductCombinesEvidence) {
  const Belief a = Belief::FromProbability(0.8);
  const Belief b = Belief::FromProbability(0.8);
  // Two independent 0.8 evidences: 0.64 / (0.64 + 0.04) = 16/17.
  EXPECT_NEAR((a * b).ProbabilityCorrect(), 16.0 / 17.0, 1e-12);
}

TEST(BeliefTest, RescalePreservesRatio) {
  Belief b{1e-200, 3e-200};
  const Belief r = b.Rescaled();
  EXPECT_DOUBLE_EQ(r.incorrect, 1.0);
  EXPECT_NEAR(r.ProbabilityCorrect(), b.ProbabilityCorrect(), 1e-12);
}

TEST(BeliefTest, DampedTowardInterpolates) {
  const Belief old_belief = Belief::FromProbability(0.0);
  const Belief target = Belief::FromProbability(1.0);
  const Belief damped = old_belief.DampedToward(target, 0.25);
  EXPECT_NEAR(damped.ProbabilityCorrect(), 0.25, 1e-12);
}

// --- CycleFeedbackFactor ----------------------------------------------------

TEST(CycleFeedbackFactorTest, ValueRegimes) {
  CycleFeedbackFactor positive({0, 1, 2}, /*positive=*/true, /*delta=*/0.1);
  EXPECT_DOUBLE_EQ(positive.ValueForIncorrectCount(0), 1.0);
  EXPECT_DOUBLE_EQ(positive.ValueForIncorrectCount(1), 0.0);
  EXPECT_DOUBLE_EQ(positive.ValueForIncorrectCount(2), 0.1);
  EXPECT_DOUBLE_EQ(positive.ValueForIncorrectCount(3), 0.1);

  CycleFeedbackFactor negative({0, 1, 2}, /*positive=*/false, /*delta=*/0.1);
  EXPECT_DOUBLE_EQ(negative.ValueForIncorrectCount(0), 0.0);
  EXPECT_DOUBLE_EQ(negative.ValueForIncorrectCount(1), 1.0);
  EXPECT_DOUBLE_EQ(negative.ValueForIncorrectCount(2), 0.9);
}

TEST(CycleFeedbackFactorTest, EvaluateCountsIncorrect) {
  CycleFeedbackFactor factor({0, 1, 2, 3}, /*positive=*/true, /*delta=*/0.2);
  EXPECT_DOUBLE_EQ(factor.Evaluate({true, true, true, true}), 1.0);
  EXPECT_DOUBLE_EQ(factor.Evaluate({true, false, true, true}), 0.0);
  EXPECT_DOUBLE_EQ(factor.Evaluate({false, false, true, true}), 0.2);
  EXPECT_DOUBLE_EQ(factor.Evaluate({false, false, false, false}), 0.2);
}

/// Property check: the O(n) structured message must match the O(2^n) dense
/// table message for random incoming beliefs, any arity, both signs.
class CycleFactorMessageEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, bool, double>> {};

TEST_P(CycleFactorMessageEquivalence, MatchesDenseTable) {
  const auto [arity, positive, delta] = GetParam();
  std::vector<VarId> vars(arity);
  for (size_t i = 0; i < arity; ++i) vars[i] = static_cast<VarId>(i);
  CycleFeedbackFactor structured(vars, positive, delta);
  const auto dense = TableFactor::FromFactor(structured);

  Rng rng(1000 + arity * 7 + (positive ? 1 : 0));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Belief> incoming(arity);
    for (auto& b : incoming) {
      b = Belief{rng.NextDouble(), rng.NextDouble()};
    }
    for (size_t position = 0; position < arity; ++position) {
      const Belief fast = structured.MessageTo(position, incoming);
      const Belief slow = dense->MessageTo(position, incoming);
      EXPECT_NEAR(fast.correct, slow.correct, 1e-12);
      EXPECT_NEAR(fast.incorrect, slow.incorrect, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AritySweep, CycleFactorMessageEquivalence,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 4, 5, 8, 12),
                       ::testing::Bool(),
                       ::testing::Values(0.01, 0.1, 0.5)));

// --- TableFactor ------------------------------------------------------------

TEST(TableFactorTest, CreateValidatesShape) {
  EXPECT_FALSE(TableFactor::Create({0, 1}, {1.0, 2.0}).ok());
  EXPECT_FALSE(TableFactor::Create({0}, {1.0, -2.0}).ok());
  EXPECT_TRUE(TableFactor::Create({0, 1}, {1.0, 2.0, 3.0, 4.0}).ok());
}

TEST(TableFactorTest, EvaluateUsesBitOrder) {
  auto factor = std::move(TableFactor::Create({0, 1}, {0.0, 1.0, 2.0, 3.0})).value();
  // Row index bit i = variables()[i]; bit0 = first variable.
  EXPECT_DOUBLE_EQ(factor->Evaluate({false, false}), 0.0);
  EXPECT_DOUBLE_EQ(factor->Evaluate({true, false}), 1.0);
  EXPECT_DOUBLE_EQ(factor->Evaluate({false, true}), 2.0);
  EXPECT_DOUBLE_EQ(factor->Evaluate({true, true}), 3.0);
}

TEST(PriorFactorTest, MessageIsPrior) {
  PriorFactor factor(0, 0.7);
  const std::vector<Belief> unit = {Belief::Unit()};
  const Belief message = factor.MessageTo(0, unit);
  EXPECT_DOUBLE_EQ(message.correct, 0.7);
  EXPECT_DOUBLE_EQ(message.incorrect, 0.3);
  EXPECT_DOUBLE_EQ(factor.Evaluate({true}), 0.7);
  EXPECT_DOUBLE_EQ(factor.Evaluate({false}), 0.3);
}

// --- Factor graph construction ----------------------------------------------

TEST(FactorGraphTest, AddAndQuery) {
  FactorGraph graph;
  const VarId a = graph.AddVariable("m12");
  const VarId b = graph.AddVariable("m23");
  ASSERT_TRUE(graph.AddFactor(std::make_unique<PriorFactor>(a, 0.5)).ok());
  Result<FactorIndex> f = graph.AddFactor(std::make_unique<CycleFeedbackFactor>(
      std::vector<VarId>{a, b}, true, 0.1));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(graph.variable_count(), 2u);
  EXPECT_EQ(graph.factor_count(), 2u);
  EXPECT_EQ(graph.factors_of(a).size(), 2u);
  EXPECT_EQ(graph.factors_of(b).size(), 1u);
  EXPECT_EQ(graph.edge_count(), 3u);
}

TEST(FactorGraphTest, RejectsUnknownVariable) {
  FactorGraph graph;
  graph.AddVariable("only");
  EXPECT_FALSE(graph.AddFactor(std::make_unique<PriorFactor>(5, 0.5)).ok());
}

// --- The paper's Section 4.5 example, exactly ------------------------------

/// Builds the introductory-example factor graph: five mappings, priors
/// `prior` each, ∆ = 0.1, feedback f1+ (m12,m23,m34,m41), f2− (m12,m24,m41),
/// f3− (m24,m23,m34). Variable order: m12,m23,m34,m41,m24.
FactorGraph BuildIntroExample(double prior, double delta = 0.1) {
  FactorGraph graph;
  const VarId m12 = graph.AddVariable("m12");
  const VarId m23 = graph.AddVariable("m23");
  const VarId m34 = graph.AddVariable("m34");
  const VarId m41 = graph.AddVariable("m41");
  const VarId m24 = graph.AddVariable("m24");
  for (VarId v : {m12, m23, m34, m41, m24}) {
    EXPECT_TRUE(graph.AddFactor(std::make_unique<PriorFactor>(v, prior)).ok());
  }
  EXPECT_TRUE(graph.AddFactor(std::make_unique<CycleFeedbackFactor>(
                      std::vector<VarId>{m12, m23, m34, m41}, true, delta))
                  .ok());
  EXPECT_TRUE(graph.AddFactor(std::make_unique<CycleFeedbackFactor>(
                      std::vector<VarId>{m12, m24, m41}, false, delta))
                  .ok());
  EXPECT_TRUE(graph.AddFactor(std::make_unique<CycleFeedbackFactor>(
                      std::vector<VarId>{m24, m23, m34}, false, delta))
                  .ok());
  return graph;
}

TEST(ExactInferenceTest, IntroExampleMatchesPaper) {
  // Hand-derived ground truth (DESIGN.md Section 2): with uniform priors the
  // joint mass is Z = 2.75, P(m23 = correct) = 1.623 / 2.75 = 0.59018...,
  // P(m24 = correct) = 0.841 / 2.75 = 0.30581... — the paper's "0.59 / 0.3".
  const FactorGraph graph = BuildIntroExample(0.5);
  Result<std::vector<Belief>> marginals = ExactMarginalsBruteForce(graph);
  ASSERT_TRUE(marginals.ok());
  EXPECT_NEAR((*marginals)[1].ProbabilityCorrect(), 1.623 / 2.75, 1e-12);
  EXPECT_NEAR((*marginals)[4].ProbabilityCorrect(), 0.841 / 2.75, 1e-12);
  // The three other mappings of cycle f1 share m23's posterior by symmetry.
  EXPECT_NEAR((*marginals)[0].ProbabilityCorrect(), 1.623 / 2.75, 1e-12);
  EXPECT_NEAR((*marginals)[2].ProbabilityCorrect(), 1.623 / 2.75, 1e-12);
  EXPECT_NEAR((*marginals)[3].ProbabilityCorrect(), 1.623 / 2.75, 1e-12);
}

TEST(ExactInferenceTest, PartitionFunctionIntroExample) {
  const FactorGraph graph = BuildIntroExample(0.5);
  Result<double> z = ExactPartitionFunction(graph);
  ASSERT_TRUE(z.ok());
  // Each uniform prior contributes a factor 0.5: Z = 2.75 / 2^5.
  EXPECT_NEAR(*z, 2.75 / 32.0, 1e-12);
}

TEST(ExactInferenceTest, VariableEliminationMatchesBruteForce) {
  const FactorGraph graph = BuildIntroExample(0.7);
  const auto brute = ExactMarginalsBruteForce(graph);
  ASSERT_TRUE(brute.ok());
  for (VarId v = 0; v < graph.variable_count(); ++v) {
    Result<Belief> ve = ExactMarginalVariableElimination(graph, v);
    ASSERT_TRUE(ve.ok());
    EXPECT_NEAR(ve->ProbabilityCorrect(), (*brute)[v].ProbabilityCorrect(),
                1e-10)
        << "variable " << v;
  }
}

TEST(ExactInferenceTest, BruteForceRejectsLargeGraphs) {
  FactorGraph graph;
  for (int i = 0; i < 30; ++i) graph.AddVariable("v");
  EXPECT_FALSE(ExactMarginalsBruteForce(graph).ok());
}

// --- Loopy sum-product -------------------------------------------------------

TEST(SumProductTest, IntroExampleConvergesNearExact) {
  const FactorGraph graph = BuildIntroExample(0.5);
  SumProductOptions options;
  options.max_iterations = 100;
  SumProductEngine engine(graph, options);
  const SumProductResult result = engine.Run();
  EXPECT_TRUE(result.converged);
  // Loopy BP is approximate here (the factor graph has cycles); the paper
  // reports < 6% relative error. Allow a conservative envelope.
  EXPECT_NEAR(result.posteriors[1].ProbabilityCorrect(), 1.623 / 2.75, 0.06);
  EXPECT_NEAR(result.posteriors[4].ProbabilityCorrect(), 0.841 / 2.75, 0.06);
  // The faulty mapping must stay below the paper's θ = 0.5 and the sound
  // ones above, so routing decisions match Section 4.5.
  EXPECT_LT(result.posteriors[4].ProbabilityCorrect(), 0.5);
  EXPECT_GT(result.posteriors[1].ProbabilityCorrect(), 0.5);
}

TEST(SumProductTest, TreeGraphIsExactInTwoIterations) {
  // Single positive cycle of length n: its factor graph (one feedback
  // factor + n priors) is a tree, so flooding is exact after 2 iterations
  // (Section 4.3: "exact messages ... in at most two iterations").
  const size_t n = 6;
  const double delta = 0.1;
  FactorGraph graph;
  std::vector<VarId> vars;
  for (size_t i = 0; i < n; ++i) vars.push_back(graph.AddVariable("m"));
  for (VarId v : vars) {
    ASSERT_TRUE(graph.AddFactor(std::make_unique<PriorFactor>(v, 0.5)).ok());
  }
  ASSERT_TRUE(graph.AddFactor(
                  std::make_unique<CycleFeedbackFactor>(vars, true, delta))
                  .ok());

  SumProductOptions options;
  options.max_iterations = 2;
  SumProductEngine engine(graph, options);
  const SumProductResult result = engine.Run();

  // Closed form (DESIGN.md): P(C) = (1 + ∆(2^{n−1}−n)) /
  //                                 (1 + ∆(2^{n−1}−n) + ∆(2^{n−1}−1)).
  const double half = std::pow(2.0, static_cast<double>(n - 1));
  const double numerator = 1.0 + delta * (half - static_cast<double>(n));
  const double z = numerator + delta * (half - 1.0);
  for (VarId v : vars) {
    EXPECT_NEAR(result.posteriors[v].ProbabilityCorrect(), numerator / z,
                1e-12);
  }
}

TEST(SumProductTest, SchedulesAgreeOnFixedPoint) {
  const FactorGraph graph = BuildIntroExample(0.7);
  std::vector<Belief> reference;
  for (auto schedule : {SumProductSchedule::kFlooding, SumProductSchedule::kSerial,
                        SumProductSchedule::kRandomSerial}) {
    SumProductOptions options;
    options.schedule = schedule;
    options.max_iterations = 200;
    SumProductEngine engine(graph, options);
    const SumProductResult result = engine.Run();
    EXPECT_TRUE(result.converged);
    if (reference.empty()) {
      reference = result.posteriors;
      continue;
    }
    for (VarId v = 0; v < graph.variable_count(); ++v) {
      EXPECT_NEAR(result.posteriors[v].ProbabilityCorrect(),
                  reference[v].ProbabilityCorrect(), 1e-6);
    }
  }
}

TEST(SumProductTest, TrajectoryRecordsEveryIteration) {
  const FactorGraph graph = BuildIntroExample(0.7);
  SumProductOptions options;
  options.record_trajectory = true;
  options.max_iterations = 40;
  SumProductEngine engine(graph, options);
  const SumProductResult result = engine.Run();
  ASSERT_EQ(result.trajectory.size(), result.iterations);
  for (const auto& snapshot : result.trajectory) {
    ASSERT_EQ(snapshot.size(), graph.variable_count());
    for (double p : snapshot) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(SumProductTest, DampingReachesSameFixedPoint) {
  const FactorGraph graph = BuildIntroExample(0.6);
  SumProductOptions plain;
  plain.max_iterations = 300;
  const SumProductResult undamped = SumProductEngine(graph, plain).Run();
  SumProductOptions damped_options = plain;
  damped_options.damping = 0.5;
  const SumProductResult damped = SumProductEngine(graph, damped_options).Run();
  ASSERT_TRUE(undamped.converged);
  ASSERT_TRUE(damped.converged);
  for (VarId v = 0; v < graph.variable_count(); ++v) {
    EXPECT_NEAR(damped.posteriors[v].ProbabilityCorrect(),
                undamped.posteriors[v].ProbabilityCorrect(), 1e-5);
  }
}

TEST(SumProductTest, PriorOnlyGraphReturnsPriors) {
  FactorGraph graph;
  const VarId v = graph.AddVariable("m");
  ASSERT_TRUE(graph.AddFactor(std::make_unique<PriorFactor>(v, 0.73)).ok());
  SumProductEngine engine(graph, SumProductOptions{});
  const SumProductResult result = engine.Run();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.posteriors[v].ProbabilityCorrect(), 0.73, 1e-12);
}

/// Property: on factor graphs with the *structure the paper induces* —
/// cycle-feedback factors coming from closures of a sparse random peer
/// network, with feedback signs generated from a hidden ground-truth
/// assignment — loopy BP posteriors stay close to exact marginals. (On
/// arbitrarily overlapping dense scopes loopy BP is known to deviate much
/// more; that regime does not arise from mapping networks.)
class RandomGraphBpAccuracy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphBpAccuracy, CloseToExact) {
  Rng rng(GetParam());
  // Sparse random peer network; variables are its mapping edges.
  const Digraph net = topology::ErdosRenyi(6, 0.35, &rng);
  if (net.edge_count() == 0 || net.edge_count() > 20) {
    GTEST_SKIP() << "degenerate draw";
  }
  ClosureFinderOptions closure_options;
  closure_options.max_cycle_length = 6;
  const auto closures = FindDirectedCycles(net, closure_options);

  // Hidden ground truth: each mapping is incorrect with probability 0.25.
  std::vector<bool> truth;
  for (EdgeId e = 0; e < net.edge_capacity(); ++e) {
    truth.push_back(!rng.Bernoulli(0.25));
  }

  FactorGraph graph;
  std::vector<VarId> var_of_edge(net.edge_capacity());
  for (EdgeId e : net.LiveEdges()) {
    var_of_edge[e] = graph.AddVariable(StrFormat("m%u", e));
    ASSERT_TRUE(
        graph.AddFactor(std::make_unique<PriorFactor>(var_of_edge[e], 0.6))
            .ok());
  }
  for (const auto& closure : closures) {
    size_t incorrect = 0;
    std::vector<VarId> scope;
    for (EdgeId e : closure.edges) {
      scope.push_back(var_of_edge[e]);
      if (!truth[e]) ++incorrect;
    }
    // Observed feedback per the paper's model: positive iff the closure
    // composes to the identity (all correct; compensation is rare and
    // ignored in this generator).
    const bool positive = incorrect == 0;
    ASSERT_TRUE(graph
                    .AddFactor(std::make_unique<CycleFeedbackFactor>(
                        scope, positive, 0.1))
                    .ok());
  }

  const auto exact = ExactMarginalsBruteForce(graph);
  ASSERT_TRUE(exact.ok());
  SumProductOptions options;
  options.max_iterations = 500;
  options.damping = 0.3;  // Guards against oscillation on adversarial draws.
  const SumProductResult bp = SumProductEngine(graph, options).Run();
  for (VarId v = 0; v < graph.variable_count(); ++v) {
    EXPECT_NEAR(bp.posteriors[v].ProbabilityCorrect(),
                (*exact)[v].ProbabilityCorrect(), 0.15)
        << "seed " << GetParam() << " variable " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphBpAccuracy,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace pdms
