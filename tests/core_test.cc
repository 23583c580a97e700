#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "factor/exact.h"
#include "factor/sum_product.h"
#include "graph/closure.h"
#include "graph/topology.h"
#include "net/fault_injection.h"
#include "pdms/pdms.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

constexpr size_t kAttrs = 11;  // schemas of 11 attributes -> ∆ = 1/10

/// The introductory example as a live PDMS: Figure 4 topology, mappings
/// that are concept-identities except m24, which garbles attribute 0
/// (the paper's Creator). All schemas have 11 attributes so each peer's
/// auto-estimated ∆ is 0.1 (Section 4.5).
struct IntroPdms {
  topology::ExampleEdges edges;
  Pdms pdms;
};

IntroPdms MakeIntro(EngineOptions options, uint64_t seed = 17,
                    PdmsBuilder::TransportFactory transport = nullptr) {
  IntroPdms intro;
  Rng rng(seed);
  const Digraph graph = topology::ExampleGraph(&intro.edges);
  options.probe_ttl = 5;
  PdmsBuilder builder;
  builder.WithOptions(options);
  if (transport) builder.WithTransport(std::move(transport));
  for (NodeId p = 0; p < 4; ++p) {
    Schema schema(StrFormat("p%u", p + 1));
    for (size_t a = 0; a < kAttrs; ++a) {
      EXPECT_TRUE(schema.AddAttribute(StrFormat("p%u_a%zu", p + 1, a)).ok());
    }
    builder.AddPeer(std::move(schema));
  }
  for (EdgeId e : graph.LiveEdges()) {
    const std::vector<AttributeId> wrong =
        e == intro.edges.m24 ? std::vector<AttributeId>{0}
                             : std::vector<AttributeId>{};
    builder.AddMapping(
        graph.edge(e).src, graph.edge(e).dst,
        MakeConceptMapping(StrFormat("m%u", e), kAttrs, wrong, &rng));
  }
  Result<Pdms> built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  intro.pdms = std::move(built).value();
  return intro;
}

/// The paper's exact Section 4.5 feedback set injected over the intro
/// topology: f1+ (cycle m12,m23,m34,m41), f2− (cycle m12,m24,m41),
/// f3− (parallel m24 ‖ m23,m34), all for attribute 0, ∆ = 0.1.
void InjectPaperFeedback(Pdms* pdms, const topology::ExampleEdges& edges) {
  auto cycle = [](std::vector<EdgeId> cycle_edges, NodeId source) {
    Closure closure;
    closure.kind = Closure::Kind::kCycle;
    closure.edges = std::move(cycle_edges);
    closure.split = closure.edges.size();
    closure.source = source;
    closure.sink = source;
    return closure;
  };
  auto members = [](std::vector<EdgeId> member_edges) {
    std::vector<MappingVarKey> vars;
    for (EdgeId e : member_edges) vars.push_back(MappingVarKey{e, 0});
    return vars;
  };

  FeedbackAnnouncement f1;
  f1.closure = cycle({edges.m12, edges.m23, edges.m34, edges.m41}, 0);
  f1.delta = 0.1;
  f1.feedback = {{0, FeedbackSign::kPositive,
                  members({edges.m12, edges.m23, edges.m34, edges.m41})}};
  pdms->InjectFeedback(f1);

  FeedbackAnnouncement f2;
  f2.closure = cycle({edges.m12, edges.m24, edges.m41}, 0);
  f2.delta = 0.1;
  f2.feedback = {{0, FeedbackSign::kNegative,
                  members({edges.m12, edges.m24, edges.m41})}};
  pdms->InjectFeedback(f2);

  FeedbackAnnouncement f3;
  f3.closure.kind = Closure::Kind::kParallelPaths;
  f3.closure.edges = {edges.m24, edges.m23, edges.m34};
  f3.closure.split = 1;
  f3.closure.source = 1;
  f3.closure.sink = 3;
  f3.delta = 0.1;
  f3.feedback = {{0, FeedbackSign::kNegative,
                  members({edges.m24, edges.m23, edges.m34})}};
  pdms->InjectFeedback(f3);
}

// --- Discovery ---------------------------------------------------------------

TEST(EngineDiscoveryTest, FindsThePaperClosures) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  const size_t factors = intro.pdms.session().Discover();
  // Three closures (f1, f2, f3) × 11 root attributes.
  EXPECT_EQ(factors, 3 * kAttrs);
  // Replica placement: p2 owns mappings in all three closures.
  EXPECT_EQ(intro.pdms.peer(1).replica_count(), 3 * kAttrs);
  EXPECT_EQ(intro.pdms.peer(0).replica_count(), 2 * kAttrs);  // f1, f2
  EXPECT_EQ(intro.pdms.peer(2).replica_count(), 2 * kAttrs);  // f1, f3
  EXPECT_EQ(intro.pdms.peer(3).replica_count(), 2 * kAttrs);  // f1, f2
}

TEST(EngineDiscoveryTest, DiscoveryIsIdempotent) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  const size_t first = intro.pdms.session().Discover();
  const size_t second = intro.pdms.session().Discover();
  EXPECT_EQ(first, second);
}

TEST(EngineDiscoveryTest, ClosureLimitsCapDiscovery) {
  EngineOptions capped;
  capped.closure_limits.max_cycle_length = 3;
  capped.closure_limits.max_path_length = 2;
  IntroPdms capped_intro = MakeIntro(capped);
  const size_t factors = capped_intro.pdms.session().Discover();
  // Only f2 (length 3) and f3 (paths of length 1 and 2) survive the caps.
  EXPECT_EQ(factors, 2 * kAttrs);
}

/// `network` with peer ids and edge order permuted by `seed`.
SyntheticPdms Renumbered(const SyntheticPdms& network, uint64_t seed) {
  Rng rng(seed);
  auto shuffle = [&rng](auto* values) {
    for (size_t i = values->size(); i > 1; --i) {
      std::swap((*values)[i - 1], (*values)[rng.NextUint64() % i]);
    }
  };
  const size_t peers = network.graph.node_count();
  std::vector<NodeId> label(peers);
  std::iota(label.begin(), label.end(), NodeId{0});
  shuffle(&label);
  std::vector<EdgeId> order = network.graph.LiveEdges();
  shuffle(&order);
  SyntheticPdms renumbered;
  renumbered.graph = Digraph(peers);
  renumbered.schemas.resize(peers);
  for (NodeId p = 0; p < peers; ++p) {
    renumbered.schemas[label[p]] = network.schemas[p];
  }
  for (EdgeId e : order) {
    const Edge& edge = network.graph.edge(e);
    EXPECT_TRUE(renumbered.graph.AddEdge(label[edge.src], label[edge.dst]).ok());
    renumbered.mappings.push_back(network.mappings[e]);
    renumbered.ground_truth.push_back(network.ground_truth[e]);
  }
  return renumbered;
}

/// True if every attribute's chain around `cycle` hits ⊥: such a cycle
/// yields only neutral feedback, hence no factor.
bool AllNeutral(const SyntheticPdms& network, const Closure& cycle) {
  const size_t attributes = network.schemas[cycle.source].size();
  for (AttributeId a = 0; a < attributes; ++a) {
    std::optional<AttributeId> image = a;
    for (EdgeId e : cycle.edges) {
      if (!image.has_value()) break;
      image = network.mappings[e].Apply(*image);
    }
    if (image.has_value()) return false;
  }
  return true;
}

// Probe forwarding only skips hops that can close nothing: the flood must
// still find every cycle the centralized enumeration finds, in the
// generated numbering and in any other.
TEST(EngineDiscoveryTest, ProbeFloodFindsEveryDirectedCycle) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    Digraph graph = topology::BarabasiAlbert(60, 2, &rng);
    topology::Symmetrize(&graph);
    MappingNetworkOptions network_options;
    network_options.attributes_per_schema = 4;
    network_options.error_rate = 0.2;
    network_options.null_rate = 0.1;
    const SyntheticPdms generated =
        BuildSyntheticPdms(graph, network_options, &rng);
    for (const SyntheticPdms& network :
         {generated, Renumbered(generated, seed * 977)}) {
      EngineOptions options;
      options.probe_ttl = 4;
      options.closure_limits.min_cycle_length = 2;
      options.closure_limits.max_cycle_length = 4;
      options.closure_limits.max_path_length = 1;
      Result<Pdms> built =
          PdmsBuilder::FromSynthetic(network).WithOptions(options).Build();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      Pdms pdms = std::move(built).value();
      pdms.session().Discover();

      std::set<std::vector<EdgeId>> discovered;
      for (NodeId p = 0; p < network.graph.node_count(); ++p) {
        for (const Peer::ReplicaView& replica : pdms.peer(p).ReplicaViews()) {
          ASSERT_EQ(replica.kind, Closure::Kind::kCycle);
          std::vector<EdgeId> edges;
          for (const MappingVarKey& member : replica.members) {
            edges.push_back(member.edge);
          }
          discovered.insert(std::move(edges));
        }
      }
      std::set<std::vector<EdgeId>> expected;
      for (const Closure& cycle :
           FindDirectedCycles(network.graph, options.closure_limits)) {
        if (!AllNeutral(network, cycle)) expected.insert(cycle.edges);
      }
      EXPECT_FALSE(expected.empty());
      EXPECT_EQ(discovered, expected) << "seed " << seed;
    }
  }
}

// --- Inference ----------------------------------------------------------------

TEST(EngineInferenceTest, ClassifiesTheFaultyMapping) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  Session& session = intro.pdms.session();
  session.Discover();
  const ConvergenceReport report = session.Converge(200);
  EXPECT_TRUE(report.converged);
  // Attribute 0: m24 garbles it; everything else preserves it.
  EXPECT_LT(intro.pdms.Posterior(intro.edges.m24, 0), 0.45);
  EXPECT_GT(intro.pdms.Posterior(intro.edges.m23, 0), 0.5);
  EXPECT_GT(intro.pdms.Posterior(intro.edges.m12, 0), 0.5);
  EXPECT_GT(intro.pdms.Posterior(intro.edges.m34, 0), 0.5);
  EXPECT_GT(intro.pdms.Posterior(intro.edges.m41, 0), 0.5);
  // Unaffected attributes accumulate strong positive evidence.
  for (AttributeId a = 1; a < kAttrs; ++a) {
    EXPECT_GT(intro.pdms.Posterior(intro.edges.m23, a), 0.6) << "attr " << a;
    EXPECT_GT(intro.pdms.Posterior(intro.edges.m24, a), 0.6) << "attr " << a;
  }
}

TEST(EngineInferenceTest, InjectedPaperGraphMatchesPaperNumbers) {
  // With the paper's exact factor graph (Section 4.5), the decentralized
  // engine must land near exact inference's 0.59 / 0.31.
  IntroPdms intro = MakeIntro(EngineOptions{});
  InjectPaperFeedback(&intro.pdms, intro.edges);
  const ConvergenceReport report = intro.pdms.session().Converge(200);
  EXPECT_TRUE(report.converged);
  EXPECT_NEAR(intro.pdms.Posterior(intro.edges.m23, 0), 1.623 / 2.75, 0.06);
  EXPECT_NEAR(intro.pdms.Posterior(intro.edges.m24, 0), 0.841 / 2.75, 0.06);
}

TEST(EngineInferenceTest, EmbeddedMatchesCentralizedFixedPoint) {
  EngineOptions options;
  options.tolerance = 1e-12;
  IntroPdms intro = MakeIntro(options);
  Session& session = intro.pdms.session();
  session.Discover();
  session.Converge(500);

  std::vector<MappingVarKey> vars;
  const FactorGraph global = intro.pdms.BuildGlobalFactorGraph(&vars);
  SumProductOptions sp;
  sp.tolerance = 1e-12;
  sp.max_iterations = 500;
  const SumProductResult central = SumProductEngine(global, sp).Run();
  ASSERT_TRUE(central.converged);
  for (VarId v = 0; v < vars.size(); ++v) {
    EXPECT_NEAR(intro.pdms.Posterior(vars[v].edge, vars[v].attribute),
                central.posteriors[v].ProbabilityCorrect(), 1e-6)
        << vars[v].ToString();
  }
}

TEST(EngineInferenceTest, EmbeddedCloseToExactInference) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  Session& session = intro.pdms.session();
  session.Discover();
  session.Converge(200);

  std::vector<MappingVarKey> vars;
  const FactorGraph global = intro.pdms.BuildGlobalFactorGraph(&vars);
  for (VarId v = 0; v < vars.size(); ++v) {
    Result<Belief> exact = ExactMarginalVariableElimination(global, v);
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(intro.pdms.Posterior(vars[v].edge, vars[v].attribute),
                exact->ProbabilityCorrect(), 0.06)
        << vars[v].ToString();
  }
}

TEST(EngineInferenceTest, ConvergesWithinAboutTenRounds) {
  // Section 5.1.1: "our embedded message passing scheme converges to
  // approximate results in ten iterations usually".
  IntroPdms intro = MakeIntro(EngineOptions{});
  Session& session = intro.pdms.session();
  session.Discover();
  // Count rounds until posteriors move < 1e-3 between rounds.
  size_t rounds = 0;
  double previous = intro.pdms.Posterior(intro.edges.m24, 0);
  for (; rounds < 50; ++rounds) {
    session.Step();
    const double current = intro.pdms.Posterior(intro.edges.m24, 0);
    if (rounds > 2 && std::abs(current - previous) < 1e-3) break;
    previous = current;
  }
  EXPECT_LE(rounds, 15u);
}

TEST(EngineInferenceTest, ObserverRecordsTrajectory) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  Session& session = intro.pdms.session();
  session.Discover();
  TrajectoryRecorder recorder({MappingVarKey{intro.edges.m24, 0},
                               MappingVarKey{intro.edges.m23, 0}});
  session.AddObserver(&recorder);
  const ConvergenceReport report = session.Converge(100);
  ASSERT_EQ(recorder.trajectory().size(), report.rounds);
  ASSERT_EQ(recorder.trajectory()[0].size(), 2u);
  // The faulty mapping's posterior decreases over time.
  EXPECT_LT(recorder.trajectory().back()[0],
            recorder.trajectory().front()[0] + 1e-9);
  // An unsubscribed observer stops recording.
  session.RemoveObserver(&recorder);
  const size_t frozen = recorder.trajectory().size();
  session.Step();
  EXPECT_EQ(recorder.trajectory().size(), frozen);
}

TEST(EngineInferenceTest, DeterministicAcrossRuns) {
  auto run = [] {
    IntroPdms intro = MakeIntro(EngineOptions{});
    intro.pdms.session().Discover();
    intro.pdms.session().Converge(100);
    std::vector<double> posteriors;
    for (EdgeId e : intro.pdms.graph().LiveEdges()) {
      for (AttributeId a = 0; a < kAttrs; ++a) {
        posteriors.push_back(intro.pdms.Posterior(e, a));
      }
    }
    return posteriors;
  };
  EXPECT_EQ(run(), run());
}

// --- ⊥ handling -----------------------------------------------------------------

TEST(EngineBottomTest, UnmappedAttributeHasZeroPosterior) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  // Knock out attribute 5 of m23's mapping.
  Peer& p2 = intro.pdms.peer(1);
  SchemaMapping patched = *p2.mapping(intro.edges.m23);
  ASSERT_TRUE(patched.Set(5, std::nullopt).ok());
  p2.RemoveMapping(intro.edges.m23);
  ASSERT_TRUE(p2.AddMapping(intro.edges.m23, std::move(patched)).ok());
  EXPECT_DOUBLE_EQ(intro.pdms.Posterior(intro.edges.m23, 5), 0.0);
  // Other attributes are unaffected.
  EXPECT_GT(intro.pdms.Posterior(intro.edges.m23, 1), 0.4);
}

// --- Query routing -----------------------------------------------------------------

void LoadDocuments(Pdms* pdms) {
  const std::vector<std::string> keywords = {"river wells", "garden pond",
                                             "river dedham"};
  for (PeerId p = 0; p < pdms->peer_count(); ++p) {
    for (uint64_t entity = 0; entity < 3; ++entity) {
      std::map<AttributeId, std::string> values;
      for (AttributeId a = 0; a < kAttrs; ++a) {
        values[a] = StrFormat("val_e%llu_a%u",
                              static_cast<unsigned long long>(entity), a);
      }
      values[1] = keywords[entity];
      pdms->peer(p).store().Insert(entity, values);
    }
  }
}

Query RiverQuery() {
  Query query("q1");
  query.AddProjection(0);
  query.AddSelection(1, "river");
  return query;
}

TEST(EngineQueryTest, WithoutInferenceFaultyMappingPollutesResults) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  LoadDocuments(&intro.pdms);
  const QueryReport report =
      intro.pdms.session().Query(/*origin=*/1, RiverQuery(), /*ttl=*/3);
  EXPECT_EQ(report.reached.size(), 4u);
  // p4 hears the query through the faulty m24 first (one hop) and answers
  // with a wrong projection: a false positive.
  bool any_false = false;
  for (const auto& [peer, row] : report.rows) {
    const std::string expected =
        StrFormat("val_e%llu_a0", static_cast<unsigned long long>(row.entity));
    if (row.values[0] != expected) any_false = true;
  }
  EXPECT_TRUE(any_false);
}

TEST(EngineQueryTest, InferenceBlocksFaultyMappingAndCleansResults) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  LoadDocuments(&intro.pdms);
  Session& session = intro.pdms.session();
  session.Discover();
  session.Converge(200);
  const QueryReport report =
      session.Query(/*origin=*/1, RiverQuery(), /*ttl=*/3);
  // The faulty mapping is ignored; the query still reaches every database
  // through p2 -> p3 -> p4 -> p1 (Section 4.5).
  EXPECT_EQ(report.reached.size(), 4u);
  EXPECT_NE(std::find(report.blocked_edges.begin(), report.blocked_edges.end(),
                      intro.edges.m24),
            report.blocked_edges.end());
  ASSERT_EQ(report.rows.size(), 8u);  // 4 peers × 2 river entities
  for (const auto& [peer, row] : report.rows) {
    EXPECT_EQ(row.values[0],
              StrFormat("val_e%llu_a0",
                        static_cast<unsigned long long>(row.entity)));
  }
}

TEST(EngineQueryTest, BottomBlocksForwardingEvenWithoutEvidence) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  LoadDocuments(&intro.pdms);
  Peer& p2 = intro.pdms.peer(1);
  SchemaMapping patched = *p2.mapping(intro.edges.m23);
  ASSERT_TRUE(patched.Set(0, std::nullopt).ok());  // projection attr -> ⊥
  p2.RemoveMapping(intro.edges.m23);
  ASSERT_TRUE(p2.AddMapping(intro.edges.m23, std::move(patched)).ok());
  const QueryReport report = intro.pdms.session().Query(1, RiverQuery(), 3);
  EXPECT_NE(std::find(report.blocked_edges.begin(), report.blocked_edges.end(),
                      intro.edges.m23),
            report.blocked_edges.end());
}

TEST(EngineQueryTest, ForwardWithoutEvidenceDisabledStopsColdStart) {
  EngineOptions options;
  options.forward_without_evidence = false;
  IntroPdms intro = MakeIntro(options);
  LoadDocuments(&intro.pdms);
  const QueryReport report = intro.pdms.session().Query(1, RiverQuery(), 3);
  EXPECT_EQ(report.reached.size(), 1u);  // only the origin answers
  EXPECT_EQ(report.rows.size(), 2u);
}

TEST(EngineQueryTest, BatchedQueriesMatchSequentialOnConvergedNetwork) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  LoadDocuments(&intro.pdms);
  Session& session = intro.pdms.session();
  session.Discover();
  session.Converge(200);

  const QueryReport sequential = session.Query(1, RiverQuery(), 3);

  std::vector<QueryRequest> requests;
  for (PeerId origin = 0; origin < 4; ++origin) {
    requests.push_back(QueryRequest{origin, RiverQuery(), 3});
  }
  const std::vector<QueryReport> batched = session.QueryAll(requests);
  ASSERT_EQ(batched.size(), requests.size());
  // The batch's report for origin 1 matches the sequential run: same rows
  // (same peers, same values), same blocked mapping.
  const QueryReport& from_p2 = batched[1];
  ASSERT_EQ(from_p2.rows.size(), sequential.rows.size());
  for (size_t i = 0; i < from_p2.rows.size(); ++i) {
    EXPECT_EQ(from_p2.rows[i].first, sequential.rows[i].first);
    EXPECT_EQ(from_p2.rows[i].second.values, sequential.rows[i].second.values);
  }
  EXPECT_EQ(from_p2.blocked_edges, sequential.blocked_edges);
  // Every origin's query produced rows of its own.
  for (const QueryReport& report : batched) {
    EXPECT_FALSE(report.rows.empty());
  }
}

// --- Prior updates (Section 4.4) --------------------------------------------------

TEST(EnginePriorTest, EmUpdateMatchesPaperNumbers) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  InjectPaperFeedback(&intro.pdms, intro.edges);
  intro.pdms.session().Converge(200);
  intro.pdms.UpdatePriors();
  // Section 4.5: priors move to about 0.55 and 0.4. Exact inference gives
  // (0.5 + 0.590)/2 = 0.545 and (0.5 + 0.306)/2 = 0.403; the loopy
  // fixed point sits a few hundredths below the exact m23 value.
  EXPECT_NEAR(intro.pdms.Prior(intro.edges.m23, 0), 0.55, 0.035);
  EXPECT_NEAR(intro.pdms.Prior(intro.edges.m24, 0), 0.40, 0.02);
}

TEST(EnginePriorTest, ExplicitPriorOverrides) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  intro.pdms.SetPrior(intro.edges.m24, 0, 1.0);  // expert-validated
  InjectPaperFeedback(&intro.pdms, intro.edges);
  intro.pdms.session().Converge(200);
  // With a hard prior of 1 the negative feedback cannot pull m24 down.
  EXPECT_GT(intro.pdms.Posterior(intro.edges.m24, 0), 0.9);
}

// --- Schedules -----------------------------------------------------------------------

TEST(EngineScheduleTest, LazyPiggybacksOnQueries) {
  EngineOptions options;
  options.schedule = ScheduleKind::kLazy;
  options.theta = 0.45;
  IntroPdms intro = MakeIntro(options);
  LoadDocuments(&intro.pdms);
  Session& session = intro.pdms.session();
  session.Discover();
  const uint64_t beliefs_before =
      intro.pdms.transport().stats().sent[static_cast<size_t>(
          MessageKind::kBelief)];

  // Drive convergence purely with query traffic.
  for (int i = 0; i < 40; ++i) {
    session.Query(static_cast<PeerId>(i % 4), RiverQuery(), 4);
    session.Step();
  }
  // No standalone belief messages were ever sent...
  EXPECT_EQ(intro.pdms.transport().stats().sent[static_cast<size_t>(
                MessageKind::kBelief)],
            beliefs_before);
  // ...yet the faulty mapping was identified.
  EXPECT_LT(intro.pdms.Posterior(intro.edges.m24, 0), 0.45);
  EXPECT_GT(intro.pdms.Posterior(intro.edges.m23, 0), 0.5);
}

TEST(EngineScheduleTest, PeriodicRespectsPeriod) {
  EngineOptions options;
  options.period_ticks = 3;
  IntroPdms intro = MakeIntro(options);
  Session& session = intro.pdms.session();
  session.Discover();
  uint64_t rounds_with_traffic = 0;
  for (int i = 0; i < 9; ++i) {
    const RoundReport report = session.Step();
    if (report.belief_updates_sent > 0) ++rounds_with_traffic;
  }
  EXPECT_EQ(rounds_with_traffic, 3u);
}

// --- Fault tolerance (Section 5.1.3) ------------------------------------------------

TEST(EngineFaultTest, ConvergesUnderMessageLoss) {
  EngineOptions reliable;
  IntroPdms baseline = MakeIntro(reliable);
  baseline.pdms.session().Discover();
  const ConvergenceReport clean = baseline.pdms.session().Converge(400);
  ASSERT_TRUE(clean.converged);

  // Half of every belief round's bundles are lost; discovery runs clean.
  IntroPdms dropped = MakeIntro(reliable, 17, [](size_t peers,
                                                 const EngineOptions&) {
    return std::make_unique<FaultInjectingTransport>(
        std::make_unique<SimTransport>(peers, NetworkOptions{}), FaultPlan{});
  });
  dropped.pdms.session().Discover();
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_rate = 0.5;
  static_cast<FaultInjectingTransport&>(dropped.pdms.transport())
      .set_plan(plan);
  const ConvergenceReport noisy = dropped.pdms.session().Converge(2000);
  EXPECT_TRUE(noisy.converged);
  EXPECT_GT(noisy.rounds, clean.rounds);
  for (EdgeId e : baseline.pdms.graph().LiveEdges()) {
    for (AttributeId a = 0; a < kAttrs; ++a) {
      EXPECT_NEAR(dropped.pdms.Posterior(e, a), baseline.pdms.Posterior(e, a),
                  1e-6);
    }
  }
}

// --- Churn ---------------------------------------------------------------------------

TEST(EngineChurnTest, RemovingMappingPurgesEvidence) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  Session& session = intro.pdms.session();
  session.Discover();
  session.Converge(200);
  ASSERT_TRUE(intro.pdms.RemoveMapping(intro.edges.m24).ok());
  // All replicas referencing m24 are gone network-wide: only f1 remains.
  EXPECT_EQ(intro.pdms.UniqueFactorCount(), kAttrs);
  // Re-discovery finds nothing new (f1 closures already known).
  session.Discover();
  EXPECT_EQ(intro.pdms.UniqueFactorCount(), kAttrs);
  const ConvergenceReport report = session.Converge(100);
  EXPECT_TRUE(report.converged);
  // Single positive 4-cycle, uniform priors, ∆ = 0.1:
  // P = (1 + ∆(8−4)) / (1 + ∆(8−4) + ∆(8−1)) = 1.4 / 2.1 = 2/3.
  EXPECT_NEAR(intro.pdms.Posterior(intro.edges.m23, 0), 2.0 / 3.0, 1e-6);
}

// --- Coarse granularity -----------------------------------------------------------------

TEST(EngineGranularityTest, CoarseTracksWholeMappings) {
  EngineOptions options;
  options.granularity = Granularity::kCoarse;
  IntroPdms intro = MakeIntro(options);
  const size_t factors = intro.pdms.session().Discover();
  EXPECT_EQ(factors, 3u);  // one replica per closure, not per attribute
  intro.pdms.session().Converge(200);
  EXPECT_LT(intro.pdms.PosteriorCoarse(intro.edges.m24),
            intro.pdms.PosteriorCoarse(intro.edges.m23));
  // m24 is wrong on 1 of 11 attributes; coarsening calls the whole mapping
  // into question — exactly the resolution the paper's fine mode fixes.
  EXPECT_LT(intro.pdms.PosteriorCoarse(intro.edges.m24), 0.5);
}

// --- Overhead accounting (Section 4.3.1) -------------------------------------------------

TEST(EngineOverheadTest, RemoteMessagesRespectPaperBound) {
  IntroPdms intro = MakeIntro(EngineOptions{});
  intro.pdms.session().Discover();
  intro.pdms.session().Step();  // populate messages
  for (PeerId p = 0; p < 4; ++p) {
    const Peer& peer = intro.pdms.peer(p);
    size_t actual_updates = 0;
    std::vector<Outgoing> bundles;
    peer.CollectOutgoingBeliefs(&bundles);
    for (const Outgoing& outgoing : bundles) {
      actual_updates += std::get<BeliefMessage>(outgoing.payload).update_count();
    }
    EXPECT_LE(actual_updates, peer.RemoteMessageBound())
        << "peer " << p;
  }
}

// --- Decentralized == centralized, property-style across random networks -----------------

class RandomNetworkEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetworkEquivalence, EmbeddedMatchesCentralized) {
  Rng rng(GetParam());
  const Digraph graph = topology::ErdosRenyi(7, 0.3, &rng);
  if (graph.edge_count() == 0) GTEST_SKIP() << "empty draw";
  MappingNetworkOptions network_options;
  network_options.attributes_per_schema = 5;
  network_options.error_rate = 0.2;
  network_options.null_rate = 0.05;
  const SyntheticPdms synthetic =
      BuildSyntheticPdms(graph, network_options, &rng);
  EngineOptions options;
  options.tolerance = 1e-12;
  options.probe_ttl = 5;
  Result<Pdms> built =
      PdmsBuilder::FromSynthetic(synthetic).WithOptions(options).Build();
  ASSERT_TRUE(built.ok());
  Pdms pdms = std::move(built).value();
  pdms.session().Discover();
  pdms.session().Converge(1000);

  std::vector<MappingVarKey> vars;
  const FactorGraph global = pdms.BuildGlobalFactorGraph(&vars);
  if (global.variable_count() == 0) GTEST_SKIP() << "no closures in draw";
  SumProductOptions sp;
  sp.tolerance = 1e-12;
  sp.max_iterations = 1000;
  const SumProductResult central = SumProductEngine(global, sp).Run();
  for (VarId v = 0; v < vars.size(); ++v) {
    EXPECT_NEAR(pdms.Posterior(vars[v].edge, vars[v].attribute),
                central.posteriors[v].ProbabilityCorrect(), 1e-5)
        << "seed " << GetParam() << " " << vars[v].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace pdms
