// Quickstart: build a four-peer PDMS with the public builder API, let it
// discover mapping cycles and parallel paths with probes, run
// decentralized probabilistic message passing, and route a query that
// avoids the faulty mapping.
//
//   $ ./quickstart
//
// This is the paper's running example (Figures 1/4, Section 4.5): peers
// p1..p4 hold art databases under different schemas; the mapping from p2
// to p4 erroneously maps "creator" onto another attribute.
//
// The snippet in docs/API.md mirrors this file — keep them in sync.

#include <cstdio>

#include "pdms/pdms.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace pdms;  // NOLINT: example brevity

int main() {
  // 1. Peers: four schemas of eleven attributes each (attribute 0 plays
  //    "creator"), so every peer estimates the error-compensation
  //    probability ∆ = 1/10. AddPeer order assigns PeerIds 0..3.
  PdmsBuilder builder;
  for (int p = 0; p < 4; ++p) {
    Schema schema("peer" + std::to_string(p + 1));
    for (int a = 0; a < 11; ++a) {
      if (!schema.AddAttribute("attr" + std::to_string(a)).ok()) return 1;
    }
    builder.AddPeer(std::move(schema));
  }

  // 2. Mappings: the cycle p1 -> p2 -> p3 -> p4 -> p1 plus the shortcut
  //    p2 -> p4. All identities on concepts, except m24 (EdgeId 4), which
  //    garbles attr 0. AddMapping order assigns EdgeIds 0..4.
  Rng rng(42);
  const EdgeId kM24 = 4;
  const std::vector<std::pair<PeerId, PeerId>> links = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}};
  for (EdgeId e = 0; e < links.size(); ++e) {
    const std::vector<AttributeId> wrong_on =
        e == kM24 ? std::vector<AttributeId>{0} : std::vector<AttributeId>{};
    builder.AddMapping(
        links[e].first, links[e].second,
        MakeConceptMapping(StrFormat("m%u", e), 11, wrong_on, &rng));
  }

  // 3. Options + transport. No prior knowledge about any mapping. The
  //    instant transport is lossless and zero-delay — ideal for
  //    convergence-only workloads; for loss experiments, pass
  //    WithTransport a FaultInjectingTransport carrying a FaultPlan.
  EngineOptions options;
  options.probe_ttl = 5;  // long enough to close the 4-mapping cycle
  Result<Pdms> built = builder.WithOptions(options)
                           .WithInstantTransport()
                           .Build();
  if (!built.ok()) {
    std::printf("PDMS construction failed: %s\n",
                built.status().ToString().c_str());
    return 1;
  }
  Pdms pdms = std::move(built).value();
  Session& session = pdms.session();

  // 4. Discover closures with TTL probes (cycles f1, f2 + parallel f3).
  const size_t factors = session.Discover();
  std::printf("discovered %zu feedback factors\n", factors);

  // 5. Run embedded message passing to convergence.
  const ConvergenceReport report = session.Converge(/*max_rounds=*/100);
  std::printf("inference: %zu rounds, converged=%s\n\n", report.rounds,
              report.converged ? "yes" : "no");

  // 6. Inspect per-attribute mapping quality for attribute 0.
  std::printf("posterior P(correct) for attribute 0:\n");
  for (EdgeId e : pdms.graph().LiveEdges()) {
    std::printf("  %s -> %s : %.3f%s\n",
                pdms.peer(pdms.graph().edge(e).src).schema().name().c_str(),
                pdms.peer(pdms.graph().edge(e).dst).schema().name().c_str(),
                pdms.Posterior(e, 0),
                e == kM24 ? "   <-- the faulty mapping" : "");
  }

  // 7. Populate tiny databases and route a query with θ = 0.5.
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    pdms.peer(p).store().Insert(/*entity=*/1,
                                {{0, "Henry Peach Robinson"}, {1, "river"}});
  }
  Query query("q1");
  query.AddProjection(0);          // SELECT attr0 (creator)
  query.AddSelection(1, "river");  // WHERE attr1 LIKE "%river%"
  const QueryReport answer = session.Query(/*origin=*/1, query, /*ttl=*/3);
  std::printf("\nquery from peer2: reached %zu peers, %zu rows, %zu blocked "
              "mapping(s)\n",
              answer.reached.size(), answer.rows.size(),
              answer.blocked_edges.size());
  for (const auto& [peer, row] : answer.rows) {
    std::printf("  peer%u -> %s\n", peer + 1, row.values[0].c_str());
  }

  // 8. Sanity for the smoke test: the faulty mapping must score below θ
  //    and must have been blocked during routing.
  if (pdms.Posterior(kM24, 0) >= 0.5 || answer.blocked_edges.empty()) {
    std::printf("unexpected: faulty mapping not identified\n");
    return 1;
  }
  return 0;
}
