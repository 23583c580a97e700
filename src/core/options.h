#ifndef PDMS_CORE_OPTIONS_H_
#define PDMS_CORE_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "graph/closure.h"
#include "net/fault_injection.h"
#include "net/network.h"

namespace pdms {

/// When peers exchange remote belief messages (Section 4.3).
enum class ScheduleKind : uint8_t {
  /// Every tick (the paper's period τ = 1) each peer proactively sends
  /// remote messages to all peers in its local factor graph (Section
  /// 4.3.1).
  kPeriodic = 0,
  /// Remote messages piggyback on query traffic only: zero additional
  /// message overhead, convergence speed proportional to query load
  /// (Section 4.3.2).
  kLazy = 1,
};

/// Whether mapping quality is tracked per attribute or per mapping
/// (Section 4.1, "two levels of granularity").
enum class Granularity : uint8_t {
  kFine = 0,    ///< one variable / factor-graph instance per attribute
  kCoarse = 1,  ///< one variable per mapping
};

/// Byzantine-resilient belief admission (off by default). When enabled,
/// every inbound belief entry is validated semantically before it touches
/// replica state — finite normalizable measures, values consistent with
/// the bundle's declared quantization tier, no same-round equivocation —
/// and each neighbor link carries a decaying misbehavior score fed by
/// admission rejections (weight 2), equivocations (4), streaks of six
/// consecutive direction reversals of at least 0.75 log-odds (1, at most
/// once per round), and posterior-influence outliers above 8x the clean
/// median (0.5); the score decays by 0.9 per round. Crossing
/// `soft_threshold` demotes the link (absorbed log-odds scaled by 0.25,
/// toward the uniform message); crossing `2 × soft_threshold` quarantines
/// it (bundles dropped entirely). The weights and rates are fixed
/// constants in core/peer.cc. Demotions are sticky and replay
/// deterministically from round-ordered evidence, so guarded runs stay
/// bitwise parallel-deterministic. With `enabled` false the admission path
/// is byte-for-byte the unguarded one.
struct ByzantineGuardOptions {
  bool enabled = false;
  /// Decayed score at which a link is soft-demoted; the link is
  /// quarantined at twice this score. Must be positive.
  double soft_threshold = 6.0;
};

/// Configuration of a `PdmsEngine`.
struct EngineOptions {
  /// Prior P(m = correct) for mappings without explicit prior information
  /// (maximum entropy: 0.5, Section 4.4).
  double default_prior = 0.5;
  /// ∆ — probability that two or more mapping errors compensate along a
  /// closure. When unset, each discovering peer estimates ∆ = 1/(s−1)
  /// from its schema size s, the paper's heuristic (Section 4.5: eleven
  /// attributes -> ∆ = 1/10).
  std::optional<double> delta_override;
  /// Semantic threshold θ: a query is forwarded through a mapping only if
  /// every query attribute has posterior correctness > θ (Section 2).
  /// Attributes without feedback evidence yet always pass (standard-PDMS
  /// bootstrap behaviour); ⊥ attributes always block.
  double theta = 0.5;
  /// TTL for closure-discovery probes (Section 3.2.1). A probe is
  /// forwarded only where it can still close something: to its origin when
  /// that closes a cycle within `closure_limits` rooted at the route's
  /// minimum peer id, to any peer while the route is a parallel-path
  /// candidate (at most `max_path_length` mappings), and otherwise only to
  /// peers above the origin on a route that has not passed a smaller id,
  /// while hops and cycle length remain.
  ///
  /// The defaults (TTL 6, cycles 3–8, parallel paths of up to 6 mappings)
  /// suit only tiny networks: every route of at most 6 hops is a
  /// parallel-path candidate, and each receiver pairs a new short probe
  /// with every probe it cached from the same origin (up to 128), so
  /// factors grow combinatorially. A 16-peer symmetrized BA network gave
  /// 134,892 factors in 9.2 s at 1.3 GB peak RSS. For anything larger,
  /// copy the long-cycle bench settings: `probe_ttl = 4` with
  /// `closure_limits` cycles 2–4 and `max_path_length = 1` (1k BA peers:
  /// 15,918 factors from 28,774 probes).
  uint32_t probe_ttl = 6;
  /// Structural limits honored during discovery.
  ClosureFinderOptions closure_limits;

  ScheduleKind schedule = ScheduleKind::kPeriodic;

  /// Worker threads used to execute inference rounds (per-peer
  /// `ComputeRound` and belief-bundle construction fan out across them).
  /// 1 = fully serial (no thread pool is created); 0 = one worker per
  /// hardware thread. Results are identical at every setting: peers only
  /// touch their own state during a round, and the engine issues all
  /// transport sends in canonical peer order.
  size_t parallelism = 1;

  /// Minimum peers per lane before a round fans out to the thread pool:
  /// with fewer, the wake/steal/join overhead outweighs the round work
  /// (1k-peer configs measured 0.90–0.97x serial speed when forced
  /// parallel) and the round runs inline instead. Purely a scheduling
  /// decision — results are identical either way. Set to 1 to fan out
  /// whenever there is at least one peer per lane (e.g. to exercise the
  /// parallel path in small tests; networks with fewer peers than lanes
  /// still run inline).
  size_t min_peers_per_lane = 1024;

  Granularity granularity = Granularity::kFine;

  /// Convergence: `RunToConvergence` stops once the max posterior change
  /// has stayed below `tolerance` since the last round it did not, *and*
  /// every belief link has delivered a bundle since that round — so loss
  /// injected anywhere on the wire can never pass for quiescence.
  double tolerance = 1e-7;
  /// Damping λ in [0,1) on local factor->variable message updates:
  /// message' = λ·old + (1−λ)·computed. Loopy BP on dense evidence graphs
  /// can oscillate (Section 3.1, [15]); damping restores convergence
  /// without moving the fixed point. 0 disables (the paper's plain
  /// schedule).
  double damping = 0.0;

  /// Quantized belief wire values (wire format v4): the maximum tolerated
  /// per-value log-odds error ε when remote µ values ship as fixed-point
  /// log-odds quanta instead of two raw doubles. 0 (default) disables
  /// quantization, keeping posteriors bitwise-identical to the raw-double
  /// engine. Links start coarse (a step of ~8ε while the peer's residual
  /// exceeds 64ε) and step up monotonically to the fine tier of
  /// `ValueBitsForBudget(ε)` fractional bits (a step of at most ε/8) as
  /// the residual shrinks. Participates in `ComputeStateEpoch`: a snapshot
  /// taken under one budget cannot restore under another.
  double value_error_budget = 0.0;

  /// Byzantine-resilient belief admission (see `ByzantineGuardOptions`).
  /// Participates in `ComputeStateEpoch`: guard state in a snapshot only
  /// restores under the configuration that produced it.
  ByzantineGuardOptions byzantine_guard;

  /// Seeded behavioral chaos: peers listed in the plan forge their
  /// outgoing belief values (lies, inversion, equivocation, collusion) at
  /// bundle send time. Replayable from the seed like the link-level
  /// `FaultPlan`s; see `ByzantinePlan` in net/fault_injection.h.
  ByzantinePlan byzantine;

  /// Delay of the default lossless `SimTransport`; channel faults come
  /// from a `FaultPlan` through `FaultInjectingTransport`.
  NetworkOptions network;
};

}  // namespace pdms

#endif  // PDMS_CORE_OPTIONS_H_
