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
  /// Every `period_ticks` ticks each peer proactively sends remote
  /// messages to all peers in its local factor graph (Section 4.3.1).
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

/// Quantized belief wire values (wire format v4): ship each remote µ as a
/// fixed-point log-odds quantum instead of two raw doubles, trading a
/// bounded per-value error for a multiple-times smaller steady-state
/// wire footprint. Off by default — posteriors stay bitwise-identical to
/// the unquantized engine unless a budget is set.
struct ValuePrecisionOptions {
  /// Maximum tolerated per-value log-odds error ε. 0 (default) disables
  /// quantization entirely (raw IEEE doubles on the wire). The finest
  /// adaptive tier uses `ValueBitsForBudget(ε)` fractional bits, i.e. a
  /// quantization step of at most ε/8.
  double error_budget = 0.0;
  /// Adapt precision to convergence: links start coarse (budget-relative
  /// step of ~8ε while residuals exceed 64ε) and step up monotonically to
  /// the fine tier as the peer's residual shrinks. When false, every
  /// bundle uses the fine tier from the first round.
  bool adaptive = true;
  /// Step converged links (residual below `EngineOptions::tolerance`) all
  /// the way back to exact raw doubles, spending wire bytes to pin the
  /// fixpoint once traffic is cheap.
  bool exact_at_convergence = false;
};

/// Byzantine-resilient belief admission (off by default). When enabled,
/// every inbound belief entry is validated semantically before it touches
/// replica state — finite normalizable measures, values consistent with
/// the bundle's declared quantization tier, no same-round equivocation —
/// and each neighbor link carries a decaying misbehavior score fed by
/// admission rejections, oscillation beyond a configurable bound, and
/// posterior-influence outliers. Crossing `soft_threshold` demotes the
/// link (absorbed beliefs damped toward uniform); crossing
/// `hard_threshold` quarantines it (bundles dropped entirely). Demotions
/// are sticky and replay deterministically from round-ordered evidence,
/// so guarded runs stay bitwise parallel-deterministic. With `enabled`
/// false the admission path is byte-for-byte the unguarded one.
struct ByzantineGuardOptions {
  bool enabled = false;

  /// Multiplicative per-round decay of each link's misbehavior score, in
  /// [0, 1): isolated violations (a delayed duplicate, one early
  /// oscillation) wash out; sustained misbehavior accumulates.
  double score_decay = 0.9;

  /// Score added per admission rejection (non-finite / negative /
  /// all-zero measures, quantization-tier mismatches, out-of-range or
  /// own-member-forging positions).
  double admission_weight = 2.0;
  /// Score added when a link sends conflicting values for the same
  /// factor position within one round (equivocation). Re-sending the
  /// *same* value (a duplicated envelope) is not a violation.
  double equivocation_weight = 4.0;
  /// Score added when a slot's value reverses direction
  /// `oscillation_bound` consecutive times by more than `flip_magnitude`
  /// log-odds each.
  double oscillation_weight = 1.0;
  /// Score added when a link's mean absorbed |Δ log-odds| for a round
  /// exceeds `outlier_ratio` times the median across this peer's
  /// not-yet-suspect links (the independent-corroboration weighting: a
  /// colluding neighbor cannot vouch a suspect back under the median).
  double outlier_weight = 0.5;

  /// Direction reversals tolerated per slot before they score.
  uint32_t oscillation_bound = 6;
  /// Minimum |Δ log-odds| for a move to count toward oscillation.
  double flip_magnitude = 0.75;
  /// Influence-outlier trigger: link mean vs median across clean links
  /// (requires at least 3 clean links; smaller neighborhoods skip the
  /// check).
  double outlier_ratio = 8.0;

  /// Demotion thresholds on the decayed score. Soft: absorbed beliefs
  /// are damped toward the uniform message by `soft_damping`. Hard: the
  /// link's bundles are dropped before absorption.
  double soft_threshold = 6.0;
  double hard_threshold = 12.0;
  /// Log-odds retention factor for soft-demoted links, in [0, 1):
  /// absorbed log-odds l becomes soft_damping · l.
  double soft_damping = 0.25;
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
  double theta = 0.5;
  /// Forward queries through mappings that have no feedback evidence yet
  /// (standard-PDMS bootstrap behaviour; ⊥ attributes still block).
  bool forward_without_evidence = true;
  /// TTL for closure-discovery probes (Section 3.2.1). A probe is
  /// forwarded only where it can still close something: to its origin when
  /// that closes a cycle within `closure_limits` rooted at the route's
  /// minimum peer id, to any peer while the route is a parallel-path
  /// candidate (at most `max_path_length` mappings), and otherwise only to
  /// peers above the origin on a route that has not passed a smaller id,
  /// while hops and cycle length remain.
  uint32_t probe_ttl = 6;
  /// Structural limits honored during discovery.
  ClosureFinderOptions closure_limits;
  /// Cached foreign probes per (peer, origin) for parallel-path detection.
  size_t max_cached_probes = 128;

  ScheduleKind schedule = ScheduleKind::kPeriodic;
  /// Remote-message period τ in ticks (periodic schedule).
  uint64_t period_ticks = 1;

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

  /// Quantized belief wire values (wire format v4); see
  /// `ValuePrecisionOptions`. Participates in `ComputeStateEpoch`: a
  /// snapshot taken under one budget cannot restore under another.
  ValuePrecisionOptions value_precision;

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
