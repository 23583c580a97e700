#ifndef PDMS_FACTOR_SUM_PRODUCT_H_
#define PDMS_FACTOR_SUM_PRODUCT_H_

#include <cstdint>
#include <vector>

#include "factor/factor_graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace pdms {

/// Message-update orderings for the iterative sum-product algorithm.
enum class SumProductSchedule : uint8_t {
  /// Synchronous flooding: all messages recomputed from the previous
  /// iteration's values — the schedule the paper's embedded periodic mode
  /// corresponds to.
  kFlooding = 0,
  /// Sequential (Gauss–Seidel) sweep over factors in index order; messages
  /// take effect immediately. Typically converges in fewer iterations.
  kSerial = 1,
  /// Like kSerial but with a fresh random factor order per iteration.
  kRandomSerial = 2,
};

/// Configuration for `SumProductEngine`.
struct SumProductOptions {
  size_t max_iterations = 100;
  /// Convergence threshold on the L∞ change of normalized posteriors.
  double tolerance = 1e-9;
  /// Damping λ in [0,1): message' = λ·old + (1−λ)·computed. 0 disables.
  double damping = 0.0;
  SumProductSchedule schedule = SumProductSchedule::kFlooding;
  /// Seed for the random schedule.
  uint64_t seed = 42;
  /// When true, posterior P(correct) of every variable is recorded after
  /// each iteration (Figure 7 needs the full trajectory).
  bool record_trajectory = false;
};

/// Outcome of a sum-product run.
struct SumProductResult {
  /// Normalized posterior per variable.
  std::vector<Belief> posteriors;
  /// Iterations actually executed.
  size_t iterations = 0;
  /// True if an iteration's posterior change fell below the tolerance
  /// before `max_iterations`.
  bool converged = false;
  /// trajectory[t][v] = P(variables v correct) after iteration t+1
  /// (only if `record_trajectory`).
  std::vector<std::vector<double>> trajectory;
  /// Count of message updates computed (both directions).
  uint64_t message_updates = 0;
};

/// Iterative (loopy) sum-product over a factor graph.
///
/// Exact on trees; on loopy graphs it converges to the usual loopy-BP
/// approximation (Section 3.1, [15]). This is the *centralized* engine: the
/// reference implementation the decentralized embedded engine is tested
/// against.
class SumProductEngine {
 public:
  SumProductEngine(const FactorGraph& graph, SumProductOptions options);

  /// Runs until convergence or the iteration cap and returns the result.
  SumProductResult Run();

  /// Executes a single iteration; exposed so callers can interleave with
  /// other work. Returns max normalized posterior change.
  double Step();

  /// Current normalized posterior of `v`.
  Belief Posterior(VarId v) const;

  /// Current normalized posteriors of all variables.
  std::vector<Belief> Posteriors() const;

  uint64_t message_updates() const { return message_updates_; }

 private:
  /// µ_{v->f} for the factor's argument `position`, computed live from
  /// current factor->variable messages, excluding the recipient factor.
  /// Used by the serial schedules, whose messages take effect mid-sweep.
  Belief VariableToFactor(FactorIndex f, size_t position) const;

  /// Flooding-schedule fast path: recomputes every µ_{v->f} for the
  /// iteration in one O(edges) pass using per-variable prefix/suffix
  /// products (valid because flooding reads only previous-iteration
  /// state). Replaces the O(deg²)-per-variable live computation.
  void RefreshVariableToFactorCache();

  void UpdateFactorMessages(FactorIndex f, bool synchronous_stage);

  const FactorGraph& graph_;
  SumProductOptions options_;
  Rng rng_;
  /// to_var_[f][i] = µ_{f -> variables(f)[i]}.
  std::vector<std::vector<Belief>> to_var_;
  /// Staging buffer for the flooding schedule.
  std::vector<std::vector<Belief>> staged_;
  /// var_slots_[v] = every (factor, position) with variables(f)[pos] == v —
  /// the message slots adjacent to v, in factor order.
  std::vector<std::vector<std::pair<FactorIndex, uint32_t>>> var_slots_;
  /// µ_{v->f} per slot for the current flooding iteration (indexed like
  /// `to_var_`), filled by RefreshVariableToFactorCache.
  std::vector<std::vector<Belief>> var_to_factor_cache_;
  /// Normalized posterior per variable after the last Step (initialized
  /// from the unit messages). Residuals are tracked against this cache
  /// instead of materializing full before/after posterior sets per Step.
  std::vector<Belief> posteriors_;
  /// Reused scratch: incoming messages of the factor being updated, and
  /// prefix/suffix products of the cache refresh.
  std::vector<Belief> incoming_scratch_;
  std::vector<Belief> prefix_scratch_;
  std::vector<Belief> suffix_scratch_;
  uint64_t message_updates_ = 0;
};

}  // namespace pdms

#endif  // PDMS_FACTOR_SUM_PRODUCT_H_
