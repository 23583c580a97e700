#include "factor/sum_product.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace pdms {

SumProductEngine::SumProductEngine(const FactorGraph& graph,
                                   SumProductOptions options)
    : graph_(graph), options_(options), rng_(options.seed) {
  to_var_.resize(graph_.factor_count());
  for (FactorIndex f = 0; f < graph_.factor_count(); ++f) {
    // "All peers virtually received a unit message from all other peers
    // prior to starting the algorithm" (Section 4.3): initialize every
    // message to the unit function.
    to_var_[f].assign(graph_.factor(f).arity(), Belief::Unit());
  }
  staged_ = to_var_;
  var_to_factor_cache_ = to_var_;

  var_slots_.resize(graph_.variable_count());
  for (FactorIndex f = 0; f < graph_.factor_count(); ++f) {
    const auto& vars = graph_.factor(f).variables();
    for (size_t i = 0; i < vars.size(); ++i) {
      var_slots_[vars[i]].emplace_back(f, static_cast<uint32_t>(i));
    }
  }

  posteriors_.resize(graph_.variable_count());
  for (VarId v = 0; v < graph_.variable_count(); ++v) {
    posteriors_[v] = Posterior(v);
  }
}

Belief SumProductEngine::VariableToFactor(FactorIndex f, size_t position) const {
  const VarId v = graph_.factor(f).variables()[position];
  Belief message = Belief::Unit();
  for (const auto& [g, i] : var_slots_[v]) {
    if (g == f) continue;
    message *= to_var_[g][i];
  }
  return message.Rescaled();
}

void SumProductEngine::RefreshVariableToFactorCache() {
  for (VarId v = 0; v < graph_.variable_count(); ++v) {
    const auto& slots = var_slots_[v];
    const size_t k = slots.size();
    if (k == 0) continue;
    ExclusivePrefixSuffixProducts(
        k,
        [&](size_t j) -> const Belief& {
          return to_var_[slots[j].first][slots[j].second];
        },
        &prefix_scratch_, &suffix_scratch_);
    for (size_t j = 0; j < k; ++j) {
      var_to_factor_cache_[slots[j].first][slots[j].second] =
          (prefix_scratch_[j] * suffix_scratch_[j + 1]).Rescaled();
    }
  }
}

void SumProductEngine::UpdateFactorMessages(FactorIndex f, bool synchronous_stage) {
  const Factor& factor = graph_.factor(f);
  const size_t n = factor.arity();
  incoming_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Flooding reads the pre-iteration state, which the refreshed cache
    // holds; serial schedules must see mid-sweep updates and compute live.
    incoming_scratch_[i] = synchronous_stage ? var_to_factor_cache_[f][i]
                                             : VariableToFactor(f, i);
    ++message_updates_;
  }
  auto& target = synchronous_stage ? staged_[f] : to_var_[f];
  for (size_t i = 0; i < n; ++i) {
    Belief computed = factor.MessageTo(i, incoming_scratch_).Rescaled();
    if (options_.damping > 0.0) {
      computed = to_var_[f][i].DampedToward(computed, 1.0 - options_.damping);
    }
    target[i] = computed;
    ++message_updates_;
  }
}

double SumProductEngine::Step() {
  switch (options_.schedule) {
    case SumProductSchedule::kFlooding: {
      RefreshVariableToFactorCache();
      for (FactorIndex f = 0; f < graph_.factor_count(); ++f) {
        UpdateFactorMessages(f, /*synchronous_stage=*/true);
      }
      to_var_ = staged_;
      break;
    }
    case SumProductSchedule::kSerial: {
      for (FactorIndex f = 0; f < graph_.factor_count(); ++f) {
        UpdateFactorMessages(f, /*synchronous_stage=*/false);
      }
      break;
    }
    case SumProductSchedule::kRandomSerial: {
      std::vector<FactorIndex> order(graph_.factor_count());
      std::iota(order.begin(), order.end(), 0);
      rng_.Shuffle(&order);
      for (FactorIndex f : order) {
        UpdateFactorMessages(f, /*synchronous_stage=*/false);
      }
      break;
    }
  }

  // Residual: one pass over the new messages against the cached posteriors
  // of the previous step — no full before/after posterior materialization.
  double max_change = 0.0;
  for (VarId v = 0; v < graph_.variable_count(); ++v) {
    Belief posterior = Belief::Unit();
    for (const auto& [g, i] : var_slots_[v]) {
      posterior *= to_var_[g][i];
    }
    posterior = posterior.Normalized();
    max_change = std::max(max_change, posteriors_[v].NormalizedDistance(posterior));
    posteriors_[v] = posterior;
  }
  return max_change;
}

Belief SumProductEngine::Posterior(VarId v) const {
  Belief posterior = Belief::Unit();
  for (const auto& [g, i] : var_slots_[v]) {
    posterior *= to_var_[g][i];
  }
  return posterior.Normalized();
}

std::vector<Belief> SumProductEngine::Posteriors() const {
  // Valid whether or not a step ran: the constructor primes the cache and
  // every Step refreshes it.
  return posteriors_;
}

SumProductResult SumProductEngine::Run() {
  SumProductResult result;
  for (size_t iteration = 0; iteration < options_.max_iterations; ++iteration) {
    const double change = Step();
    result.iterations = iteration + 1;
    if (options_.record_trajectory) {
      std::vector<double> snapshot(graph_.variable_count());
      for (VarId v = 0; v < graph_.variable_count(); ++v) {
        snapshot[v] = posteriors_[v].correct;
      }
      result.trajectory.push_back(std::move(snapshot));
    }
    if (change < options_.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.posteriors = posteriors_;
  result.message_updates = message_updates_;
  return result;
}

}  // namespace pdms
