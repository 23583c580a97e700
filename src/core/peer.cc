#include "core/peer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "util/string_util.h"

namespace pdms {
namespace {

/// Log-odds used by the admission guard's history (equivocation /
/// oscillation / influence comparisons). One-sided measures map to a
/// saturated constant — only comparisons consume the value, so the exact
/// cap is immaterial as long as it is deterministic.
constexpr double kGuardLogOddsCap = 745.0;

double GuardLogOdds(const Belief& belief) {
  if (belief.correct <= 0.0 && belief.incorrect <= 0.0) return 0.0;
  if (belief.incorrect <= 0.0) return kGuardLogOddsCap;
  if (belief.correct <= 0.0) return -kGuardLogOddsCap;
  return std::log(belief.correct / belief.incorrect);
}

/// Soft demotion: damp a message toward the uniform (unit) message by
/// retaining fraction `w` of its log-odds — elementwise pow keeps the
/// measure scale-free ((c/i)^w) and one-sided measures one-sided.
Belief GuardDamped(const Belief& belief, double w) {
  return Belief{std::pow(belief.correct, w), std::pow(belief.incorrect, w)};
}

}  // namespace

uint32_t ValueRankBits(const ValuePrecisionOptions& precision, uint32_t rank) {
  if (rank >= kValueRankExact && precision.exact_at_convergence) return 0;
  const uint32_t fine = ValueBitsForBudget(precision.error_budget);
  if (fine == 0) return 0;  // budget off: raw doubles everywhere
  if (!precision.adaptive || rank >= 2) return fine;
  // Coarse/mid tiers drop 6/3 fractional bits: an 8x/2x larger step
  // while residuals dwarf the budget anyway.
  const uint32_t drop = rank == 0 ? 6 : 3;
  return fine > drop + 2 ? fine - drop : 2;
}

uint32_t ValueRankTarget(const ValuePrecisionOptions& precision,
                         double residual, double tolerance) {
  if (precision.exact_at_convergence && residual < tolerance) {
    return kValueRankExact;
  }
  if (!precision.adaptive) return 2;
  const double eps = precision.error_budget;
  if (residual > 64.0 * eps) return 0;
  if (residual > 8.0 * eps) return 1;
  return 2;
}

Peer::Peer(PeerId id, Schema schema, const Digraph* graph,
           const EngineOptions* options)
    : id_(id), schema_(std::move(schema)), graph_(graph), options_(options) {}

// --- Mappings ---------------------------------------------------------------

Status Peer::AddMapping(EdgeId edge, SchemaMapping mapping) {
  const auto it = std::lower_bound(
      mappings_.begin(), mappings_.end(), edge,
      [](const auto& entry, EdgeId e) { return entry.first < e; });
  if (it != mappings_.end() && it->first == edge) {
    return Status::AlreadyExists(StrFormat("peer %u already maps edge %u", id_,
                                           edge));
  }
  if (graph_->edge(edge).src != id_) {
    return Status::InvalidArgument(
        StrFormat("edge %u does not start at peer %u", edge, id_));
  }
  mappings_.emplace(it, edge, std::move(mapping));
  return Status::Ok();
}

void Peer::RemoveMapping(EdgeId edge) {
  const auto it = std::lower_bound(
      mappings_.begin(), mappings_.end(), edge,
      [](const auto& entry, EdgeId e) { return entry.first < e; });
  if (it != mappings_.end() && it->first == edge) mappings_.erase(it);

  // Drop every replica referencing the edge, then rebuild the indexes,
  // recompact the SoA pools, and rebuild the per-variable slot lists and
  // belief routing tables. Churn is rare; rounds are hot.
  //
  // The guard pool shares the message pools' slots; align it before
  // compaction (it grows lazily, so it may trail the message pools).
  if (!guard_slot_pool_.empty() &&
      guard_slot_pool_.size() < var_to_factor_pool_.size()) {
    guard_slot_pool_.resize(var_to_factor_pool_.size());
  }
  // Misbehavior is a property of the *neighbor*, not of the alias
  // session: carry scores and demotions across the session reset below,
  // so churn cannot parole a demoted link.
  struct GuardCarry {
    PeerId peer;
    double score;
    uint8_t demote_level;
    uint64_t rejections, equivocations, oscillations, outliers, dropped;
  };
  std::vector<GuardCarry> carried;
  if (options_->byzantine_guard.enabled) {
    for (const auto& [peer, index] : alias_link_index_) {
      const PeerLink& link = alias_links_[index];
      if (link.guard_score == 0.0 && link.guard_demote_level == 0 &&
          link.guard_rejections == 0 && link.guard_equivocations == 0 &&
          link.guard_oscillations == 0 && link.guard_outliers == 0 &&
          link.guard_dropped_bundles == 0) {
        continue;
      }
      carried.push_back(GuardCarry{
          peer, link.guard_score, link.guard_demote_level,
          link.guard_rejections, link.guard_equivocations,
          link.guard_oscillations, link.guard_outliers,
          link.guard_dropped_bundles});
    }
  }
  const std::vector<Belief> old_var_to_factor = std::move(var_to_factor_pool_);
  const std::vector<Belief> old_factor_to_var = std::move(factor_to_var_pool_);
  const std::vector<MappingVarKey> old_members = std::move(member_pool_);
  const std::vector<PeerId> old_owners = std::move(member_owner_pool_);
  const std::vector<uint32_t> old_owned = std::move(owned_pos_pool_);
  const std::vector<ReplicaHot> old_hot = std::move(replica_hot_);
  const std::vector<GuardSlot> old_guard = std::move(guard_slot_pool_);
  var_to_factor_pool_.clear();
  factor_to_var_pool_.clear();
  member_pool_.clear();
  member_owner_pool_.clear();
  owned_pos_pool_.clear();
  replica_hot_.clear();
  guard_slot_pool_.clear();
  std::vector<Replica> kept;
  kept.reserve(replicas_.size());
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    const ReplicaHot& hot = old_hot[r];
    const auto member_begin = old_members.begin() + hot.msg_base;
    const auto member_end = member_begin + hot.member_count;
    const bool touches = std::any_of(
        member_begin, member_end,
        [edge](const MappingVarKey& var) { return var.edge == edge; });
    if (touches) continue;
    ReplicaHot compacted = hot;
    compacted.msg_base = static_cast<uint32_t>(var_to_factor_pool_.size());
    compacted.owned_base = static_cast<uint32_t>(owned_pos_pool_.size());
    var_to_factor_pool_.insert(
        var_to_factor_pool_.end(), old_var_to_factor.begin() + hot.msg_base,
        old_var_to_factor.begin() + hot.msg_base + hot.member_count);
    factor_to_var_pool_.insert(
        factor_to_var_pool_.end(), old_factor_to_var.begin() + hot.msg_base,
        old_factor_to_var.begin() + hot.msg_base + hot.member_count);
    member_pool_.insert(member_pool_.end(), member_begin, member_end);
    member_owner_pool_.insert(
        member_owner_pool_.end(), old_owners.begin() + hot.msg_base,
        old_owners.begin() + hot.msg_base + hot.member_count);
    owned_pos_pool_.insert(
        owned_pos_pool_.end(), old_owned.begin() + hot.owned_base,
        old_owned.begin() + hot.owned_base + hot.owned_count);
    if (!old_guard.empty()) {
      guard_slot_pool_.insert(
          guard_slot_pool_.end(), old_guard.begin() + hot.msg_base,
          old_guard.begin() + hot.msg_base + hot.member_count);
    }
    replica_hot_.push_back(compacted);
    kept.push_back(std::move(replicas_[r]));
  }
  replicas_ = std::move(kept);
  replica_index_.clear();
  belief_routes_.clear();
  // The replica set (and with it every route) changed, so the link-local
  // alias numbering is void: clear both session directions and bump the
  // epoch. Every peer of the network processes the same removal, so the
  // sender's new numbering and the receivers' fresh tables stay in
  // lockstep, and in-flight bundles from the old numbering are rejected
  // by their stale epoch rather than misrouted.
  alias_links_.clear();
  alias_link_index_.clear();
  ++alias_epoch_;
  for (VarState& var : vars_) var.slots.clear();
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    replica_index_.emplace(replicas_[r].id, r);
    const ReplicaHot& hot = replica_hot_[r];
    for (uint32_t i = 0; i < hot.owned_count; ++i) {
      const uint32_t pos = owned_pos_pool_[hot.owned_base + i];
      vars_[InternVar(member_pool_[hot.msg_base + pos])].slots.emplace_back(
          r, pos);
    }
    AddReplicaToRoutes(r);
  }
  for (const GuardCarry& carry : carried) {
    PeerLink& link = alias_links_[InternAliasLink(carry.peer)];
    link.guard_score = carry.score;
    link.guard_demote_level = carry.demote_level;
    link.guard_rejections = carry.rejections;
    link.guard_equivocations = carry.equivocations;
    link.guard_oscillations = carry.oscillations;
    link.guard_outliers = carry.outliers;
    link.guard_dropped_bundles = carry.dropped;
  }
}

const SchemaMapping* Peer::mapping(EdgeId edge) const {
  const auto it = std::lower_bound(
      mappings_.begin(), mappings_.end(), edge,
      [](const auto& entry, EdgeId e) { return entry.first < e; });
  return it != mappings_.end() && it->first == edge ? &it->second : nullptr;
}

std::vector<EdgeId> Peer::OutgoingEdges() const {
  std::vector<EdgeId> edges;
  edges.reserve(mappings_.size());
  for (const auto& [edge, mapping] : mappings_) edges.push_back(edge);
  return edges;
}

// --- Priors & posteriors ------------------------------------------------------

uint32_t Peer::InternVar(const MappingVarKey& var) {
  const auto [it, inserted] =
      var_index_.emplace(var.Packed(), static_cast<uint32_t>(vars_.size()));
  if (inserted) {
    VarState state;
    state.key = var;
    // Interning appends, so each edge's index list stays ascending — the
    // iteration order PiggybackUpdatesFor depends on for determinism.
    edge_vars_[var.edge].push_back(it->second);
    vars_.push_back(std::move(state));
  }
  return it->second;
}

const Peer::VarState* Peer::FindVar(const MappingVarKey& var) const {
  const auto it = var_index_.find(var.Packed());
  return it == var_index_.end() ? nullptr : &vars_[it->second];
}

void Peer::SetPrior(const MappingVarKey& var, double prior) {
  VarState& state = vars_[InternVar(var)];
  state.prior = prior;
  state.has_explicit_prior = true;
  state.evidence_count = 0;
  state.evidence_sum = 0.0;
  state.has_evidence_acc = false;
}

double Peer::Prior(const MappingVarKey& var) const {
  const VarState* state = FindVar(var);
  return state != nullptr && state->has_explicit_prior
             ? state->prior
             : options_->default_prior;
}

bool Peer::HasEvidence(const MappingVarKey& var) const {
  const VarState* state = FindVar(var);
  return state != nullptr && !state->slots.empty();
}

Belief Peer::PosteriorBelief(const MappingVarKey& var) const {
  // ⊥ rule: a mapping that does not represent the attribute has
  // correctness 0 for it (Section 3.2.1).
  if (var.attribute != MappingVarKey::kWholeMapping) {
    const SchemaMapping* m = mapping(var.edge);
    if (m == nullptr || !m->Apply(var.attribute).has_value()) {
      return Belief{0.0, 1.0};
    }
  }
  Belief posterior = Belief::FromProbability(Prior(var));
  if (const VarState* state = FindVar(var)) {
    for (const auto& [replica, position] : state->slots) {
      posterior *= factor_to_var_pool_[replica_hot_[replica].msg_base + position];
    }
  }
  return posterior.Normalized();
}

double Peer::Posterior(const MappingVarKey& var) const {
  return PosteriorBelief(var).correct;
}

void Peer::UpdatePriorsFromPosteriors() {
  for (VarState& state : vars_) {
    if (state.slots.empty()) continue;
    if (!state.has_evidence_acc) {
      state.has_evidence_acc = true;
      state.evidence_count = 1;
      state.evidence_sum = Prior(state.key);
    }
    ++state.evidence_count;
    state.evidence_sum += Posterior(state.key);
    state.prior =
        state.evidence_sum / static_cast<double>(state.evidence_count);
    state.has_explicit_prior = true;
  }
}

// --- Embedded message passing -------------------------------------------------

double Peer::EffectiveDelta() const {
  if (options_->delta_override.has_value()) return *options_->delta_override;
  const size_t s = schema_.size();
  return s > 1 ? 1.0 / static_cast<double>(s - 1) : 0.5;
}

namespace {

/// True when the two (closure, root attribute) pairs describe the same
/// factor content — the equality `FactorId::Make` fingerprints.
bool SameFactorContent(const Closure& a, AttributeId a_root, const Closure& b,
                       AttributeId b_root) {
  if (a_root != b_root || a.kind != b.kind || a.source != b.source) {
    return false;
  }
  if (a.kind == Closure::Kind::kParallelPaths &&
      (a.sink != b.sink || a.split != b.split)) {
    return false;
  }
  if (a.edges.size() != b.edges.size()) return false;
  std::vector<EdgeId> a_sorted = a.edges;
  std::vector<EdgeId> b_sorted = b.edges;
  std::sort(a_sorted.begin(), a_sorted.end());
  std::sort(b_sorted.begin(), b_sorted.end());
  return a_sorted == b_sorted;
}

}  // namespace

Status Peer::ValidateFactorContent(const FactorId& id, const Closure& closure,
                                   const AttributeFeedback& feedback) const {
  const auto existing = replica_index_.find(id);
  if (existing == replica_index_.end()) return Status::Ok();
  const Replica& stored = replicas_[existing->second];
  const std::span<const MappingVarKey> stored_members =
      Members(existing->second);
  // Position-based update addressing makes the member *sequence*
  // load-bearing across replicas, so content equality requires it
  // verbatim, on top of the closure structure the id fingerprints. A
  // same-id announcement with permuted or substituted members would
  // silently cross-wire remote µ-messages if accepted.
  if (SameFactorContent(stored.closure, stored.root_attribute, closure,
                        feedback.root_attribute) &&
      std::equal(stored_members.begin(), stored_members.end(),
                 feedback.members.begin(), feedback.members.end())) {
    return Status::Ok();
  }
  // Distinct factor content under the same 128-bit id: reject loudly
  // instead of storing it.
  return Status::FailedPrecondition(
      StrFormat("factor fingerprint collision on %s at peer %u",
                id.ToString().c_str(), id_));
}

Status Peer::IngestFeedback(const FeedbackAnnouncement& announcement) {
  // Validate-then-apply, so a collision anywhere in the announcement
  // leaves the peer untouched. The apply phase below cannot fail: fresh
  // ids always ingest, validated existing ids are idempotent no-ops, and
  // entries owning no local member are skipped inside IngestFactor.
  std::vector<std::pair<FactorId, const AttributeFeedback*>> pending;
  for (const AttributeFeedback& feedback : announcement.feedback) {
    if (feedback.sign == FeedbackSign::kNeutral) continue;
    const FactorId id =
        FactorId::Make(announcement.closure, feedback.root_attribute);
    PDMS_RETURN_IF_ERROR(
        ValidateFactorContent(id, announcement.closure, feedback));
    // Also validate against the announcement's own earlier entries: two
    // same-id entries with diverging content would otherwise pass the
    // stored-state check, then collide against each other mid-apply.
    for (const auto& [seen_id, seen] : pending) {
      if (seen_id != id) continue;
      if (seen->root_attribute == feedback.root_attribute &&
          std::equal(seen->members.begin(), seen->members.end(),
                     feedback.members.begin(), feedback.members.end())) {
        continue;
      }
      return Status::FailedPrecondition(
          StrFormat("factor fingerprint collision on %s within one "
                    "announcement at peer %u",
                    id.ToString().c_str(), id_));
    }
    pending.emplace_back(id, &feedback);
  }
  for (const auto& [id, feedback] : pending) {
    const Status applied =
        IngestFactor(id, announcement.closure, *feedback, announcement.delta);
    assert(applied.ok());
    (void)applied;
  }
  return Status::Ok();
}

Status Peer::IngestFactor(const FactorId& id, const Closure& closure,
                          const AttributeFeedback& feedback, double delta) {
  if (replica_index_.count(id) > 0) {
    // Existing id: either the same factor identity (idempotent no-op;
    // sign/∆ deliberately do not participate — they are observations, and
    // a re-observation keeps the first value) or a collision.
    return ValidateFactorContent(id, closure, feedback);
  }
  const bool owns_member = std::any_of(
      feedback.members.begin(), feedback.members.end(),
      [this](const MappingVarKey& var) {
        return graph_->edge_alive(var.edge) && graph_->edge(var.edge).src == id_;
      });
  if (!owns_member) return Status::Ok();

  Replica replica;
  replica.id = id;
  replica.closure = closure;
  replica.root_attribute = feedback.root_attribute;
  replica.sign = feedback.sign;
  replica.delta = delta;
  const size_t n = feedback.members.size();
  ReplicaHot hot;
  hot.msg_base = static_cast<uint32_t>(var_to_factor_pool_.size());
  hot.member_count = static_cast<uint32_t>(n);
  hot.owned_base = static_cast<uint32_t>(owned_pos_pool_.size());
  hot.delta = delta;
  hot.positive = feedback.sign == FeedbackSign::kPositive;
  var_to_factor_pool_.resize(hot.msg_base + n, Belief::Unit());
  factor_to_var_pool_.resize(hot.msg_base + n, Belief::Unit());
  member_pool_.insert(member_pool_.end(), feedback.members.begin(),
                      feedback.members.end());
  for (size_t i = 0; i < n; ++i) {
    const PeerId owner = graph_->edge(feedback.members[i].edge).src;
    member_owner_pool_.push_back(owner);
    if (owner == id_) {
      // Own variables start from the locally-known prior instead of the
      // unit message; remote ones stay unit until heard from.
      var_to_factor_pool_[hot.msg_base + i] =
          Belief::FromProbability(Prior(feedback.members[i]));
      owned_pos_pool_.push_back(static_cast<uint32_t>(i));
      ++hot.owned_count;
    } else {
      replica.other_owners.push_back(owner);
    }
  }
  std::sort(replica.other_owners.begin(), replica.other_owners.end());
  replica.other_owners.erase(
      std::unique(replica.other_owners.begin(), replica.other_owners.end()),
      replica.other_owners.end());

  const auto index = static_cast<uint32_t>(replicas_.size());
  replicas_.push_back(std::move(replica));
  replica_hot_.push_back(hot);
  replica_index_.emplace(id, index);
  for (uint32_t i = 0; i < hot.owned_count; ++i) {
    const uint32_t pos = owned_pos_pool_[hot.owned_base + i];
    vars_[InternVar(member_pool_[hot.msg_base + pos])].slots.emplace_back(
        index, pos);
  }
  AddReplicaToRoutes(index);
  return Status::Ok();
}

uint32_t Peer::InternAliasLink(PeerId peer) {
  const auto it = std::lower_bound(
      alias_link_index_.begin(), alias_link_index_.end(), peer,
      [](const auto& entry, PeerId p) { return entry.first < p; });
  if (it != alias_link_index_.end() && it->first == peer) return it->second;
  const auto index = static_cast<uint32_t>(alias_links_.size());
  alias_links_.emplace_back();
  alias_link_index_.emplace(it, peer, index);
  return index;
}

void Peer::AddReplicaToRoutes(uint32_t r) {
  const Replica& replica = replicas_[r];
  if (replica_hot_[r].owned_count == 0) return;
  for (PeerId peer : replica.other_owners) {
    // First mention of this factor over the (this -> peer) link: negotiate
    // the session alias the route will emit under. Replicas register in
    // ascending index order, so aliases ascend with replica index and
    // each route's group list stays in canonical emission order — the
    // order the determinism guarantee rides on.
    const uint32_t link = InternAliasLink(peer);
    const uint32_t alias = alias_links_[link].session.tx.Assign(replica.id);
    auto it = std::lower_bound(
        belief_routes_.begin(), belief_routes_.end(), peer,
        [](const BeliefRoute& route, PeerId p) { return route.to < p; });
    if (it == belief_routes_.end() || it->to != peer) {
      it = belief_routes_.insert(it, BeliefRoute{peer, link, 0, {}});
    }
    it->entry_total += replica_hot_[r].owned_count;
    it->groups.emplace_back(r, alias);
  }
}

void Peer::AbsorbResolved(uint32_t r, uint32_t position, const Belief& belief) {
  const ReplicaHot& hot = replica_hot_[r];
  if (position >= hot.member_count) return;                    // malformed
  if (member_owner_pool_[hot.msg_base + position] == id_) return;  // forged
  var_to_factor_pool_[hot.msg_base + position] = belief;
}

void Peer::AbsorbBeliefUpdate(const BeliefUpdate& update) {
  const auto it = replica_index_.find(update.factor);
  if (it == replica_index_.end()) return;  // closure unknown here: ignore
  AbsorbResolved(it->second, update.position, update.belief);
}

Status Peer::AbsorbBeliefBundle(PeerId from, const BeliefMessage& message) {
  // Quantized bundles (value_bits != 0) arrive with every entry's
  // `belief` already holding the dequantized realization of its wire
  // quantum: the codec materializes it on decode, and senders write it at
  // construction (`BeliefMessage::QuantizeValues`) so in-memory
  // transports deliver the same values a socket would. Absorption
  // therefore reads `entry.belief` uniformly for both formats.
  //
  // Everything in a stale-epoch bundle refers to the pre-rebuild
  // numbering — including its ack. Applying such an ack to the fresh
  // transmit session would mark bindings as established that the new
  // receive tables never saw, silencing the full-id fallback for good,
  // so the whole bundle is rejected up front.
  if (message.epoch != alias_epoch_) {
    return Status::FailedPrecondition(StrFormat(
        "belief bundle from peer %u carries alias epoch %u, peer %u is at %u",
        from, message.epoch, id_, alias_epoch_));
  }
  PeerLink& link = alias_links_[InternAliasLink(from)];
  // Stamped with the round this bundle feeds (the next ComputeRound).
  link.heard = round_ + 1;
  const bool guarded = options_->byzantine_guard.enabled;
  if (guarded) {
    // Hard-quarantined link: nothing in the bundle is trusted — not the
    // entries, not the ack, not the binding declarations. Counted and
    // dropped without a Status (a per-round error would flood the logs
    // for as long as the adversary keeps sending).
    if (link.guard_demote_level >= 2) {
      ++link.guard_dropped_bundles;
      return Status::Ok();
    }
    // Slot histories share the message pools' slots and grow lazily, so
    // replicas ingested since the last bundle get theirs here.
    if (guard_slot_pool_.size() < var_to_factor_pool_.size()) {
      guard_slot_pool_.resize(var_to_factor_pool_.size());
    }
  }
  AliasSessionTx& tx = link.session.tx;
  // The bundle's ack acknowledges *our* transmit session toward the
  // sender. Latest-wins, not max: an honest receiver's ack is monotone
  // and bundles arrive per-sender FIFO, so overwriting never loses
  // ground — while a *forged* high ack is corrected by the next genuine
  // bundle instead of permanently silencing the full-fingerprint
  // fallback (max would ratchet the forgery in forever). Clamping to
  // next_alias keeps never-declared aliases out either way.
  tx.acked_prefix = std::min(message.ack, tx.next_alias);
  AliasSessionRx& rx = link.session.rx;
  Status status = Status::Ok();
  for (const BeliefGroup& group : message.groups) {
    // Entry ranges are untrusted input like everything else in a bundle:
    // a range outside the flat array is rejected, not clamped-and-used.
    if (static_cast<uint64_t>(group.entry_begin) + group.entry_count >
        message.entries.size()) {
      if (status.ok()) {
        status = Status::InvalidArgument(StrFormat(
            "belief group for alias %u addresses entries [%u, %u) beyond "
            "the bundle's %zu",
            group.alias, group.entry_begin,
            group.entry_begin + group.entry_count, message.entries.size()));
      }
      continue;
    }
    // Steady state first: a *bare* alias whose factor is already resolved
    // costs one 4-byte load — no fingerprint hash lookup per update. A
    // group that carries a fingerprint must take the slow path even when
    // cached, so a conflicting rebind is detected instead of silently
    // absorbed under the original binding.
    uint32_t replica = group.id.IsNil() &&
                               group.alias < link.replica_of_alias.size()
                           ? link.replica_of_alias[group.alias]
                           : kNoReplica;
    if (replica == kNoReplica) {
      FactorId id = group.id;
      if (!id.IsNil()) {
        // Binding declaration (first mention / loss refallback). Recorded
        // even when no replica exists here yet — the announcement may
        // still be in flight, and acking the binding is what lets the
        // sender drop the fingerprint once we can use the updates.
        Status bound = rx.Bind(group.alias, id);
        if (!bound.ok()) {
          const StatusCode bound_code = bound.code();
          if (status.ok()) status = std::move(bound);
          // Past the per-session alias cap the binding cannot be stored,
          // but the fingerprint in the group is still a complete, valid
          // address — absorb through it (degrading to PR 3 full-id
          // semantics for the overflow tail; the binding stays unacked,
          // so the sender keeps declaring it). A *conflicting* rebind, by
          // contrast, is dropped outright, mirroring the collision
          // policy: neither identity can be trusted.
          if (bound_code != StatusCode::kOutOfRange) continue;
          const auto overflow = replica_index_.find(id);
          if (overflow != replica_index_.end()) {
            for (const BeliefEntry& entry : message.EntriesOf(group)) {
              if (guarded) {
                AbsorbGuarded(from, link, overflow->second, entry,
                              message.value_bits, &status);
              } else {
                AbsorbResolved(overflow->second, entry.position, entry.belief);
              }
            }
          }
          continue;
        }
      } else if (group.alias < rx.id_of.size() &&
                 !rx.id_of[group.alias].IsNil()) {
        id = rx.id_of[group.alias];
      } else {
        if (status.ok()) status = rx.Resolve(group.alias).status();
        continue;
      }
      const auto it = replica_index_.find(id);
      if (it == replica_index_.end()) continue;  // closure unknown: ignore
      replica = it->second;
      if (group.alias >= link.replica_of_alias.size()) {
        link.replica_of_alias.resize(group.alias + 1, kNoReplica);
      }
      link.replica_of_alias[group.alias] = replica;
    }
    for (const BeliefEntry& entry : message.EntriesOf(group)) {
      if (guarded) {
        AbsorbGuarded(from, link, replica, entry, message.value_bits,
                      &status);
      } else {
        AbsorbResolved(replica, entry.position, entry.belief);
      }
    }
  }
  return status;
}

void Peer::AbsorbGuarded(PeerId from, PeerLink& link, uint32_t r,
                         const BeliefEntry& entry, uint32_t value_bits,
                         Status* status) {
  const ByzantineGuardOptions& guard = options_->byzantine_guard;
  const ReplicaHot& hot = replica_hot_[r];
  const Belief& received = entry.belief;
  // Numerically degenerate measures — NaN, ±inf, all-zero — are refused
  // so the pool only ever holds usable values, and counted, but NOT
  // scored: they can be honest fallout of a poisoned upstream product
  // (contradictory one-sided certainties multiply to {0, 0}; huge finite
  // lies overflow to ±inf one hop later), and punishing relays for their
  // neighbors' lies would cascade demotion through the honest
  // subnetwork. Scoring keys on provable protocol violations below.
  const bool nan_measure =
      std::isnan(received.correct) || std::isnan(received.incorrect);
  const bool negative =
      !nan_measure && (received.correct < 0.0 || received.incorrect < 0.0);
  if (nan_measure || std::isinf(received.correct) ||
      std::isinf(received.incorrect) ||
      (!negative && received.correct == 0.0 && received.incorrect == 0.0)) {
    ++link.guard_rejections;
    return;
  }
  // Admission proper: everything the unguarded path silently ignores
  // (malformed positions, forged own-member updates) plus semantic
  // validity is evidence here, rejected and scored instead of dropped.
  bool admitted = !negative;
  const char* reason = "negative measure";
  if (admitted && value_bits != 0) {
    // Declared-tier consistency: the quantum must lie within the
    // bundle's tier and the belief must be exactly its dequantized
    // realization — a sender cannot claim one precision and ship
    // another.
    if (entry.quant != kQuantPosInf && entry.quant != kQuantNegInf &&
        (entry.quant > QuantBound(value_bits) ||
         entry.quant < -QuantBound(value_bits))) {
      admitted = false;
      reason = "quantum outside the declared tier";
    } else {
      const Belief expected = DequantizeLogOdds(entry.quant, value_bits);
      if (received.correct != expected.correct ||
          received.incorrect != expected.incorrect) {
        admitted = false;
        reason = "belief inconsistent with its wire quantum";
      }
    }
  }
  if (admitted && entry.position >= hot.member_count) {
    admitted = false;
    reason = "position outside the factor scope";
  }
  if (admitted) {
    // Exactly one peer legitimately writes each slot: the member's
    // owner. Enforcing that here closes third-party overwrites (an
    // adversary poisoning a slot it does not own) and keeps the per-slot
    // equivocation / oscillation history attributable to one link — an
    // impersonator can no longer frame the honest owner.
    const PeerId owner = member_owner_pool_[hot.msg_base + entry.position];
    if (owner == id_) {
      admitted = false;
      reason = "update for a variable this peer owns";
    } else if (owner != from) {
      admitted = false;
      reason = "update for a variable the sender does not own";
    }
  }
  if (!admitted) {
    ++link.guard_rejections;
    link.guard_score += guard.admission_weight;
    if (status->ok()) {
      *status = Status::InvalidArgument(
          StrFormat("belief entry rejected at peer %u: %s", id_, reason));
    }
    return;
  }

  GuardSlot& slot = guard_slot_pool_[hot.msg_base + entry.position];
  const double log_odds = GuardLogOdds(received);
  if (slot.has_last && slot.last_round == round_ &&
      log_odds != slot.last_log_odds) {
    // Same-round conflicting value for one slot: equivocation. The first
    // value is kept. Re-sending the *same* value (a duplicated envelope)
    // falls through below as a clean idempotent overwrite.
    ++link.guard_equivocations;
    link.guard_score += guard.equivocation_weight;
    if (status->ok()) {
      *status = Status::FailedPrecondition(StrFormat(
          "equivocating belief entry at peer %u: conflicting values for one "
          "slot within round %llu",
          id_, static_cast<unsigned long long>(round_)));
    }
    return;
  }
  if (slot.has_last) {
    const double delta = log_odds - slot.last_log_odds;
    if (std::abs(delta) >= guard.flip_magnitude) {
      const int8_t dir = delta > 0.0 ? 1 : -1;
      if (dir == -slot.last_dir) {
        if (++slot.flips >= guard.oscillation_bound) {
          // Count every completed streak, but score at most one
          // oscillation event per link per round (GuardEndOfRound):
          // links carry many slots, and per-slot scoring would let a
          // poisoned honest relay — every slot thrashing secondhand —
          // accrue score proportional to its slot count.
          ++link.guard_oscillations;
          link.guard_round_oscillated = true;
          slot.flips = 0;
        }
      } else {
        slot.flips = 0;
      }
      slot.last_dir = dir;
    }
    link.guard_round_influence += std::abs(delta);
  } else {
    link.guard_round_influence += std::abs(log_odds);
  }
  ++link.guard_round_absorbed;
  slot.last_log_odds = log_odds;
  slot.last_round = round_;
  slot.has_last = true;
  // Admission checks above subsume AbsorbResolved's guards; write the
  // slot directly, damped toward the unit message on a soft-demoted link.
  var_to_factor_pool_[hot.msg_base + entry.position] =
      link.guard_demote_level >= 1 ? GuardDamped(received, guard.soft_damping)
                                   : received;
}

void Peer::GuardEndOfRound() {
  const ByzantineGuardOptions& guard = options_->byzantine_guard;
  // Influence outliers: a link whose mean absorbed |Δ log-odds| this
  // round dwarfs the median across still-clean links gets scored. The
  // median deliberately excludes suspects — colluding neighbors cannot
  // vouch each other back under it — and neighborhoods with fewer than
  // three clean reporting links skip the check (no meaningful quorum).
  std::vector<double> clean_means;
  clean_means.reserve(alias_links_.size());
  for (const PeerLink& link : alias_links_) {
    if (link.guard_demote_level == 0 && link.guard_round_absorbed > 0) {
      clean_means.push_back(link.guard_round_influence /
                            link.guard_round_absorbed);
    }
  }
  if (clean_means.size() >= 3) {
    std::sort(clean_means.begin(), clean_means.end());
    const double median = clean_means[clean_means.size() / 2];
    // The baseline is floored at flip_magnitude: in a mostly-converged
    // neighborhood the clean median collapses toward zero, and without
    // the floor every link still doing real work would dwarf it and be
    // scored as an "outlier".
    const double baseline = std::max(median, guard.flip_magnitude);
    if (baseline > 0.0) {
      for (PeerLink& link : alias_links_) {
        if (link.guard_demote_level != 0 || link.guard_round_absorbed == 0) {
          continue;
        }
        const double mean =
            link.guard_round_influence / link.guard_round_absorbed;
        if (mean > guard.outlier_ratio * baseline) {
          ++link.guard_outliers;
          link.guard_score += guard.outlier_weight;
        }
      }
    }
  }
  // Thresholds before decay, so a burst that crossed this round demotes
  // this round; decay then ages whatever remains. Demotion is sticky —
  // levels only ever rise — so replay from any snapshot reaches the
  // same decisions.
  for (size_t i = 0; i < alias_links_.size(); ++i) {
    PeerLink& link = alias_links_[i];
    if (link.guard_round_oscillated) {
      link.guard_score += guard.oscillation_weight;
      link.guard_round_oscillated = false;
    }
    if (link.guard_score >= guard.hard_threshold) {
      if (link.guard_demote_level < 2) {
        link.guard_demote_level = 2;
        // Quarantining stops FUTURE bundles; the lies already absorbed
        // would keep poisoning this peer's products (and its honest
        // neighbors, secondhand) forever. Reset every slot the liar
        // owns to the neutral measure so the subnetwork can heal.
        for (const auto& [peer, index] : alias_link_index_) {
          if (index == i) {
            PurgeGuardDeposits(peer);
            break;
          }
        }
      }
    } else if (link.guard_score >= guard.soft_threshold &&
               link.guard_demote_level < 1) {
      link.guard_demote_level = 1;
    }
    link.guard_score *= guard.score_decay;
    link.guard_round_influence = 0.0;
    link.guard_round_absorbed = 0;
  }
}

void Peer::PurgeGuardDeposits(PeerId peer) {
  for (const ReplicaHot& hot : replica_hot_) {
    for (uint32_t m = 0; m < hot.member_count; ++m) {
      const size_t slot = hot.msg_base + m;
      if (member_owner_pool_[slot] != peer) continue;
      var_to_factor_pool_[slot] = Belief::Unit();
      if (slot < guard_slot_pool_.size()) {
        guard_slot_pool_[slot] = GuardSlot{};
      }
    }
  }
}

double Peer::ComputeRound() {
  // Phase 1: factor -> variable messages for owned members, from the
  // var -> factor state of the previous round (synchronous flooding).
  // Streams only the flat hot array and the SoA pools: no cold replica
  // struct, no per-replica heap vector, no virtual factor dispatch.
  const bool damped = options_->damping > 0.0;
  for (const ReplicaHot& hot : replica_hot_) {
    const std::span<const Belief> incoming(
        var_to_factor_pool_.data() + hot.msg_base, hot.member_count);
    for (uint32_t i = 0; i < hot.owned_count; ++i) {
      const uint32_t pos = owned_pos_pool_[hot.owned_base + i];
      Belief& target = factor_to_var_pool_[hot.msg_base + pos];
      Belief computed =
          CycleFeedbackMessage(pos, incoming, hot.positive, hot.delta)
              .Rescaled();
      if (damped) {
        computed = target.DampedToward(computed, 1.0 - options_->damping);
      }
      target = computed;
    }
  }
  // Phase 2: variable -> factor messages for owned variables:
  // µ_{v->f} = prior(v) · Π_{f' ∋ v, f' ≠ f} µ_{f'->v}, computed for all
  // adjacent factors at once via prefix/suffix products (O(deg) per
  // variable instead of O(deg²)). The full product also yields the new
  // posterior, so the convergence residual comes out of the same pass
  // instead of a separate Posterior() sweep.
  double max_change = 0.0;
  for (VarState& var : vars_) {
    const size_t k = var.slots.size();
    if (k == 0) continue;
    const Belief prior = Belief::FromProbability(Prior(var.key));
    ExclusivePrefixSuffixProducts(
        k,
        [&](size_t j) -> const Belief& {
          return factor_to_var_pool_[replica_hot_[var.slots[j].first].msg_base +
                                     var.slots[j].second];
        },
        &prefix_scratch_, &suffix_scratch_);
    for (size_t j = 0; j < k; ++j) {
      const Belief message =
          (prior * prefix_scratch_[j] * suffix_scratch_[j + 1]).Rescaled();
      var_to_factor_pool_[replica_hot_[var.slots[j].first].msg_base +
                          var.slots[j].second] = message;
    }
    // Convergence metric: posterior change over owned variables, with the
    // ⊥ rule applied exactly as in PosteriorBelief.
    double now = (prior * prefix_scratch_[k]).Normalized().correct;
    if (var.key.attribute != MappingVarKey::kWholeMapping) {
      const SchemaMapping* m = mapping(var.key.edge);
      if (m == nullptr || !m->Apply(var.key.attribute).has_value()) now = 0.0;
    }
    if (var.has_last_posterior) {
      max_change = std::max(max_change, std::abs(now - var.last_posterior));
    } else {
      max_change = 1.0;  // first round with evidence: not converged
    }
    var.last_posterior = now;
    var.has_last_posterior = true;
  }
  // Residual-driven precision step-up (quantized wire values): every
  // outgoing link ratchets toward the tier this round's residual calls
  // for — monotone, so a peer restored from a snapshot continues the
  // same precision trajectory an uninterrupted run would have taken.
  if (options_->value_precision.error_budget > 0.0) {
    const uint32_t target = ValueRankTarget(
        options_->value_precision, max_change, options_->tolerance);
    for (PeerLink& link : alias_links_) {
      if (link.value_rank < target) {
        link.value_rank = static_cast<uint8_t>(target);
      }
    }
  }
  if (options_->byzantine_guard.enabled) GuardEndOfRound();
  // The round clock is maintained unconditionally (the guard's same-round
  // window and the chaos layer's draw key both read it); with both off
  // the increment touches nothing else.
  ++round_;
  return max_change;
}

void Peer::CollectOutgoingBeliefs(std::vector<Outgoing>* out) const {
  // The routing tables already hold recipients in ascending PeerId — the
  // determinism anchor for lossy transports — and every group to emit, so
  // this is a straight pour: no per-round map, no re-bucketing, no alias
  // lookup (the alias was negotiated when the route was built).
  out->clear();
  out->reserve(belief_routes_.size());
  const bool quantize = options_->value_precision.error_budget > 0.0;
  const ByzantinePlan& chaos = options_->byzantine;
  const bool adversarial = chaos.Enabled() && chaos.IsAdversary(id_);
  std::vector<FactorId> chaos_group_ids;
  for (const BeliefRoute& route : belief_routes_) {
    const PeerLink& link = alias_links_[route.link];
    const AliasLink& session = link.session;
    const AliasSessionTx& tx = session.tx;
    BeliefMessage bundle;
    bundle.epoch = alias_epoch_;
    // Piggybacked ack for the reverse session: how much of the sender's
    // numbering *we* have bound (0 until they have sent us anything).
    bundle.ack = session.rx.known_prefix;
    bundle.groups.reserve(route.groups.size());
    bundle.entries.reserve(route.entry_total);
    for (const auto& [replica, alias] : route.groups) {
      const ReplicaHot& hot = replica_hot_[replica];
      BeliefGroup group;
      group.alias = alias;
      group.entry_begin = static_cast<uint32_t>(bundle.entries.size());
      group.entry_count = hot.owned_count;
      // Unacknowledged binding: keep declaring the full fingerprint so a
      // dropped first mention degrades to full-id traffic, never to an
      // unknown alias at the receiver.
      if (alias >= tx.acked_prefix) group.id = replicas_[replica].id;
      for (uint32_t i = 0; i < hot.owned_count; ++i) {
        const uint32_t pos = owned_pos_pool_[hot.owned_base + i];
        bundle.entries.push_back(
            BeliefEntry{pos, var_to_factor_pool_[hot.msg_base + pos]});
      }
      bundle.groups.push_back(group);
    }
    // Quantize at construction, at the link's current precision tier:
    // every entry gets its wire quantum and the dequantized value the
    // receiver will observe — identically whether the bundle crosses a
    // socket (codec ships the quantum) or an in-memory transport (the
    // struct already carries the dequantized belief).
    if (quantize) {
      bundle.QuantizeValues(
          ValueRankBits(options_->value_precision, link.value_rank));
    }
    // Behavioral chaos: an adversarial peer poisons its own wire *after*
    // quantization, so forged entries stay tier-consistent and have to
    // be caught semantically by receivers, not syntactically. Draws are
    // keyed on (seed, round, global factor id, position) — replayable
    // and identical at every parallelism; local replica state stays
    // honest.
    if (adversarial) {
      chaos_group_ids.clear();
      chaos_group_ids.reserve(route.groups.size());
      for (const auto& [replica, alias] : route.groups) {
        chaos_group_ids.push_back(replicas_[replica].id);
      }
      ApplyByzantineFaults(chaos, id_, route.to, round_, chaos_group_ids,
                           &bundle);
    }
    Outgoing& outgoing = out->emplace_back();
    outgoing.to = route.to;
    outgoing.payload = std::move(bundle);
  }
}

bool Peer::HeardAllLinksWithin(uint64_t rounds) const {
  for (const BeliefRoute& route : belief_routes_) {
    const PeerLink& link = alias_links_[route.link];
    if (link.guard_demote_level >= 2) continue;  // dropped on arrival anyway
    if (link.heard == 0 || link.heard + rounds <= round_) return false;
  }
  return true;
}

std::vector<BeliefUpdate> Peer::PiggybackUpdatesFor(EdgeId edge) const {
  std::vector<BeliefUpdate> updates;
  const auto it = edge_vars_.find(edge);
  if (it == edge_vars_.end()) return updates;
  for (uint32_t v : it->second) {
    for (const auto& [replica, position] : vars_[v].slots) {
      updates.push_back(BeliefUpdate{
          replicas_[replica].id, position,
          var_to_factor_pool_[replica_hot_[replica].msg_base + position]});
    }
  }
  return updates;
}

std::vector<Peer::ReplicaView> Peer::ReplicaViews() const {
  std::vector<ReplicaView> views;
  views.reserve(replicas_.size());
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    const Replica& replica = replicas_[r];
    const std::span<const MappingVarKey> members = Members(r);
    views.push_back(ReplicaView{
        replica.id, replica.root_attribute, replica.sign,
        std::vector<MappingVarKey>(members.begin(), members.end()),
        replica.delta, replica.closure.kind});
  }
  return views;
}

std::vector<Peer::GuardLinkView> Peer::GuardViews() const {
  std::vector<GuardLinkView> views(alias_links_.size());
  for (const auto& [peer, index] : alias_link_index_) {
    views[index].peer = peer;
  }
  for (size_t i = 0; i < alias_links_.size(); ++i) {
    const PeerLink& link = alias_links_[i];
    GuardLinkView& view = views[i];
    view.score = link.guard_score;
    view.demote_level = link.guard_demote_level;
    view.rejections = link.guard_rejections;
    view.equivocations = link.guard_equivocations;
    view.oscillations = link.guard_oscillations;
    view.outliers = link.guard_outliers;
    view.dropped_bundles = link.guard_dropped_bundles;
  }
  return views;
}

uint64_t Peer::guard_rejected_entries() const {
  uint64_t total = 0;
  for (const PeerLink& link : alias_links_) {
    total += link.guard_rejections + link.guard_equivocations;
  }
  return total;
}

uint64_t Peer::guard_demoted_links() const {
  uint64_t total = 0;
  for (const PeerLink& link : alias_links_) {
    if (link.guard_demote_level >= 1) ++total;
  }
  return total;
}

uint64_t Peer::guard_quarantined_links() const {
  uint64_t total = 0;
  for (const PeerLink& link : alias_links_) {
    if (link.guard_demote_level >= 2) ++total;
  }
  return total;
}

size_t Peer::RemoteMessageBound() const {
  size_t bound = 0;
  for (const ReplicaHot& hot : replica_hot_) {
    bound += hot.owned_count * (hot.member_count - 1);
  }
  return bound;
}

// --- Durable state --------------------------------------------------------------

Peer::Image Peer::CaptureImage() const {
  Image image;
  image.mappings = mappings_;
  image.replicas = replicas_;
  image.replica_hot = replica_hot_;
  image.var_to_factor_pool = var_to_factor_pool_;
  image.factor_to_var_pool = factor_to_var_pool_;
  image.member_pool = member_pool_;
  image.member_owner_pool = member_owner_pool_;
  image.owned_pos_pool = owned_pos_pool_;
  image.belief_routes = belief_routes_;
  image.links.resize(alias_links_.size());
  for (const auto& [peer, index] : alias_link_index_) {
    image.links[index].peer = peer;
  }
  for (size_t i = 0; i < alias_links_.size(); ++i) {
    const PeerLink& link = alias_links_[i];
    LinkImage& out = image.links[i];
    // Aliases are assigned densely, so inverting the transmit map into an
    // alias-indexed vector is lossless.
    out.tx_id_by_alias.assign(link.session.tx.next_alias, FactorId{});
    for (const auto& [id, alias] : link.session.tx.alias_of) {
      out.tx_id_by_alias[alias] = id;
    }
    out.tx_acked_prefix = link.session.tx.acked_prefix;
    out.rx_id_of = link.session.rx.id_of;
    out.rx_known_prefix = link.session.rx.known_prefix;
    out.replica_of_alias = link.replica_of_alias;
    out.value_rank = link.value_rank;
    out.guard_score = link.guard_score;
    out.guard_demote_level = link.guard_demote_level;
    out.guard_rejections = link.guard_rejections;
    out.guard_equivocations = link.guard_equivocations;
    out.guard_oscillations = link.guard_oscillations;
    out.guard_outliers = link.guard_outliers;
    out.guard_dropped_bundles = link.guard_dropped_bundles;
    out.guard_round_influence = link.guard_round_influence;
    out.guard_round_absorbed = link.guard_round_absorbed;
  }
  image.alias_epoch = alias_epoch_;
  image.guard_slot_pool = guard_slot_pool_;
  image.round = round_;
  image.vars = vars_;
  image.announced.assign(announced_.begin(), announced_.end());
  std::sort(image.announced.begin(), image.announced.end());
  image.seen_queries.assign(seen_queries_.begin(), seen_queries_.end());
  std::sort(image.seen_queries.begin(), image.seen_queries.end());
  image.probe_cache.reserve(probe_cache_.size());
  for (const auto& [origin, probes] : probe_cache_) {
    image.probe_cache.emplace_back(origin, probes);
  }
  std::sort(image.probe_cache.begin(), image.probe_cache.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return image;
}

void Peer::RestoreImage(const Image& image) { RestoreImage(Image(image)); }

void Peer::RestoreImage(Image&& image) {
  mappings_ = std::move(image.mappings);
  replicas_ = std::move(image.replicas);
  replica_hot_ = std::move(image.replica_hot);
  var_to_factor_pool_ = std::move(image.var_to_factor_pool);
  factor_to_var_pool_ = std::move(image.factor_to_var_pool);
  member_pool_ = std::move(image.member_pool);
  member_owner_pool_ = std::move(image.member_owner_pool);
  owned_pos_pool_ = std::move(image.owned_pos_pool);
  belief_routes_ = std::move(image.belief_routes);
  alias_links_.clear();
  alias_links_.resize(image.links.size());
  alias_link_index_.clear();
  alias_link_index_.reserve(image.links.size());
  for (size_t i = 0; i < image.links.size(); ++i) {
    LinkImage& in = image.links[i];
    PeerLink& link = alias_links_[i];
    link.session.tx.next_alias = static_cast<uint32_t>(in.tx_id_by_alias.size());
    link.session.tx.acked_prefix = in.tx_acked_prefix;
    for (uint32_t alias = 0; alias < in.tx_id_by_alias.size(); ++alias) {
      if (!in.tx_id_by_alias[alias].IsNil()) {
        link.session.tx.alias_of.emplace(in.tx_id_by_alias[alias], alias);
      }
    }
    link.session.rx.id_of = std::move(in.rx_id_of);
    link.session.rx.known_prefix = in.rx_known_prefix;
    link.replica_of_alias = std::move(in.replica_of_alias);
    link.value_rank = static_cast<uint8_t>(in.value_rank);
    link.guard_score = in.guard_score;
    link.guard_demote_level = static_cast<uint8_t>(in.guard_demote_level);
    link.guard_rejections = in.guard_rejections;
    link.guard_equivocations = in.guard_equivocations;
    link.guard_oscillations = in.guard_oscillations;
    link.guard_outliers = in.guard_outliers;
    link.guard_dropped_bundles = in.guard_dropped_bundles;
    link.guard_round_influence = in.guard_round_influence;
    link.guard_round_absorbed = in.guard_round_absorbed;
    alias_link_index_.emplace_back(in.peer, static_cast<uint32_t>(i));
  }
  std::sort(alias_link_index_.begin(), alias_link_index_.end());
  alias_epoch_ = image.alias_epoch;
  guard_slot_pool_ = std::move(image.guard_slot_pool);
  round_ = image.round;
  vars_ = std::move(image.vars);
  var_index_.clear();
  edge_vars_.clear();
  // Re-intern in stored order, reproducing the original `InternVar`
  // sequence bit for bit (each edge's index list stays ascending).
  for (uint32_t v = 0; v < vars_.size(); ++v) {
    var_index_.emplace(vars_[v].key.Packed(), v);
    edge_vars_[vars_[v].key.edge].push_back(v);
  }
  replica_index_.clear();
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    replica_index_.emplace(replicas_[r].id, r);
  }
  announced_.clear();
  announced_.insert(image.announced.begin(), image.announced.end());
  seen_queries_.clear();
  seen_queries_.insert(image.seen_queries.begin(), image.seen_queries.end());
  probe_cache_.clear();
  for (auto& [origin, probes] : image.probe_cache) {
    probe_cache_.emplace(origin, std::move(probes));
  }
}

// --- Probes & discovery --------------------------------------------------------

namespace {

/// Whether `next` could still act on a probe from `origin` that reaches it
/// `length` hops long with `ttl` hops left, `origin_is_min` saying that no
/// id on the route before `next` is below the origin. Mirrors the checks
/// `HandleProbe` runs on arrival, so pruning by it never loses a closure:
/// - at its origin the probe only counts if it closes a cycle of allowed
///   length rooted at the route's minimum id (the canonical-root rule);
/// - elsewhere a route of at most `max_path_length` hops is cached and
///   paired for parallel paths;
/// - a longer route only matters if it can still come back to its origin
///   as a canonical cycle: `next` forwards it (hops left, room for one more
///   mapping) and is not below the origin itself.
bool ProbeCanClose(const ClosureFinderOptions& limits, PeerId origin,
                   bool origin_is_min, uint32_t ttl, size_t length,
                   NodeId next) {
  if (next == origin) {
    return origin_is_min && length >= limits.min_cycle_length &&
           length <= limits.max_cycle_length;
  }
  if (length <= limits.max_path_length) return true;
  return origin_is_min && next > origin && ttl > 0 &&
         length < limits.max_cycle_length;
}

}  // namespace

std::vector<Outgoing> Peer::StartProbes() const {
  std::vector<Outgoing> out;
  if (options_->probe_ttl == 0) return out;
  for (const auto& [edge, mapping] : mappings_) {
    if (!ProbeCanClose(options_->closure_limits, id_, /*origin_is_min=*/true,
                       options_->probe_ttl - 1, 1, graph_->edge(edge).dst)) {
      continue;
    }
    ProbeMessage probe;
    probe.origin = id_;
    probe.ttl = options_->probe_ttl - 1;
    probe.route = {edge};
    std::vector<std::optional<AttributeId>> images(schema_.size());
    for (AttributeId a = 0; a < schema_.size(); ++a) {
      images[a] = mapping.Apply(a);
    }
    probe.trail = {std::move(images)};
    Outgoing& outgoing = out.emplace_back();
    outgoing.to = graph_->edge(edge).dst;
    outgoing.via = edge;
    outgoing.payload = std::move(probe);
  }
  return out;
}

std::vector<NodeId> Peer::RouteNodes(const std::vector<EdgeId>& route) const {
  std::vector<NodeId> nodes;
  nodes.reserve(route.size() + 1);
  if (!route.empty()) nodes.push_back(graph_->edge(route[0]).src);
  for (EdgeId edge : route) nodes.push_back(graph_->edge(edge).dst);
  return nodes;
}

bool Peer::RoutesIndependent(const std::vector<EdgeId>& a,
                             const std::vector<EdgeId>& b) const {
  for (EdgeId ea : a) {
    if (std::find(b.begin(), b.end(), ea) != b.end()) return false;
  }
  const std::vector<NodeId> nodes_a = RouteNodes(a);
  const std::vector<NodeId> nodes_b = RouteNodes(b);
  // Interior nodes exclude the shared source (front) and sink (back).
  for (size_t i = 1; i + 1 < nodes_a.size(); ++i) {
    for (size_t j = 1; j + 1 < nodes_b.size(); ++j) {
      if (nodes_a[i] == nodes_b[j]) return false;
    }
  }
  return true;
}

std::vector<AttributeFeedback> Peer::CycleFeedback(
    const ProbeMessage& probe) const {
  std::vector<AttributeFeedback> feedback;
  const size_t attr_count = probe.trail.empty() ? 0 : probe.trail[0].size();
  for (AttributeId a = 0; a < attr_count; ++a) {
    AttributeFeedback entry;
    entry.root_attribute = a;
    entry.members.push_back(MappingVarKey{probe.route[0], a});
    bool broken = false;
    for (size_t hop = 1; hop < probe.route.size(); ++hop) {
      const std::optional<AttributeId> image = probe.trail[hop - 1][a];
      if (!image.has_value()) {
        broken = true;
        break;
      }
      entry.members.push_back(MappingVarKey{probe.route[hop], *image});
    }
    const std::optional<AttributeId> final_image = probe.trail.back()[a];
    if (broken || !final_image.has_value()) {
      entry.sign = FeedbackSign::kNeutral;
    } else {
      entry.sign = *final_image == a ? FeedbackSign::kPositive
                                     : FeedbackSign::kNegative;
    }
    feedback.push_back(std::move(entry));
  }
  return feedback;
}

std::vector<AttributeFeedback> Peer::ParallelFeedback(
    const ProbeMessage& first, const ProbeMessage& second) const {
  std::vector<AttributeFeedback> feedback;
  const size_t attr_count = first.trail.empty() ? 0 : first.trail[0].size();
  for (AttributeId a = 0; a < attr_count; ++a) {
    AttributeFeedback entry;
    entry.root_attribute = a;
    bool broken = false;
    auto add_chain = [&](const ProbeMessage& probe) {
      entry.members.push_back(MappingVarKey{probe.route[0], a});
      for (size_t hop = 1; hop < probe.route.size(); ++hop) {
        const std::optional<AttributeId> image = probe.trail[hop - 1][a];
        if (!image.has_value()) {
          broken = true;
          return;
        }
        entry.members.push_back(MappingVarKey{probe.route[hop], *image});
      }
    };
    add_chain(first);
    add_chain(second);
    const std::optional<AttributeId> image1 = first.trail.back()[a];
    const std::optional<AttributeId> image2 = second.trail.back()[a];
    if (broken || !image1.has_value() || !image2.has_value()) {
      entry.sign = FeedbackSign::kNeutral;
    } else {
      entry.sign = *image1 == *image2 ? FeedbackSign::kPositive
                                      : FeedbackSign::kNegative;
    }
    feedback.push_back(std::move(entry));
  }
  return feedback;
}

std::vector<AttributeFeedback> Peer::CoarsenFeedback(
    std::vector<AttributeFeedback> fine) {
  bool any_negative = false;
  bool any_positive = false;
  std::vector<MappingVarKey> members;
  for (const AttributeFeedback& entry : fine) {
    if (entry.sign == FeedbackSign::kNegative) any_negative = true;
    if (entry.sign == FeedbackSign::kPositive) any_positive = true;
    if (members.empty()) {
      for (const MappingVarKey& var : entry.members) {
        members.push_back(MappingVarKey{var.edge, MappingVarKey::kWholeMapping});
      }
    }
  }
  AttributeFeedback coarse;
  coarse.root_attribute = MappingVarKey::kWholeMapping;
  coarse.members = std::move(members);
  coarse.sign = any_negative  ? FeedbackSign::kNegative
                : any_positive ? FeedbackSign::kPositive
                               : FeedbackSign::kNeutral;
  return {std::move(coarse)};
}

void Peer::AnnounceToOwners(const FeedbackAnnouncement& announcement,
                            std::vector<Outgoing>* out) const {
  std::vector<PeerId> owners;
  for (EdgeId edge : announcement.closure.edges) {
    if (graph_->edge_alive(edge)) owners.push_back(graph_->edge(edge).src);
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  for (PeerId owner : owners) {
    out->push_back(Outgoing{owner, std::nullopt, announcement});
  }
}

std::vector<Outgoing> Peer::HandleProbe(const ProbeMessage& probe) {
  std::vector<Outgoing> out;
  const auto& limits = options_->closure_limits;

  if (probe.origin == id_) {
    // Cycle closed (Section 3.2.1). Only the minimum-id peer on the cycle
    // announces it: every peer's probe traverses the same physical cycle,
    // and rooting the factor at a canonical peer prevents the same
    // comparison from being double-counted as several factors.
    const std::vector<NodeId> nodes = RouteNodes(probe.route);
    const bool canonical_root =
        *std::min_element(nodes.begin(), nodes.end()) == id_;
    const size_t length = probe.route.size();
    if (canonical_root && length >= limits.min_cycle_length &&
        length <= limits.max_cycle_length) {
      Closure closure;
      closure.kind = Closure::Kind::kCycle;
      closure.edges = probe.route;
      closure.split = probe.route.size();
      closure.source = id_;
      closure.sink = id_;
      const FactorId base = FactorId::Make(closure, 0);
      if (announced_.insert(base).second) {
        FeedbackAnnouncement announcement;
        announcement.closure = std::move(closure);
        announcement.delta = EffectiveDelta();
        announcement.feedback = CycleFeedback(probe);
        if (options_->granularity == Granularity::kCoarse) {
          announcement.feedback =
              CoarsenFeedback(std::move(announcement.feedback));
        }
        AnnounceToOwners(announcement, &out);
      }
    }
    return out;  // Probes stop at their origin.
  }

  // Parallel-path detection (Section 3.3): pair this probe against cached
  // probes from the same origin arriving via an independent route.
  if (probe.route.size() <= limits.max_path_length) {
    for (const ProbeMessage& cached : probe_cache_[probe.origin]) {
      if (cached.route.size() > limits.max_path_length) continue;
      if (!RoutesIndependent(cached.route, probe.route)) continue;
      // Canonical path order (lexicographically smaller edge sequence
      // first) so the same physical pair always yields the same closure —
      // regardless of probe arrival order across discovery rounds.
      const ProbeMessage* first = &cached;
      const ProbeMessage* second = &probe;
      if (second->route < first->route) std::swap(first, second);
      Closure closure;
      closure.kind = Closure::Kind::kParallelPaths;
      closure.edges = first->route;
      closure.edges.insert(closure.edges.end(), second->route.begin(),
                           second->route.end());
      closure.split = first->route.size();
      closure.source = probe.origin;
      closure.sink = id_;
      const FactorId base = FactorId::Make(closure, 0);
      if (!announced_.insert(base).second) continue;
      FeedbackAnnouncement announcement;
      announcement.closure = std::move(closure);
      announcement.delta = EffectiveDelta();
      announcement.feedback = ParallelFeedback(*first, *second);
      if (options_->granularity == Granularity::kCoarse) {
        announcement.feedback =
            CoarsenFeedback(std::move(announcement.feedback));
      }
      AnnounceToOwners(announcement, &out);
    }
    auto& cache = probe_cache_[probe.origin];
    if (cache.size() < options_->max_cached_probes) cache.push_back(probe);
  }

  // Forward (flooding with TTL, simple routes only) to the neighbors that
  // could still act on the probe.
  const size_t max_route = std::max(limits.max_cycle_length,
                                    limits.max_path_length);
  if (probe.ttl == 0 || probe.route.size() >= max_route) return out;
  const std::vector<NodeId> visited = RouteNodes(probe.route);
  const bool origin_is_min =
      std::all_of(visited.begin(), visited.end(),
                  [&](NodeId node) { return node >= probe.origin; });
  for (const auto& [edge, mapping] : mappings_) {
    const NodeId next = graph_->edge(edge).dst;
    // Simple routes: never revisit an interior node; returning to the
    // origin is allowed (that closes a cycle).
    if (next != probe.origin &&
        std::find(visited.begin(), visited.end(), next) != visited.end()) {
      continue;
    }
    if (!ProbeCanClose(limits, probe.origin, origin_is_min, probe.ttl - 1,
                       probe.route.size() + 1, next)) {
      continue;
    }
    ProbeMessage forwarded = probe;
    forwarded.ttl = probe.ttl - 1;
    forwarded.route.push_back(edge);
    std::vector<std::optional<AttributeId>> images(probe.trail.back().size());
    for (size_t a = 0; a < images.size(); ++a) {
      const std::optional<AttributeId> current = probe.trail.back()[a];
      images[a] = current.has_value() ? mapping.Apply(*current) : std::nullopt;
    }
    forwarded.trail.push_back(std::move(images));
    out.push_back(Outgoing{next, edge, std::move(forwarded)});
  }
  return out;
}

// --- Queries --------------------------------------------------------------------

bool Peer::GateAllows(EdgeId edge, AttributeId attribute) const {
  const SchemaMapping* m = mapping(edge);
  if (m == nullptr || !m->Apply(attribute).has_value()) return false;
  const MappingVarKey var =
      options_->granularity == Granularity::kCoarse
          ? MappingVarKey{edge, MappingVarKey::kWholeMapping}
          : MappingVarKey{edge, attribute};
  if (!HasEvidence(var)) return options_->forward_without_evidence;
  return Posterior(var) > options_->theta;
}

QueryActions Peer::ProcessQuery(const QueryMessage& message,
                                bool piggyback_beliefs) {
  QueryActions actions;
  if (!seen_queries_.insert(message.query_id).second) return actions;

  actions.rows = store_.Execute(message.query);

  if (message.ttl == 0) return actions;
  for (const auto& [edge, mapping] : mappings_) {
    const NodeId next = graph_->edge(edge).dst;
    if (std::find(message.visited.begin(), message.visited.end(), next) !=
        message.visited.end()) {
      continue;
    }
    bool allowed = true;
    for (AttributeId attribute : message.query.Attributes()) {
      if (!GateAllows(edge, attribute)) {
        allowed = false;
        break;
      }
    }
    if (!allowed) {
      actions.blocked_edges.push_back(edge);
      continue;
    }
    Result<Query> translated = message.query.Translate(mapping);
    if (!translated.ok()) {  // ⊥ slipped through: treat as blocked.
      actions.blocked_edges.push_back(edge);
      continue;
    }
    QueryMessage forwarded;
    forwarded.query_id = message.query_id;
    forwarded.origin = message.origin;
    forwarded.ttl = message.ttl - 1;
    forwarded.query = std::move(translated).value();
    forwarded.visited = message.visited;
    forwarded.visited.push_back(id_);
    if (piggyback_beliefs) {
      forwarded.piggyback = PiggybackUpdatesFor(edge);
      // Also relay foreign belief messages riding on the incoming query
      // (gossip-style dissemination, Section 4.3.2).
      forwarded.piggyback.insert(forwarded.piggyback.end(),
                                 message.piggyback.begin(),
                                 message.piggyback.end());
    }
    actions.forwards.push_back(Outgoing{next, edge, std::move(forwarded)});
  }
  return actions;
}

}  // namespace pdms
