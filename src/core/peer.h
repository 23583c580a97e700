#ifndef PDMS_CORE_PEER_H_
#define PDMS_CORE_PEER_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/options.h"
#include "factor/factor.h"
#include "graph/digraph.h"
#include "net/message.h"
#include "query/document_store.h"
#include "query/query.h"

namespace pdms {

/// A message a peer wants delivered.
struct Outgoing {
  PeerId to = 0;
  std::optional<EdgeId> via;
  Payload payload;
};

/// Outcome of local query processing.
struct QueryActions {
  /// Rows produced by the local database.
  std::vector<ResultRow> rows;
  /// Translated queries to forward (θ-gate passed).
  std::vector<Outgoing> forwards;
  /// Mapping links the θ-gate blocked.
  std::vector<EdgeId> blocked_edges;
};

// --- Adaptive value-precision tiers --------------------------------------------
//
// Under a value error budget (EngineOptions::value_precision) every belief
// link carries a monotone precision tier: coarse quanta while the sending
// peer's residual is large, stepping to fine — and optionally back to
// exact raw doubles — as convergence nears. The tier is transmit-side
// state only (bundles are self-describing), so step-ups survive loss and
// mixed-precision traffic trivially.

/// Number of value-precision tiers (coarse, mid, fine, exact).
inline constexpr uint32_t kValueRankCount = 4;
/// The tier whose bundles return to raw doubles.
inline constexpr uint32_t kValueRankExact = 3;

/// Fractional log-odds bits a bundle at `rank` uses under `precision`:
/// fine = ValueBitsForBudget(budget), mid/coarse = 3/6 fewer bits
/// (clamped at 2), exact = 0 (raw doubles). With `adaptive` false, every
/// rank below exact collapses to the fine tier.
uint32_t ValueRankBits(const ValuePrecisionOptions& precision, uint32_t rank);

/// Target tier for a peer whose last round's max posterior change was
/// `residual`: coarse above 64ε, mid above 8ε, fine below — and exact
/// once the residual clears `tolerance`, when `exact_at_convergence` is
/// set. Links only ever step toward this target, never back.
uint32_t ValueRankTarget(const ValuePrecisionOptions& precision,
                         double residual, double tolerance);

/// One autonomous peer database: schema, documents, outgoing mappings, and
/// the peer's fragment of the global factor graph (Section 4.1).
///
/// A peer stores one factor replica per announced (closure, root-attribute)
/// pair touching any of its outgoing mappings, together with the last
/// var->factor message received from each foreign variable. Everything the
/// peer computes uses only this local state plus incoming messages — the
/// decentralization claim of the paper, made literal. Because rounds are
/// strictly peer-local, the engine may execute `ComputeRound` for distinct
/// peers on distinct threads; a single `Peer` is not itself thread-safe.
///
/// Hot-path layout: replicas and mapping variables are interned into dense
/// arrays (`replicas_`, `vars_`) indexed by 128-bit `FactorId` fingerprints
/// (identity-hashed — no string keys anywhere past ingest), and each
/// variable keeps its (replica, position) slots. *All* per-replica hot
/// state lives in contiguous structure-of-arrays pools addressed by
/// base/length offsets from the flat `ReplicaHot` array: the message pools
/// (`var_to_factor_pool_`, `factor_to_var_pool_`, slot = `msg_base +
/// position`), the member scope and its owners (`member_pool_`,
/// `member_owner_pool_`, same slots), and the owned positions
/// (`owned_pos_pool_`). `ComputeRound` and `AbsorbBeliefUpdate` therefore
/// touch no per-replica heap vectors at all — the cold `Replica` structs
/// exist only for ingest, introspection and rebuilds — and perform no heap
/// allocation after the first round with a given evidence set. Outgoing
/// belief bundles are emitted from per-recipient routing tables
/// precomputed at ingest, with factor identity compressed to link-local
/// session aliases (`AliasSessionTx`/`AliasSessionRx` in net/message.h).
class Peer {
 public:
  /// `graph` is the shared topology (used only to resolve edge endpoints,
  /// information a real deployment would carry in probe metadata).
  Peer(PeerId id, Schema schema, const Digraph* graph,
       const EngineOptions* options);

  PeerId id() const { return id_; }
  const Schema& schema() const { return schema_; }
  DocumentStore& store() { return store_; }
  const DocumentStore& store() const { return store_; }

  // --- Mappings -------------------------------------------------------------

  /// Registers the outgoing mapping for `edge` (this peer must be its
  /// source). Fails with `AlreadyExists` on duplicates.
  Status AddMapping(EdgeId edge, SchemaMapping mapping);

  /// Drops a mapping and every factor replica that references it (churn).
  void RemoveMapping(EdgeId edge);

  /// The outgoing mapping stored for `edge`, or nullptr.
  const SchemaMapping* mapping(EdgeId edge) const;

  std::vector<EdgeId> OutgoingEdges() const;

  // --- Priors & posteriors ----------------------------------------------------

  /// Sets explicit prior belief for one mapping variable (expert
  /// validation, Section 4.4). Resets the variable's evidence history.
  void SetPrior(const MappingVarKey& var, double prior);
  double Prior(const MappingVarKey& var) const;

  /// Posterior P(var = correct). Follows the ⊥ rule: if the mapping has no
  /// image for the attribute, the posterior is 0 (Section 3.2.1). Without
  /// any feedback evidence, returns the prior.
  double Posterior(const MappingVarKey& var) const;
  Belief PosteriorBelief(const MappingVarKey& var) const;

  /// Whether any factor replica references (edge, attribute).
  bool HasEvidence(const MappingVarKey& var) const;

  /// EM-style prior update (Section 4.4): records the current posterior of
  /// every owned variable with evidence as a new observation and sets
  /// prior = mean of observations (the initial prior counts as the first).
  void UpdatePriorsFromPosteriors();

  // --- Embedded message passing ----------------------------------------------

  /// Ingests an announced closure + feedback (creates factor replicas).
  /// Atomic: every entry is validated against the stored replicas (and the
  /// announcement's own earlier entries) before anything is applied, so a
  /// fingerprint-collision error leaves the peer exactly as it was — no
  /// partially-ingested announcement, no routing tables rebuilt for a
  /// dropped factor.
  Status IngestFeedback(const FeedbackAnnouncement& announcement);

  /// Registers one factor replica under an explicit id. The normal path
  /// (`IngestFeedback`) derives the id from the closure content; this
  /// entry point is the seam for wire-level replay and for exercising the
  /// collision check directly. Fails with `FailedPrecondition` when `id`
  /// is already bound to a replica with *different* factor identity
  /// (closure structure, root attribute, or member sequence — a
  /// fingerprint collision); re-ingesting the same identity is an
  /// idempotent no-op. Sign and ∆ are *observations*, not identity: a
  /// re-announcement of a known factor with a different sign or ∆ keeps
  /// the first observation (first-wins, matching the pre-fingerprint
  /// behavior) rather than being treated as a collision.
  Status IngestFactor(const FactorId& id, const Closure& closure,
                      const AttributeFeedback& feedback, double delta);

  /// Stores a remote var->factor message. O(1): the update addresses the
  /// factor by fingerprint and the variable by member position. This is
  /// the piggyback (full-fingerprint) path; bundled belief traffic goes
  /// through `AbsorbBeliefBundle`.
  void AbsorbBeliefUpdate(const BeliefUpdate& update);

  /// Absorbs one alias-grouped belief bundle from `from`, maintaining the
  /// receive side of the (from -> this) alias session: binding
  /// declarations are recorded, bare aliases resolved, and the bundle's
  /// `ack` advances the transmit session toward `from`. Returns the first
  /// protocol error — stale epoch, unknown or out-of-range alias, alias
  /// rebind — while still absorbing the remaining well-formed groups
  /// (the engine logs and drops; unlike `IngestFeedback`, belief traffic
  /// is idempotent state, so partial absorption cannot corrupt anything).
  /// Updates for factors this peer has no replica of (announcement
  /// lost or not yet delivered) are silently ignored, exactly like the
  /// full-fingerprint path.
  Status AbsorbBeliefBundle(PeerId from, const BeliefMessage& message);

  /// Executes one local inference round: recomputes factor->var messages
  /// from stored var->factor state, then var->factor messages for owned
  /// variables. Returns the max normalized posterior change.
  double ComputeRound();

  /// Remote messages to the other owners of this peer's factor replicas,
  /// bundled per recipient in ascending-PeerId order (the Section 4.3.1
  /// periodic payload). Bundles are emitted straight from the precomputed
  /// routing tables into `*out`, which is cleared first and may be reused
  /// across rounds as an arena — per-bundle sizes are known up front, so
  /// the only allocations are the exact-size group/entry vectors handed to
  /// the transport. Factor identity is carried as the session alias; the
  /// full fingerprint rides along only while the recipient's ack does not
  /// yet cover the alias (first mention, or refallback after loss).
  void CollectOutgoingBeliefs(std::vector<Outgoing>* out) const;

  /// True if every belief link — each recipient of this peer's outgoing
  /// bundles, hard-quarantined links exempt — delivered a bundle that fed
  /// one of the last `rounds` `ComputeRound`s. The freshness half of the
  /// engine's convergence verdict: a quiet round only counts once every
  /// neighbor has actually been heard since the posteriors last moved.
  bool HeardAllLinksWithin(uint64_t rounds) const;

  /// Belief updates pertaining to mapping `edge` (for lazy piggybacking,
  /// Section 4.3.2).
  std::vector<BeliefUpdate> PiggybackUpdatesFor(EdgeId edge) const;

  /// Number of factor replicas currently stored.
  size_t replica_count() const { return replicas_.size(); }

  // --- Byzantine guard introspection -------------------------------------------

  /// One neighbor link's misbehavior state under the admission guard
  /// (`EngineOptions::byzantine_guard`); all zeros when the guard is off.
  struct GuardLinkView {
    PeerId peer = 0;
    /// Decaying misbehavior score (see ByzantineGuardOptions weights).
    double score = 0.0;
    /// 0 = normal, 1 = soft-demoted (beliefs damped toward uniform),
    /// 2 = hard-quarantined (bundles dropped). Sticky.
    uint32_t demote_level = 0;
    uint64_t rejections = 0;     ///< admission-rejected entries
    uint64_t equivocations = 0;  ///< same-round conflicting values
    uint64_t oscillations = 0;   ///< flip streaks beyond the bound
    uint64_t outliers = 0;       ///< influence-outlier rounds
    uint64_t dropped_bundles = 0;  ///< bundles dropped while quarantined
  };
  /// Per-neighbor guard state, in link-intern order.
  std::vector<GuardLinkView> GuardViews() const;

  /// Totals across links (node/engine stats).
  uint64_t guard_rejected_entries() const;
  /// Links at demote level >= 1 / exactly 2.
  uint64_t guard_demoted_links() const;
  uint64_t guard_quarantined_links() const;

  /// Read-only summary of one stored factor replica (engine introspection:
  /// global-factor-graph reconstruction, baselines, debugging).
  struct ReplicaView {
    FactorId id;
    AttributeId root_attribute = 0;
    FeedbackSign sign = FeedbackSign::kNeutral;
    std::vector<MappingVarKey> members;
    double delta = 0.1;
    Closure::Kind kind = Closure::Kind::kCycle;
  };
  std::vector<ReplicaView> ReplicaViews() const;

  /// Per-period remote-message bound: Σ over replicas of
  /// own_members · (l − 1). On directed simple cycles a peer owns exactly
  /// one member, so this reduces to the paper's Σ_ci (l_ci − 1) bound
  /// (Section 4.3.1); parallel-path sources own both path heads and get
  /// the correspondingly larger bound.
  size_t RemoteMessageBound() const;

  // --- Probes & discovery -----------------------------------------------------

  /// Emits this peer's initial probes: one per outgoing mapping whose
  /// receiver could act on it (see `HandleProbe`).
  std::vector<Outgoing> StartProbes() const;

  /// Handles an arriving probe: may complete a cycle, detect parallel
  /// paths (announcing feedback to member owners), and forward the probe
  /// to the neighbors that could still act on it (see
  /// `EngineOptions::probe_ttl`). The checks on arrival do not assume the
  /// sender pruned.
  std::vector<Outgoing> HandleProbe(const ProbeMessage& probe);

  // --- Queries ----------------------------------------------------------------

  /// Processes an arriving (or locally issued) query: executes it against
  /// the local store and prepares θ-gated forwards. `piggyback_beliefs`
  /// appends this peer's belief messages to forwarded queries (lazy
  /// schedule).
  QueryActions ProcessQuery(const QueryMessage& message,
                            bool piggyback_beliefs);

  /// Whether this peer already processed the given query id.
  bool SawQuery(uint64_t query_id) const {
    return seen_queries_.count(query_id) > 0;
  }

  // --- Durable state ------------------------------------------------------------

  /// One replicated feedback factor (Section 4.1 local factor graph) —
  /// cold metadata only, touched at ingest, rebuild and introspection
  /// time. Everything a round needs lives in the SoA pools, addressed
  /// through the parallel `ReplicaHot` entry: members and their owners at
  /// [msg_base, msg_base + member_count) of the member pools (the same
  /// slots as the message pools), owned positions at [owned_base,
  /// owned_base + owned_count) of `owned_pos_pool_`.
  struct Replica {
    FactorId id;
    Closure closure;
    AttributeId root_attribute = 0;
    FeedbackSign sign = FeedbackSign::kNeutral;
    double delta = 0.1;
    /// Distinct owners of foreign members, ascending (belief recipients).
    std::vector<PeerId> other_owners;
  };

  /// Flat per-replica hot state: every field `ComputeRound` /
  /// `AbsorbBeliefUpdate` needs, in one cache-friendly array — pool
  /// offsets plus the factor function's two parameters (the message math
  /// itself is the free kernel `CycleFeedbackMessage`).
  struct ReplicaHot {
    uint32_t msg_base = 0;
    uint32_t member_count = 0;
    uint32_t owned_base = 0;
    uint32_t owned_count = 0;
    double delta = 0.1;
    bool positive = false;
  };

  /// Precomputed outgoing-belief route: one wire group per replica whose
  /// updates this recipient receives, in emission order. The group's
  /// entries are always the replica's full owned-position set, so only the
  /// replica index and the negotiated session alias are stored.
  struct BeliefRoute {
    PeerId to = 0;
    /// Index of the recipient's session in `alias_links_`.
    uint32_t link = 0;
    /// Total entries across `groups` (Σ owned_count), so collect reserves
    /// the bundle's flat entry array without a counting pre-pass.
    uint32_t entry_total = 0;
    /// (replica index, session alias), ascending by replica index — the
    /// canonical emission order the determinism guarantee rides on.
    std::vector<std::pair<uint32_t, uint32_t>> groups;
  };

  /// Everything this peer tracks about one mapping variable: explicit
  /// prior, EM evidence accumulator, previous-round posterior, and the
  /// (replica, member position) slots of every factor that scopes it.
  struct VarState {
    MappingVarKey key;
    double prior = 0.5;
    bool has_explicit_prior = false;
    uint64_t evidence_count = 0;
    double evidence_sum = 0.0;
    bool has_evidence_acc = false;
    double last_posterior = 0.0;
    bool has_last_posterior = false;
    std::vector<std::pair<uint32_t, uint32_t>> slots;
  };

  /// One neighbor's alias state in canonical (serializable) form: both
  /// session directions flattened to dense alias-indexed vectors. The
  /// transmit map `AliasSessionTx::alias_of` is stored inverted
  /// (`tx_id_by_alias[alias] = id`); aliases are assigned densely, so the
  /// inversion is lossless and order-free.
  struct LinkImage {
    PeerId peer = 0;
    std::vector<FactorId> tx_id_by_alias;
    uint32_t tx_acked_prefix = 0;
    std::vector<FactorId> rx_id_of;
    uint32_t rx_known_prefix = 0;
    std::vector<uint32_t> replica_of_alias;
    /// Transmit-side value-precision tier (see `PeerLink::value_rank`).
    uint32_t value_rank = 0;
    /// Byzantine-guard state (see `PeerLink`); zeros when the guard is
    /// off. Persisted so demotion trajectories replay identically after a
    /// restore (snapshot format v3).
    double guard_score = 0.0;
    uint32_t guard_demote_level = 0;
    uint64_t guard_rejections = 0;
    uint64_t guard_equivocations = 0;
    uint64_t guard_oscillations = 0;
    uint64_t guard_outliers = 0;
    uint64_t guard_dropped_bundles = 0;
    double guard_round_influence = 0.0;
    uint32_t guard_round_absorbed = 0;
  };

  /// Per-slot admission history under the Byzantine guard, parallel to
  /// `var_to_factor_pool_` (each foreign slot is written by exactly one
  /// owner link, so the history needs no per-link dimension). Only
  /// allocated while the guard is enabled.
  struct GuardSlot {
    double last_log_odds = 0.0;  ///< last absorbed value
    uint64_t last_round = 0;     ///< peer round of the last absorb
    uint8_t flips = 0;           ///< consecutive direction reversals
    int8_t last_dir = 0;         ///< sign of the last large move
    bool has_last = false;
  };

  /// A complete, self-contained copy of this peer's mutable state in
  /// canonical form: dense arrays only, no hash tables, no pointers — the
  /// unit the undo sessions copy and the snapshot layer serializes. All
  /// derived indexes (`replica_index_`, `var_index_`, `edge_vars_`, the
  /// alias maps) are rebuilt deterministically by `RestoreImage`, so two
  /// peers restored from equal images are behaviorally identical, bit for
  /// bit. The document store is intentionally excluded: it is configured
  /// at deployment time and never mutated by the protocol.
  struct Image {
    std::vector<std::pair<EdgeId, SchemaMapping>> mappings;
    std::vector<Replica> replicas;
    std::vector<ReplicaHot> replica_hot;
    std::vector<Belief> var_to_factor_pool;
    std::vector<Belief> factor_to_var_pool;
    std::vector<MappingVarKey> member_pool;
    std::vector<PeerId> member_owner_pool;
    std::vector<uint32_t> owned_pos_pool;
    std::vector<BeliefRoute> belief_routes;
    /// In alias-link creation order (deterministic: it follows replica
    /// ingest order), so `BeliefRoute::link` indexes into it unchanged.
    std::vector<LinkImage> links;
    uint32_t alias_epoch = 0;
    /// Per-slot Byzantine-guard history (empty when the guard is off).
    std::vector<GuardSlot> guard_slot_pool;
    /// Completed local inference rounds (the guard's logical clock and
    /// the chaos layer's draw key).
    uint64_t round = 0;
    /// In intern order — restoring re-interns in the same order, so the
    /// rebuilt `var_index_` / `edge_vars_` iterate identically.
    std::vector<VarState> vars;
    std::vector<FactorId> announced;       ///< sorted
    std::vector<uint64_t> seen_queries;    ///< sorted
    /// Sorted by origin; each origin's probes in arrival order.
    std::vector<std::pair<PeerId, std::vector<ProbeMessage>>> probe_cache;
  };

  /// Copies the peer's mutable state into canonical form. O(state); no
  /// effect on the peer.
  Image CaptureImage() const;

  /// Replaces the peer's mutable state with `image`, rebuilding every
  /// derived index. Restoring a capture of the same peer is exact: rounds,
  /// bundles, probes and queries behave bitwise-identically to the peer
  /// that was captured.
  void RestoreImage(const Image& image);

  /// Restores from a capture, moving the bulk arrays instead of copying.
  void RestoreImage(Image&& image);

 private:
  /// Index of `var` in `vars_`, creating the entry on first sight.
  uint32_t InternVar(const MappingVarKey& var);
  const VarState* FindVar(const MappingVarKey& var) const;

  /// Ok when no replica is stored under `id`, or the stored replica has
  /// exactly the announced factor content (closure structure, root
  /// attribute, member sequence); `FailedPrecondition` on a fingerprint
  /// collision. Pure check — never mutates.
  Status ValidateFactorContent(const FactorId& id, const Closure& closure,
                               const AttributeFeedback& feedback) const;

  /// Registers replica `r` with the per-recipient belief routing tables,
  /// negotiating a session alias per (recipient, factor) on the way.
  void AddReplicaToRoutes(uint32_t r);

  /// The replica's member scope, as a view into the member pool.
  std::span<const MappingVarKey> Members(uint32_t r) const {
    const ReplicaHot& hot = replica_hot_[r];
    return {member_pool_.data() + hot.msg_base, hot.member_count};
  }

  /// Writes `belief` into the var->factor slot (replica `r`, `position`)
  /// unless the update is malformed or claims a variable this peer owns.
  void AbsorbResolved(uint32_t r, uint32_t position, const Belief& belief);

  struct PeerLink;

  /// Guarded admission of one bundle entry over `link` (guard enabled
  /// only): semantic validation, equivocation/oscillation detection,
  /// score feeds, soft-demotion damping — then `AbsorbResolved`. Records
  /// the first violation in `*status`.
  void AbsorbGuarded(PeerId from, PeerLink& link, uint32_t r,
                     const BeliefEntry& entry, uint32_t value_bits,
                     Status* status);

  /// End-of-round guard bookkeeping: influence-outlier detection, score
  /// decay, threshold crossings -> demotion. No-op when the guard is off.
  void GuardEndOfRound();

  /// Resets every pool slot owned by `peer` to the neutral measure (and
  /// clears its guard history). Called on hard demotion: quarantine only
  /// stops future bundles, this heals the lies already deposited.
  void PurgeGuardDeposits(PeerId peer);

  /// ∆ used by this peer when announcing feedback.
  double EffectiveDelta() const;

  /// Per-attribute feedback for a closed cycle probe.
  std::vector<AttributeFeedback> CycleFeedback(const ProbeMessage& probe) const;

  /// Per-attribute feedback for two independent parallel-path probes.
  std::vector<AttributeFeedback> ParallelFeedback(
      const ProbeMessage& first, const ProbeMessage& second) const;

  /// Coarse-granularity aggregation of per-attribute feedback.
  static std::vector<AttributeFeedback> CoarsenFeedback(
      std::vector<AttributeFeedback> fine);

  /// Sends `announcement` to every distinct owner of a member mapping.
  void AnnounceToOwners(const FeedbackAnnouncement& announcement,
                        std::vector<Outgoing>* out) const;

  /// Node sequence of a probe route (origin, then successive edge dsts).
  std::vector<NodeId> RouteNodes(const std::vector<EdgeId>& route) const;

  /// True if the two routes share no edge and no interior node.
  bool RoutesIndependent(const std::vector<EdgeId>& a,
                         const std::vector<EdgeId>& b) const;

  /// The θ-gate for a query attribute over one mapping (see
  /// EngineOptions::forward_without_evidence).
  bool GateAllows(EdgeId edge, AttributeId attribute) const;

  PeerId id_;
  Schema schema_;
  const Digraph* graph_;
  const EngineOptions* options_;
  DocumentStore store_;

  /// Outgoing mappings, flat and sorted by EdgeId (few per peer; binary
  /// search beats a node-based map and iteration stays in EdgeId order,
  /// which probe/query forwarding depends on for determinism).
  std::vector<std::pair<EdgeId, SchemaMapping>> mappings_;

  /// Dense replica store + identity-hashed index by factor fingerprint.
  /// Insertion order is announcement arrival order (deterministic under
  /// the engine's serial message dispatch).
  std::vector<Replica> replicas_;
  std::unordered_map<FactorId, uint32_t, FactorIdHash> replica_index_;
  /// Flat hot state parallel to `replicas_` (see `ReplicaHot`).
  std::vector<ReplicaHot> replica_hot_;

  /// SoA message pools, indexed by replica msg_base + member position:
  /// last µ_{member -> factor} per member (unit until heard otherwise),
  /// and µ_{factor -> member}, maintained for *owned* members.
  std::vector<Belief> var_to_factor_pool_;
  std::vector<Belief> factor_to_var_pool_;
  /// Member scope + member owners, sharing the message pools' slots.
  std::vector<MappingVarKey> member_pool_;
  std::vector<PeerId> member_owner_pool_;
  /// Owned member positions (ascending per replica), at owned_base.
  std::vector<uint32_t> owned_pos_pool_;
  /// Per-slot guard history, sharing the message pools' slots; sized only
  /// while `options_->byzantine_guard.enabled` (empty otherwise, so the
  /// guard-off footprint is unchanged).
  std::vector<GuardSlot> guard_slot_pool_;
  /// Completed `ComputeRound` calls — the guard's same-round clock and
  /// the Byzantine chaos layer's draw key. Always maintained (one
  /// increment per round; no behavioral effect while guard and chaos are
  /// off).
  uint64_t round_ = 0;

  /// Per-recipient outgoing-belief routes, ascending by recipient; built
  /// incrementally at ingest, rebuilt on mapping removal.
  std::vector<BeliefRoute> belief_routes_;

  /// Sentinel in `PeerLink::replica_of_alias`: binding known but factor
  /// not (yet) ingested here, or alias not yet resolved.
  static constexpr uint32_t kNoReplica = static_cast<uint32_t>(-1);

  /// One neighbor's alias state: the wire session (both directions) plus
  /// a receive-side alias -> replica-index cache, so steady-state
  /// absorption is a single 4-byte load per group instead of a
  /// fingerprint hash lookup per update.
  struct PeerLink {
    AliasLink session;
    std::vector<uint32_t> replica_of_alias;
    /// Transmit-side precision tier under a value error budget: 0 coarse,
    /// 1 mid, 2 fine, 3 exact (raw doubles again). Stepped up — never
    /// down — at the end of `ComputeRound` from the peer's residual, so a
    /// link's precision trajectory is monotone and a peer restored from a
    /// snapshot continues it identically. Unused when quantization is
    /// off.
    uint8_t value_rank = 0;
    /// Peer round (1-based `ComputeRound` count) the link's latest
    /// accepted bundle fed; 0 = never heard. Transient: not part of
    /// `LinkImage`, so after a restore the verdict waits for fresh traffic.
    uint64_t heard = 0;

    // Byzantine-guard state (EngineOptions::byzantine_guard). All
    // untouched — and all zero — while the guard is disabled.
    /// Decaying misbehavior score; violations add their configured
    /// weight, `score_decay` multiplies at each `ComputeRound`.
    double guard_score = 0.0;
    /// 0 normal, 1 soft (damped absorption), 2 hard (bundles dropped).
    /// Sticky: demotion never reverts, so replay from any snapshot
    /// reaches the same decisions.
    uint8_t guard_demote_level = 0;
    uint64_t guard_rejections = 0;
    uint64_t guard_equivocations = 0;
    uint64_t guard_oscillations = 0;
    uint64_t guard_outliers = 0;
    uint64_t guard_dropped_bundles = 0;
    /// This round's absorbed |Δ log-odds| mass and entry count — the
    /// influence-outlier feed, consumed and reset by `ComputeRound`.
    double guard_round_influence = 0.0;
    uint32_t guard_round_absorbed = 0;
    /// An oscillation streak completed this round. Transient per-round
    /// state — scored once (not once per slot) and cleared by
    /// `ComputeRound`, never snapshotted: snapshots land at round
    /// barriers where it is always false.
    bool guard_round_oscillated = false;
  };

  /// Alias sessions, one per neighbor: dense storage indexed through
  /// `alias_link_index_` and `BeliefRoute::link`, so the round path does
  /// one lookup per bundle. The index is a flat sorted array — a peer has
  /// few belief neighbors, so binary search touches one cache line where
  /// a hash map chases nodes. Cleared and renegotiated under a bumped
  /// epoch on `RemoveMapping` (the engine removes mappings network-wide,
  /// so both endpoints of every session bump in lockstep).
  std::vector<PeerLink> alias_links_;
  std::vector<std::pair<PeerId, uint32_t>> alias_link_index_;
  uint32_t alias_epoch_ = 0;

  /// Index of the alias link for `peer`, creating it on first sight.
  uint32_t InternAliasLink(PeerId peer);

  /// Dense per-variable state + hashed index by packed (edge, attribute).
  std::vector<VarState> vars_;
  std::unordered_map<uint64_t, uint32_t> var_index_;
  /// Indexes of `vars_` entries per mapping edge, ascending (lazy-schedule
  /// piggybacking looks variables up by edge, not by full key).
  std::unordered_map<EdgeId, std::vector<uint32_t>> edge_vars_;

  /// Round scratch (prefix/suffix message products), reused across rounds.
  std::vector<Belief> prefix_scratch_;
  std::vector<Belief> suffix_scratch_;

  /// Closures this peer has already announced (dedup).
  std::unordered_set<FactorId, FactorIdHash> announced_;
  /// Cached foreign probes per origin for parallel detection.
  std::unordered_map<PeerId, std::vector<ProbeMessage>> probe_cache_;
  std::unordered_set<uint64_t> seen_queries_;
};

}  // namespace pdms

#endif  // PDMS_CORE_PEER_H_
