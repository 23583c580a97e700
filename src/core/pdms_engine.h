#ifndef PDMS_CORE_PDMS_ENGINE_H_
#define PDMS_CORE_PDMS_ENGINE_H_

#include <atomic>
#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/peer.h"
#include "factor/factor_graph.h"
#include "mapping/mapping_generator.h"
#include "net/network.h"
#include "pdms/transport.h"
#include "util/thread_pool.h"

namespace pdms {

/// One periodic inference round's accounting.
struct RoundReport {
  /// Individual µ remote-message updates sent this round (the unit the
  /// paper's Σ(l_ci − 1) bound counts).
  uint64_t belief_updates_sent = 0;
  /// Network envelopes carrying them (bundled per recipient).
  uint64_t belief_envelopes_sent = 0;
  double max_posterior_change = 1.0;
};

/// Outcome of RunToConvergence.
struct ConvergenceReport {
  size_t rounds = 0;
  bool converged = false;
  uint64_t belief_updates_sent = 0;
};

/// Outcome of a query issued into the network.
struct QueryReport {
  /// (answering peer, row) pairs, in delivery order.
  std::vector<std::pair<PeerId, ResultRow>> rows;
  /// Peers that processed the query (origin included).
  std::vector<PeerId> reached;
  /// Mapping links used / θ-blocked along the way.
  std::vector<EdgeId> used_edges;
  std::vector<EdgeId> blocked_edges;
  /// Query envelopes sent.
  uint64_t messages = 0;
};

/// One query to issue: `query` is expressed in `origin`'s schema.
struct QueryRequest {
  PeerId origin = 0;
  Query query;
  uint32_t ttl = 3;
};

/// The paper's system: a network of peer databases that (1) discovers
/// mapping cycles and parallel paths with TTL probes, (2) runs decentral-
/// ized loopy sum-product message passing over the induced factor graph to
/// estimate per-attribute mapping correctness, and (3) routes queries
/// through mappings whose posterior clears the semantic threshold θ.
///
/// The engine is the simulation driver: it owns the peers and the message
/// transport and advances global ticks. All inference math happens inside
/// the peers using only their local state — the engine never shares state
/// across peers except through transport messages.
///
/// This is the *internal implementation* behind the public API in
/// `pdms/pdms.h`: applications construct a `Pdms` through `PdmsBuilder`
/// and drive it through a `Session` rather than using this class directly.
class PdmsEngine {
 public:
  /// Invoked by RunToConvergence after each round (1-based round index).
  using RoundCallback = std::function<void(size_t, const RoundReport&)>;

  /// Builds an engine over `graph`; `schemas[p]` is peer p's schema and
  /// `mappings[e]` the mapping for live edge e (indexed by EdgeId).
  /// `transport` must cover `graph.node_count()` peers; when null, a
  /// lossless discrete-tick `SimTransport` is created from
  /// `options.network`.
  static Result<std::unique_ptr<PdmsEngine>> Create(
      const Digraph& graph, std::vector<Schema> schemas,
      std::vector<SchemaMapping> mappings, const EngineOptions& options,
      std::unique_ptr<Transport> transport = nullptr);

  // --- Closure discovery -----------------------------------------------------

  /// Floods TTL probes from every peer and processes the resulting probe /
  /// feedback traffic until the network is quiet. Returns the number of
  /// distinct factor replicas that exist across peers afterwards.
  size_t DiscoverClosures();

  /// Injects a closure with externally computed per-attribute feedback
  /// (used by experiments that need the paper's exact feedback sets and by
  /// churn tests). The announcement is ingested directly by member owners.
  void InjectFeedback(const FeedbackAnnouncement& announcement);

  // --- Inference -------------------------------------------------------------

  /// One synchronized round: tick, deliver, compute, and (periodic
  /// schedule) exchange remote messages.
  RoundReport RunRound();

  /// Rounds until `max_rounds` or the convergence verdict: the residual
  /// has stayed below tolerance since the last round `L` it did not, and
  /// every belief link of every local peer has delivered a bundle since
  /// `L` (read from delivered traffic, so injected loss cannot fake
  /// quiescence). `on_round`, when set, observes every round.
  ConvergenceReport RunToConvergence(size_t max_rounds,
                                     const RoundCallback& on_round = nullptr);

  /// Posterior of (edge, attribute) as believed by the mapping's owner.
  double Posterior(EdgeId edge, AttributeId attribute) const;
  double PosteriorCoarse(EdgeId edge) const;

  // --- Queries ---------------------------------------------------------------

  /// Issues `query` (expressed in `origin`'s schema) and drives the
  /// network until all query traffic quiesces.
  QueryReport IssueQuery(PeerId origin, const Query& query, uint32_t ttl);

  /// Issues a batch of queries *concurrently*: all query messages enter
  /// the network before the first tick, so their traffic interleaves (and,
  /// under the lazy schedule, cross-pollinates belief state) the way
  /// simultaneous real-world queries would. Reports are attributed per
  /// query id and returned in request order.
  std::vector<QueryReport> IssueQueries(std::span<const QueryRequest> requests);

  // --- Sharded execution (node daemons) ----------------------------------------

  /// Restricts execution to the peers marked in `is_local` (one entry per
  /// peer). Non-local peers stay materialized for topology and schema
  /// lookups, but they never compute rounds, send, or drain — a node
  /// daemon hosts one shard of the network and reaches the rest through
  /// the transport. An empty mask (the default) means every peer is
  /// local, i.e. ordinary single-process execution.
  Status RestrictToLocalPeers(std::vector<bool> is_local);
  bool IsLocalPeer(PeerId peer) const {
    return is_local_.empty() || is_local_[peer];
  }

  /// Emits the initial discovery probes of the local peers — the sharded
  /// counterpart of `DiscoverClosures`' first phase. The daemons
  /// coordinate quiescence across shards with mark frames instead of the
  /// transport-wide `HasPendingMessages` loop.
  void StartLocalProbes();

  /// One discovery step: advances the transport clock and dispatches all
  /// deliverable traffic of the local peers (probe forwards and feedback
  /// announcements go back out through the transport).
  void DeliverTick();

  // --- Priors & churn ----------------------------------------------------------

  void SetPrior(EdgeId edge, AttributeId attribute, double prior);
  double Prior(EdgeId edge, AttributeId attribute) const;
  /// EM prior update on every peer (Section 4.4).
  void UpdatePriors();

  /// Removes a mapping network-wide: the owner drops it, every peer purges
  /// replicas referencing it, and the topology edge is tombstoned.
  /// Closures must be re-discovered afterwards.
  Status RemoveMapping(EdgeId edge);

  // --- Durable state ------------------------------------------------------------

  /// A complete copy of the engine's mutable inference state in canonical
  /// form: every peer's `Peer::Image` plus the topology liveness flags.
  /// This is the unit `UndoSession` copies and the snapshot layer
  /// (src/store) serializes. Transport state (in-flight frames, clocks) is
  /// deliberately *not* here — the node layer captures it separately at
  /// quiesced barriers, where it is well-defined.
  struct EngineImage {
    std::vector<bool> edge_alive;
    std::vector<Peer::Image> peers;
    uint64_t next_query_id = 1;
  };

  /// Captures all peers (sharded engines still materialize every peer, and
  /// network-wide operations like `RemoveMapping` touch all of them).
  EngineImage CaptureImage() const;

  /// Restores a previously captured image. Peer count must match (the
  /// image is a rollback target for the same deployment, not a migration
  /// vehicle); the topology may have gained edges since the capture — they
  /// roll back to tombstones. Every peer image is validated
  /// (`Peer::ValidateImage`) before anything changes: a rejected image
  /// leaves the engine untouched.
  Status RestoreImage(const EngineImage& image);
  Status RestoreImage(EngineImage&& image);

  // --- Introspection ------------------------------------------------------------

  Peer& peer(PeerId id) { return *peers_[id]; }
  const Peer& peer(PeerId id) const { return *peers_[id]; }
  size_t peer_count() const { return peers_.size(); }
  const Digraph& graph() const { return graph_; }
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }
  const EngineOptions& options() const { return options_; }

  /// Total distinct factor replicas (unique FactorIds across peers).
  size_t UniqueFactorCount() const;

  /// Byzantine-guard totals over the *local* peers (all zero while the
  /// guard is off): entries the admission guard refused (rejections +
  /// equivocations), links at demote level >= 1, and links at level 2.
  uint64_t GuardRejectedBeliefs() const;
  uint64_t GuardDemotedLinks() const;
  uint64_t GuardQuarantinedLinks() const;

  /// Materializes the *global* factor graph implied by the current peer
  /// states (priors + all announced feedback factors). Baseline for exact
  /// inference and for validating the decentralized engine. `vars_out`
  /// receives the variable order.
  FactorGraph BuildGlobalFactorGraph(std::vector<MappingVarKey>* vars_out) const;

 private:
  PdmsEngine(Digraph graph, EngineOptions options,
             std::unique_ptr<Transport> transport);

  /// Delivers due messages to every peer, dispatching by payload type.
  /// Query rows/blocks are accumulated into `active_queries_` entries.
  void DeliverAll();

  /// Round-path delivery: drains all peers up front (in parallel when a
  /// pool exists) and processes peer-local payloads — beliefs, feedback —
  /// on the draining thread. Batches containing probe or query traffic
  /// (which send and touch shared query reports) fall back to serial
  /// dispatch in canonical peer order.
  void DeliverRoundMessages();

  /// Processes one delivered envelope on the engine thread (probe /
  /// feedback / belief / query dispatch).
  void DispatchEnvelope(PeerId to, Envelope& envelope);

  void SendAll(PeerId from, std::vector<Outgoing> messages);

  /// Logs an absorb/ingest rejection, rate-limited: under a sustained
  /// adversarial load every bundle from a lying peer carries a Status, and
  /// the guard already counts them all — the log shows the first few and
  /// then samples. Thread-safe (called from round workers).
  void LogRejection(const Status& status);

  /// Whether round phases fan out to the pool: requires a pool *and*
  /// enough peers per lane to amortize its wake/steal/join overhead
  /// (`EngineOptions::min_peers_per_lane`). Purely a scheduling decision —
  /// results are identical either way.
  bool UsePool() const;

  /// Runs `fn(p)` for every peer, on the pool when `UsePool()`, inline
  /// otherwise. `fn` must only touch peer p's state (plus the transport,
  /// which is thread-safe).
  void ForEachPeer(const std::function<void(size_t)>& fn);

  /// The freshness half of the convergence verdict: every local peer
  /// heard all its belief links within the last `rounds` rounds.
  bool AllLinksHeardWithin(size_t rounds) const;

  Digraph graph_;
  EngineOptions options_;
  /// Sharding mask (see RestrictToLocalPeers); empty = all peers local.
  std::vector<bool> is_local_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Peer>> peers_;
  /// Round-execution workers (parallelism − 1 threads; null when serial).
  std::unique_ptr<ThreadPool> pool_;
  uint64_t next_query_id_ = 1;
  /// Per-query report accumulators, keyed by query id; populated while
  /// IssueQueries drives the network.
  std::map<uint64_t, QueryReport*> active_queries_;
  /// Rejections logged so far (the `LogRejection` rate limit).
  std::atomic<uint64_t> rejection_logs_{0};
  /// Round scratch, reused to keep the round path allocation-stable.
  std::vector<double> round_changes_;
  std::vector<std::vector<Outgoing>> round_outgoing_;
  std::vector<std::vector<Envelope>> round_batches_;
};

/// Chainbase-style undo scope over the engine's inference state. Capture
/// at construction; unless `Commit()` is called, destruction (or an
/// explicit `Rollback()`) restores the capture — pools, routing tables,
/// alias sessions, variable state and topology revert *together*, so a
/// speculative `InjectFeedback`/`RemoveMapping` sequence that turns out to
/// be inconsistent cannot leave derived state behind.
///
/// Move-only RAII; sessions may nest (inner sessions roll back first, as
/// plain scoping already guarantees). Driver-thread only, like every other
/// engine mutation: do not roll back while rounds are executing on the
/// pool.
class UndoSession {
 public:
  explicit UndoSession(PdmsEngine* engine)
      : engine_(engine), image_(engine->CaptureImage()) {}
  ~UndoSession() { Rollback(); }

  UndoSession(UndoSession&& other) noexcept
      : engine_(other.engine_), image_(std::move(other.image_)) {
    other.engine_ = nullptr;
  }
  UndoSession& operator=(UndoSession&& other) noexcept {
    if (this != &other) {
      Rollback();
      engine_ = other.engine_;
      image_ = std::move(other.image_);
      other.engine_ = nullptr;
    }
    return *this;
  }
  UndoSession(const UndoSession&) = delete;
  UndoSession& operator=(const UndoSession&) = delete;

  /// Keeps every mutation made since construction; the session becomes
  /// inert.
  void Commit() { engine_ = nullptr; }

  /// Restores the state captured at construction. Idempotent; implied by
  /// destruction when `Commit()` was never called.
  void Rollback() {
    if (engine_ == nullptr) return;
    PdmsEngine* engine = engine_;
    engine_ = nullptr;
    const Status restored = engine->RestoreImage(std::move(image_));
    assert(restored.ok());  // same deployment: peer count cannot mismatch
    (void)restored;
  }

  /// False once committed or rolled back.
  bool armed() const { return engine_ != nullptr; }

 private:
  PdmsEngine* engine_;
  PdmsEngine::EngineImage image_;
};

}  // namespace pdms

#endif  // PDMS_CORE_PDMS_ENGINE_H_
