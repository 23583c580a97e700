#include "core/pdms_engine.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <unordered_set>

#include "util/logging.h"
#include "util/string_util.h"

namespace pdms {

PdmsEngine::PdmsEngine(Digraph graph, EngineOptions options,
                       std::unique_ptr<Transport> transport)
    : graph_(std::move(graph)),
      options_(options),
      transport_(std::move(transport)) {}

Result<std::unique_ptr<PdmsEngine>> PdmsEngine::Create(
    const Digraph& graph, std::vector<Schema> schemas,
    std::vector<SchemaMapping> mappings, const EngineOptions& options,
    std::unique_ptr<Transport> transport) {
  if (schemas.size() != graph.node_count()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu schemas, got %zu", graph.node_count(),
                  schemas.size()));
  }
  if (mappings.size() < graph.edge_capacity()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu mappings, got %zu", graph.edge_capacity(),
                  mappings.size()));
  }
  if (transport == nullptr) {
    transport = std::make_unique<SimTransport>(graph.node_count(),
                                               options.network);
  }
  if (transport->peer_count() != graph.node_count()) {
    return Status::InvalidArgument(
        StrFormat("transport '%s' covers %zu peers, topology has %zu",
                  std::string(transport->name()).c_str(),
                  transport->peer_count(), graph.node_count()));
  }
  std::unique_ptr<PdmsEngine> engine(
      new PdmsEngine(graph, options, std::move(transport)));
  const size_t parallelism =
      options.parallelism == 0
          ? std::max<size_t>(1, std::thread::hardware_concurrency())
          : options.parallelism;
  if (parallelism > 1) {
    engine->pool_ = std::make_unique<ThreadPool>(parallelism - 1);
  }
  engine->peers_.reserve(graph.node_count());
  for (PeerId p = 0; p < graph.node_count(); ++p) {
    engine->peers_.push_back(std::make_unique<Peer>(
        p, std::move(schemas[p]), &engine->graph_, &engine->options_));
  }
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.edge_alive(e)) continue;
    PDMS_RETURN_IF_ERROR(
        engine->peers_[graph.edge(e).src]->AddMapping(e, std::move(mappings[e])));
  }
  return engine;
}

void PdmsEngine::SendAll(PeerId from, std::vector<Outgoing> messages) {
  for (Outgoing& message : messages) {
    transport_->Send(from, message.to, message.via, std::move(message.payload));
  }
}

void PdmsEngine::DispatchEnvelope(PeerId to, Envelope& envelope) {
  Peer& peer = *peers_[to];
  if (auto* probe = std::get_if<ProbeMessage>(&envelope.payload)) {
    SendAll(to, peer.HandleProbe(*probe));
  } else if (auto* feedback =
                 std::get_if<FeedbackAnnouncement>(&envelope.payload)) {
    const Status status = peer.IngestFeedback(*feedback);
    if (!status.ok()) LogRejection(status);
  } else if (auto* beliefs = std::get_if<BeliefMessage>(&envelope.payload)) {
    const Status status = peer.AbsorbBeliefBundle(envelope.from, *beliefs);
    if (!status.ok()) LogRejection(status);
  } else if (auto* query = std::get_if<QueryMessage>(&envelope.payload)) {
    for (const BeliefUpdate& update : query->piggyback) {
      peer.AbsorbBeliefUpdate(update);
    }
    const bool first_visit = !peer.SawQuery(query->query_id);
    QueryActions actions = peer.ProcessQuery(
        *query, options_.schedule == ScheduleKind::kLazy);
    const auto report_it = active_queries_.find(query->query_id);
    QueryReport* report =
        report_it == active_queries_.end() ? nullptr : report_it->second;
    if (report != nullptr && first_visit) {
      report->reached.push_back(to);
      for (ResultRow& row : actions.rows) {
        report->rows.emplace_back(to, std::move(row));
      }
      for (const Outgoing& forward : actions.forwards) {
        if (forward.via.has_value()) {
          report->used_edges.push_back(*forward.via);
        }
      }
      for (EdgeId blocked : actions.blocked_edges) {
        report->blocked_edges.push_back(blocked);
      }
      report->messages += actions.forwards.size();
    }
    SendAll(to, std::move(actions.forwards));
  }
}

void PdmsEngine::DeliverAll() {
  for (PeerId p = 0; p < peers_.size(); ++p) {
    if (!IsLocalPeer(p)) continue;
    for (Envelope& envelope : transport_->Drain(p)) {
      DispatchEnvelope(p, envelope);
    }
  }
}

Status PdmsEngine::RestrictToLocalPeers(std::vector<bool> is_local) {
  if (is_local.size() != peers_.size()) {
    return Status::InvalidArgument(
        StrFormat("shard mask covers %zu peers, network has %zu",
                  is_local.size(), peers_.size()));
  }
  if (std::find(is_local.begin(), is_local.end(), true) == is_local.end()) {
    return Status::InvalidArgument("shard mask marks no peer local");
  }
  is_local_ = std::move(is_local);
  return Status::Ok();
}

void PdmsEngine::StartLocalProbes() {
  for (PeerId p = 0; p < peers_.size(); ++p) {
    if (IsLocalPeer(p)) SendAll(p, peers_[p]->StartProbes());
  }
}

void PdmsEngine::DeliverTick() {
  transport_->AdvanceTick();
  DeliverAll();
}

bool PdmsEngine::UsePool() const {
  // Fan out only when every lane gets a meaningful chunk of peers: below
  // the threshold the pool's wake/steal/join overhead exceeds the round
  // itself (1k-peer configs measured *slower* in parallel).
  if (pool_ == nullptr) return false;
  const size_t lanes = pool_->thread_count() + 1;
  return peers_.size() >= options_.min_peers_per_lane * lanes;
}

void PdmsEngine::ForEachPeer(const std::function<void(size_t)>& fn) {
  if (!UsePool()) {
    for (size_t p = 0; p < peers_.size(); ++p) fn(p);
    return;
  }
  pool_->ParallelFor(0, peers_.size(), fn);
}

void PdmsEngine::DeliverRoundMessages() {
  const size_t n = peers_.size();
  round_batches_.resize(n);
  ForEachPeer([this](size_t p) {
    if (!IsLocalPeer(static_cast<PeerId>(p))) return;
    std::vector<Envelope> batch = transport_->Drain(static_cast<PeerId>(p));
    bool peer_local = true;
    for (const Envelope& envelope : batch) {
      const MessageKind kind = KindOf(envelope.payload);
      if (kind != MessageKind::kBelief && kind != MessageKind::kFeedback) {
        peer_local = false;
        break;
      }
    }
    if (!peer_local) {
      // Probe / query traffic sends onward and touches shared query
      // reports: preserve within-batch order and hand the whole batch to
      // the serial phase below.
      round_batches_[p] = std::move(batch);
      return;
    }
    Peer& peer = *peers_[p];
    for (Envelope& envelope : batch) {
      if (auto* beliefs = std::get_if<BeliefMessage>(&envelope.payload)) {
        const Status status =
            peer.AbsorbBeliefBundle(envelope.from, *beliefs);
        if (!status.ok()) LogRejection(status);
      } else if (auto* feedback =
                     std::get_if<FeedbackAnnouncement>(&envelope.payload)) {
        const Status status = peer.IngestFeedback(*feedback);
        if (!status.ok()) LogRejection(status);
      }
    }
  });
  for (PeerId p = 0; p < n; ++p) {
    for (Envelope& envelope : round_batches_[p]) {
      DispatchEnvelope(p, envelope);
    }
    round_batches_[p].clear();
  }
}

size_t PdmsEngine::DiscoverClosures() {
  StartLocalProbes();
  // Probe traffic is self-limiting (TTL + simple routes): run to quiet.
  while (transport_->HasPendingMessages()) {
    transport_->AdvanceTick();
    DeliverAll();
  }
  return UniqueFactorCount();
}

void PdmsEngine::InjectFeedback(const FeedbackAnnouncement& announcement) {
  std::set<PeerId> owners;
  for (EdgeId edge : announcement.closure.edges) {
    if (graph_.edge_alive(edge)) owners.insert(graph_.edge(edge).src);
  }
  for (PeerId owner : owners) {
    const Status status = peers_[owner]->IngestFeedback(announcement);
    if (!status.ok()) LogRejection(status);
  }
}

RoundReport PdmsEngine::RunRound() {
  RoundReport report;
  transport_->AdvanceTick();
  DeliverRoundMessages();

  // Peers compute their rounds independently by design (Section 4.1): fan
  // the loop out across the pool and reduce the residual afterwards.
  const size_t n = peers_.size();
  round_changes_.assign(n, 0.0);
  ForEachPeer([this](size_t p) {
    if (!IsLocalPeer(static_cast<PeerId>(p))) return;
    round_changes_[p] = peers_[p]->ComputeRound();
  });
  report.max_posterior_change = 0.0;
  for (double change : round_changes_) {
    report.max_posterior_change = std::max(report.max_posterior_change, change);
  }

  if (options_.schedule == ScheduleKind::kPeriodic) {
    // Bundle construction is the expensive half of the fan-out and is
    // peer-local: parallelize it. The actual sends stay in canonical peer
    // order so lossy transports draw their drop decisions in the same
    // sequence at every parallelism level (the determinism guarantee).
    round_outgoing_.resize(n);
    // Send in place (moving only the payloads) so each peer's collected
    // vector keeps its capacity — the arena CollectOutgoingBeliefs
    // refills next round.
    const auto send_peer = [&](PeerId p) {
      for (Outgoing& message : round_outgoing_[p]) {
        const auto& bundle = std::get<BeliefMessage>(message.payload);
        report.belief_updates_sent += bundle.update_count();
        ++report.belief_envelopes_sent;
        transport_->Send(p, message.to, message.via,
                         std::move(message.payload));
      }
      round_outgoing_[p].clear();
    };
    if (UsePool()) {
      ForEachPeer([this](size_t p) {
        if (!IsLocalPeer(static_cast<PeerId>(p))) return;
        peers_[p]->CollectOutgoingBeliefs(&round_outgoing_[p]);
      });
      for (PeerId p = 0; p < n; ++p) send_peer(p);
    } else {
      // Inline mode: fuse collect and send per peer — identical send
      // order, but the transport's wire-size accounting walks each bundle
      // while it is still cache-hot from construction.
      for (PeerId p = 0; p < n; ++p) {
        if (!IsLocalPeer(p)) continue;
        peers_[p]->CollectOutgoingBeliefs(&round_outgoing_[p]);
        send_peer(p);
      }
    }
  }
  return report;
}

ConvergenceReport PdmsEngine::RunToConvergence(size_t max_rounds,
                                               const RoundCallback& on_round) {
  ConvergenceReport report;
  // The last round whose residual reached tolerance (0: before this call).
  size_t last_moved = 0;
  for (size_t round = 1; round <= max_rounds; ++round) {
    const RoundReport step = RunRound();
    report.rounds = round;
    report.belief_updates_sent += step.belief_updates_sent;
    if (on_round) on_round(report.rounds, step);
    if (step.max_posterior_change >= options_.tolerance) {
      last_moved = round;
    } else if (AllLinksHeardWithin(round - last_moved)) {
      report.converged = true;
      break;
    }
  }
  return report;
}

bool PdmsEngine::AllLinksHeardWithin(size_t rounds) const {
  // Under the lazy schedule no link is expected to send: residual only.
  if (options_.schedule == ScheduleKind::kLazy) return true;
  for (PeerId p = 0; p < peers_.size(); ++p) {
    if (IsLocalPeer(p) && !peers_[p]->HeardAllLinksWithin(rounds)) {
      return false;
    }
  }
  return true;
}

double PdmsEngine::Posterior(EdgeId edge, AttributeId attribute) const {
  return peers_[graph_.edge(edge).src]->Posterior(
      MappingVarKey{edge, attribute});
}

double PdmsEngine::PosteriorCoarse(EdgeId edge) const {
  return peers_[graph_.edge(edge).src]->Posterior(
      MappingVarKey{edge, MappingVarKey::kWholeMapping});
}

QueryReport PdmsEngine::IssueQuery(PeerId origin, const Query& query,
                                   uint32_t ttl) {
  const QueryRequest request{origin, query, ttl};
  return std::move(IssueQueries({&request, 1}).front());
}

std::vector<QueryReport> PdmsEngine::IssueQueries(
    std::span<const QueryRequest> requests) {
  std::vector<QueryReport> reports(requests.size());
  active_queries_.clear();
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryMessage message;
    message.query_id = next_query_id_++;
    message.origin = requests[i].origin;
    message.ttl = requests[i].ttl;
    message.query = requests[i].query;
    active_queries_[message.query_id] = &reports[i];
    transport_->Send(requests[i].origin, requests[i].origin, std::nullopt,
                     std::move(message));
    ++reports[i].messages;
  }
  while (transport_->HasPendingMessages()) {
    transport_->AdvanceTick();
    DeliverAll();
  }
  active_queries_.clear();
  return reports;
}

void PdmsEngine::SetPrior(EdgeId edge, AttributeId attribute, double prior) {
  peers_[graph_.edge(edge).src]->SetPrior(MappingVarKey{edge, attribute},
                                          prior);
}

double PdmsEngine::Prior(EdgeId edge, AttributeId attribute) const {
  return peers_[graph_.edge(edge).src]->Prior(MappingVarKey{edge, attribute});
}

void PdmsEngine::UpdatePriors() {
  for (auto& peer : peers_) peer->UpdatePriorsFromPosteriors();
}

Status PdmsEngine::RemoveMapping(EdgeId edge) {
  if (!graph_.edge_alive(edge)) {
    return Status::NotFound(StrFormat("edge %u is not alive", edge));
  }
  for (auto& peer : peers_) peer->RemoveMapping(edge);
  return graph_.RemoveEdge(edge);
}

// --- Durable state --------------------------------------------------------------

PdmsEngine::EngineImage PdmsEngine::CaptureImage() const {
  EngineImage image;
  image.edge_alive = graph_.alive_flags();
  image.peers.reserve(peers_.size());
  for (const auto& peer : peers_) image.peers.push_back(peer->CaptureImage());
  image.next_query_id = next_query_id_;
  return image;
}

Status PdmsEngine::RestoreImage(const EngineImage& image) {
  return RestoreImage(EngineImage(image));
}

Status PdmsEngine::RestoreImage(EngineImage&& image) {
  if (image.peers.size() != peers_.size()) {
    return Status::InvalidArgument(
        StrFormat("image holds %zu peers, engine has %zu", image.peers.size(),
                  peers_.size()));
  }
  // Check every peer before touching anything, so a rejected image leaves
  // the engine exactly as it was.
  for (size_t p = 0; p < peers_.size(); ++p) {
    PDMS_RETURN_IF_ERROR(peers_[p]->ValidateImage(image.peers[p]));
  }
  PDMS_RETURN_IF_ERROR(graph_.RestoreEdges(image.edge_alive));
  for (size_t p = 0; p < peers_.size(); ++p) {
    peers_[p]->RestoreImage(std::move(image.peers[p]));
  }
  next_query_id_ = image.next_query_id;
  return Status::Ok();
}

size_t PdmsEngine::UniqueFactorCount() const {
  std::unordered_set<FactorId, FactorIdHash> ids;
  for (const auto& peer : peers_) {
    for (const Peer::ReplicaView& view : peer->ReplicaViews()) {
      ids.insert(view.id);
    }
  }
  return ids.size();
}

void PdmsEngine::LogRejection(const Status& status) {
  const uint64_t n = rejection_logs_.fetch_add(1, std::memory_order_relaxed);
  if (n < 8) {
    PDMS_LOG_WARNING << status.message();
  } else if ((n + 1) % 1024 == 0) {
    PDMS_LOG_WARNING << status.message() << " ("
                     << static_cast<unsigned long long>(n + 1)
                     << " rejections so far, sampling 1/1024)";
  }
}

uint64_t PdmsEngine::GuardRejectedBeliefs() const {
  uint64_t total = 0;
  for (size_t p = 0; p < peers_.size(); ++p) {
    if (IsLocalPeer(static_cast<PeerId>(p))) {
      total += peers_[p]->guard_rejected_entries();
    }
  }
  return total;
}

uint64_t PdmsEngine::GuardDemotedLinks() const {
  uint64_t total = 0;
  for (size_t p = 0; p < peers_.size(); ++p) {
    if (IsLocalPeer(static_cast<PeerId>(p))) {
      total += peers_[p]->guard_demoted_links();
    }
  }
  return total;
}

uint64_t PdmsEngine::GuardQuarantinedLinks() const {
  uint64_t total = 0;
  for (size_t p = 0; p < peers_.size(); ++p) {
    if (IsLocalPeer(static_cast<PeerId>(p))) {
      total += peers_[p]->guard_quarantined_links();
    }
  }
  return total;
}

FactorGraph PdmsEngine::BuildGlobalFactorGraph(
    std::vector<MappingVarKey>* vars_out) const {
  FactorGraph graph;
  std::map<MappingVarKey, VarId> var_ids;
  std::vector<MappingVarKey> vars;
  std::unordered_set<FactorId, FactorIdHash> added_factors;

  auto var_id = [&](const MappingVarKey& key) {
    const auto it = var_ids.find(key);
    if (it != var_ids.end()) return it->second;
    const VarId id = graph.AddVariable(key.ToString());
    var_ids.emplace(key, id);
    vars.push_back(key);
    // Prior factor from the owner's belief.
    const PeerId owner = graph_.edge(key.edge).src;
    Result<FactorIndex> prior = graph.AddFactor(
        std::make_unique<PriorFactor>(id, peers_[owner]->Prior(key)));
    assert(prior.ok());
    (void)prior;
    return id;
  };

  for (const auto& peer : peers_) {
    for (const Peer::ReplicaView& view : peer->ReplicaViews()) {
      if (!added_factors.insert(view.id).second) continue;
      std::vector<VarId> scope;
      scope.reserve(view.members.size());
      for (const MappingVarKey& member : view.members) {
        scope.push_back(var_id(member));
      }
      Result<FactorIndex> factor =
          graph.AddFactor(std::make_unique<CycleFeedbackFactor>(
              scope, view.sign == FeedbackSign::kPositive, view.delta));
      assert(factor.ok());
      (void)factor;
    }
  }
  if (vars_out != nullptr) *vars_out = vars;
  return graph;
}

}  // namespace pdms
