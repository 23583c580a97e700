// Tests for the durable peer state layer (store/): snapshot
// encode/decode round-trips over a real converged engine image,
// rejection of torn / truncated / corrupt input, the double-buffered
// SnapshotStore with its fallback-to-older-slot behavior, and the
// deployment state-epoch fingerprint.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "graph/topology.h"
#include "mapping/mapping_generator.h"
#include "net/codec.h"
#include "pdms/pdms.h"
#include "store/snapshot.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

constexpr size_t kAttrs = 11;

Schema MakeSchema(const std::string& name, size_t attrs = kAttrs) {
  Schema schema(name);
  for (size_t a = 0; a < attrs; ++a) {
    EXPECT_TRUE(schema.AddAttribute(name + "_a" + std::to_string(a)).ok());
  }
  return schema;
}

/// The intro example (Figure 4) through the public builder; m24 (EdgeId 4)
/// garbles attribute 0.
Pdms MakeIntroPdms(EngineOptions options = {}, uint64_t seed = 17) {
  Rng rng(seed);
  options.probe_ttl = 5;
  PdmsBuilder builder;
  builder.WithOptions(options).WithInstantTransport();
  for (int p = 0; p < 4; ++p) {
    builder.AddPeer(MakeSchema(StrFormat("p%d", p + 1)));
  }
  const std::vector<std::pair<PeerId, PeerId>> links = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}};
  for (EdgeId e = 0; e < links.size(); ++e) {
    const std::vector<AttributeId> wrong =
        e == 4 ? std::vector<AttributeId>{0} : std::vector<AttributeId>{};
    builder.AddMapping(
        links[e].first, links[e].second,
        MakeConceptMapping(StrFormat("m%u", e), kAttrs, wrong, &rng));
  }
  Result<Pdms> built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built).value();
}

/// A snapshot with every field populated: a converged engine image plus a
/// synthetic in-flight inbox covering three payload kinds.
NodeSnapshot MakeSnapshot(Pdms& pdms) {
  pdms.session().Discover();
  pdms.session().Converge(10);

  NodeSnapshot snapshot;
  snapshot.state_epoch = 0x0123456789abcdefull;
  snapshot.round = 7;
  snapshot.tick = 41;
  snapshot.quiet = 2;
  snapshot.previous_change = 0.1254321;
  snapshot.report_updates = 991;
  snapshot.engine = pdms.engine().CaptureImage();

  CapturedFrame probe;
  probe.seq = 12;
  probe.envelope.from = 1;
  probe.envelope.to = 2;
  probe.envelope.via = EdgeId{1};
  probe.envelope.deliver_at = 42;
  ProbeMessage message;
  message.origin = 1;
  message.ttl = 3;
  message.route = {1, 2};
  message.trail = {{AttributeId{0}, std::nullopt}, {std::nullopt, AttributeId{4}}};
  probe.envelope.payload = message;
  snapshot.inbox.push_back(probe);

  CapturedFrame feedback;
  feedback.seq = 13;
  feedback.envelope.from = 3;
  feedback.envelope.to = 0;
  feedback.envelope.deliver_at = 42;
  FeedbackAnnouncement announcement;
  announcement.closure.kind = Closure::Kind::kCycle;
  announcement.closure.edges = {0, 1, 2, 3};
  announcement.closure.split = 4;
  announcement.closure.source = 0;
  announcement.closure.sink = 0;
  announcement.delta = 0.1;
  announcement.feedback = {{0,
                            FeedbackSign::kPositive,
                            {{0, 0}, {1, 0}, {2, 0}, {3, 0}}}};
  feedback.envelope.payload = announcement;
  snapshot.inbox.push_back(feedback);

  CapturedFrame belief;
  belief.seq = 14;
  belief.envelope.from = 2;
  belief.envelope.to = 3;
  belief.envelope.via = EdgeId{3};
  belief.envelope.deliver_at = 42;
  BeliefMessage bundle;
  bundle.AddGroup(0, FactorId{0x5, 0x6},
                  {BeliefEntry{0, Belief{1.0, 0.25}},
                   BeliefEntry{2, Belief{0.5, 0.75}}});
  bundle.AddGroup(1, FactorId{}, {BeliefEntry{1, Belief{0.125, 1.0}}});
  belief.envelope.payload = bundle;
  snapshot.inbox.push_back(belief);
  return snapshot;
}

std::string MakeTempDir() {
  char templ[] = "/tmp/pdms_store_test_XXXXXX";
  const char* dir = mkdtemp(templ);
  EXPECT_NE(dir, nullptr);
  return dir;
}

// --- Wire format -------------------------------------------------------------

TEST(SnapshotCodecTest, EncodeDecodeRoundTripsBitwise) {
  Pdms pdms = MakeIntroPdms();
  const NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::vector<uint8_t> bytes = EncodeSnapshot(snapshot);
  ASSERT_FALSE(bytes.empty());

  Result<NodeSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().state_epoch, snapshot.state_epoch);
  EXPECT_EQ(decoded.value().round, snapshot.round);
  EXPECT_EQ(decoded.value().tick, snapshot.tick);
  EXPECT_EQ(decoded.value().quiet, snapshot.quiet);
  EXPECT_EQ(decoded.value().previous_change, snapshot.previous_change);
  EXPECT_EQ(decoded.value().report_updates, snapshot.report_updates);
  EXPECT_EQ(decoded.value().engine.peers.size(), snapshot.engine.peers.size());
  EXPECT_EQ(decoded.value().inbox.size(), snapshot.inbox.size());

  // Decoding is lossless and encoding deterministic, so re-encoding the
  // decoded snapshot must reproduce the exact byte stream.
  EXPECT_EQ(EncodeSnapshot(decoded.value()), bytes);
}

/// Every posterior of every live (edge, attribute) as `%a` text, so a
/// difference in the last bit shows and prints.
std::vector<std::string> HexPosteriors(const Pdms& pdms) {
  std::vector<std::string> posteriors;
  for (EdgeId e : pdms.graph().LiveEdges()) {
    const size_t attrs = pdms.peer(pdms.graph().edge(e).src).schema().size();
    for (AttributeId a = 0; a < attrs; ++a) {
      posteriors.push_back(StrFormat("%a", pdms.Posterior(e, a)));
    }
  }
  return posteriors;
}

/// Every envelope sent while the log is read, in send order.
struct SendLog {
  std::mutex mutex;
  std::vector<CapturedFrame> frames;
};

/// An `InstantTransport` that copies every envelope into a `SendLog`.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(size_t peers, std::shared_ptr<SendLog> log)
      : inner_(peers), log_(std::move(log)) {}

  std::string_view name() const override { return "recording"; }
  size_t peer_count() const override { return inner_.peer_count(); }
  uint64_t now() const override { return inner_.now(); }
  void AdvanceTick() override { inner_.AdvanceTick(); }
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override {
    {
      std::lock_guard<std::mutex> lock(log_->mutex);
      CapturedFrame& frame = log_->frames.emplace_back();
      frame.seq = log_->frames.size();
      frame.envelope = Envelope{from, to, via, inner_.now(), payload};
    }
    inner_.Send(from, to, via, std::move(payload));
  }
  std::vector<Envelope> Drain(PeerId peer) override {
    return inner_.Drain(peer);
  }
  bool HasPendingMessages() const override {
    return inner_.HasPendingMessages();
  }
  const TransportStats& stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }

 private:
  InstantTransport inner_;
  std::shared_ptr<SendLog> log_;
};

/// The envelopes of a log as (from, to, EncodePayload bytes).
std::vector<std::pair<std::pair<PeerId, PeerId>, std::vector<uint8_t>>>
EncodedSends(SendLog& log) {
  std::vector<std::pair<std::pair<PeerId, PeerId>, std::vector<uint8_t>>> sent;
  for (const CapturedFrame& frame : log.frames) {
    std::vector<uint8_t> bytes;
    EncodePayload(frame.envelope.payload, &bytes);
    sent.emplace_back(std::make_pair(frame.envelope.from, frame.envelope.to),
                      std::move(bytes));
  }
  return sent;
}

/// Builds a network over a `RecordingTransport` feeding `log`.
using RecordedBuild = std::function<Pdms(std::shared_ptr<SendLog> log)>;

/// Runs `prepare` and one more round on a network from `build`, then cuts:
/// the engine image plus that round's bundles, still in flight, through
/// `EncodeSnapshot`/`DecodeSnapshot`. A fresh network from `build`
/// restored from the cut must send byte-identical payloads and reach
/// `%a`-identical posteriors for 20 rounds, in lockstep with the original.
void ExpectRestoredTwinRunsInLockstep(
    const RecordedBuild& build, const std::function<void(Pdms&)>& prepare) {
  const auto original_log = std::make_shared<SendLog>();
  Pdms original = build(original_log);
  prepare(original);
  original_log->frames.clear();
  original.session().Step();
  NodeSnapshot cut;
  cut.engine = original.engine().CaptureImage();
  cut.inbox = original_log->frames;
  ASSERT_FALSE(cut.inbox.empty());
  Result<NodeSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(cut));
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  const auto twin_log = std::make_shared<SendLog>();
  Pdms twin = build(twin_log);
  ASSERT_TRUE(
      twin.engine().RestoreImage(std::move(decoded.value().engine)).ok());
  for (CapturedFrame& frame : decoded.value().inbox) {
    Envelope& in_flight = frame.envelope;
    twin.transport().Send(in_flight.from, in_flight.to, in_flight.via,
                          std::move(in_flight.payload));
  }
  ASSERT_EQ(HexPosteriors(twin), HexPosteriors(original));
  for (int round = 1; round <= 20; ++round) {
    SCOPED_TRACE(round);
    original_log->frames.clear();
    twin_log->frames.clear();
    original.session().Step();
    twin.session().Step();
    ASSERT_EQ(EncodedSends(*twin_log), EncodedSends(*original_log));
    ASSERT_EQ(HexPosteriors(twin), HexPosteriors(original));
  }
}

/// A symmetrized Barabási–Albert network of `peers` 6-attribute schemas.
SyntheticPdms MakeBaNetwork(size_t peers, uint64_t seed) {
  Rng rng(seed);
  Digraph graph = topology::BarabasiAlbert(peers, 2, &rng);
  topology::Symmetrize(&graph);
  MappingNetworkOptions network;
  network.attributes_per_schema = 6;
  network.error_rate = 0.2;
  return BuildSyntheticPdms(graph, network, &rng);
}

RecordedBuild BaOverRecording(const SyntheticPdms& network,
                              EngineOptions options, size_t parallelism) {
  options.parallelism = parallelism;
  options.min_peers_per_lane = 1;
  return [network, options](std::shared_ptr<SendLog> log) {
    Result<Pdms> built =
        PdmsBuilder::FromSynthetic(network)
            .WithOptions(options)
            .WithTransport([log](size_t peers, const EngineOptions&) {
              return std::make_unique<RecordingTransport>(peers, log);
            })
            .Build();
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).value();
  };
}

TEST(SnapshotCodecTest, RestoredImageReproducesPosteriors) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::vector<std::string> before = HexPosteriors(pdms);

  // Perturb the live engine, then restore through the wire format.
  pdms.session().Step();
  Result<NodeSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(
      pdms.engine().RestoreImage(std::move(decoded.value().engine)).ok());
  EXPECT_EQ(HexPosteriors(pdms), before);

  // A fresh engine restored from a cut runs on exactly like the original:
  // the rebuilt routes, slots and pool offsets must equal the ones the
  // original derived at ingest and on mapping removal.
  for (const size_t parallelism : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(parallelism);
    {
      SCOPED_TRACE("guarded, budget 1e-3, after a mapping removal");
      EngineOptions options;
      options.probe_ttl = 3;
      options.closure_limits.min_cycle_length = 2;
      options.closure_limits.max_cycle_length = 3;
      options.closure_limits.max_path_length = 1;
      options.damping = 0.5;
      options.value_error_budget = 1e-3;
      options.byzantine_guard.enabled = true;
      options.byzantine.seed = 5;
      options.byzantine.lie_probability = 0.3;
      options.byzantine.invert_values = true;
      options.byzantine.adversaries = {2, 9};
      ExpectRestoredTwinRunsInLockstep(
          BaOverRecording(MakeBaNetwork(40, 21), options, parallelism),
          [](Pdms& pdms) {
            pdms.session().Discover();
            for (int i = 0; i < 10; ++i) pdms.session().Step();
            ASSERT_TRUE(pdms.RemoveMapping(pdms.graph().LiveEdges()[5]).ok());
            pdms.session().Discover();
            for (int i = 0; i < 3; ++i) pdms.session().Step();
          });
    }
    {
      SCOPED_TRACE("long cycles, TTL 4");
      EngineOptions options;
      options.probe_ttl = 4;
      options.closure_limits.min_cycle_length = 2;
      options.closure_limits.max_cycle_length = 4;
      options.closure_limits.max_path_length = 1;
      options.damping = 0.5;
      ExpectRestoredTwinRunsInLockstep(
          BaOverRecording(MakeBaNetwork(80, 33), options, parallelism),
          [](Pdms& pdms) {
            pdms.session().Discover();
            for (int i = 0; i < 10; ++i) pdms.session().Step();
          });
    }
  }
}

TEST(SnapshotCodecTest, RestoreRejectsTamperedImagesAndLeavesTheEngineAlone) {
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));
  pdms.session().Step();  // the engine moves past the cut
  const std::vector<std::string> before = HexPosteriors(pdms);
  const std::vector<EdgeId> live = pdms.graph().LiveEdges();

  // Each tamper hits the last peer, so a restore that checked and
  // restored peer by peer would already have overwritten the others.
  const std::vector<std::pair<const char*, std::function<void(Peer::Image&)>>>
      tampers = {
          {"message pool one entry short",
           [](Peer::Image& image) { image.var_to_factor_pool.pop_back(); }},
          {"member edge out of range",
           [](Peer::Image& image) { image.member_pool[0].edge = 50'000'000; }},
          {"member count past the pools",
           [](Peer::Image& image) { ++image.replicas[0].member_count; }},
          {"closure edge out of range",
           [](Peer::Image& image) {
             image.replicas[0].closure.edges[0] = 50'000'000;
           }},
          {"guard pool longer than the message pools",
           [](Peer::Image& image) {
             image.guard_slot_pool.resize(image.var_to_factor_pool.size() + 1);
           }},
          {"mapping edge out of range",
           [](Peer::Image& image) { image.mappings[0].first = 50'000'000; }},
          {"variable edge out of range",
           [](Peer::Image& image) { image.vars[0].key.edge = 50'000'000; }},
          {"ack prefix past the transmit table",
           [](Peer::Image& image) {
             Peer::LinkImage& link = image.links[0];
             link.tx_acked_prefix =
                 static_cast<uint32_t>(link.tx_id_by_alias.size()) + 1;
           }},
          {"known prefix past the receive table",
           [](Peer::Image& image) {
             image.links[0].rx_known_prefix =
                 static_cast<uint32_t>(image.links[0].rx_id_of.size()) + 1;
           }},
          {"receive table past the session cap",
           [](Peer::Image& image) {
             image.links[0].rx_id_of.resize(kMaxAliasesPerSession + 1);
           }},
          {"link to a peer outside the graph",
           [](Peer::Image& image) { image.links[0].peer = 4; }},
          {"two links to one peer",
           [](Peer::Image& image) {
             image.links.push_back(image.links[0]);
           }},
      };
  for (const auto& [what, tamper] : tampers) {
    SCOPED_TRACE(what);
    Result<NodeSnapshot> decoded = DecodeSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    Peer::Image& victim = decoded.value().engine.peers.back();
    ASSERT_FALSE(victim.replicas.empty());
    ASSERT_FALSE(victim.links.empty());
    tamper(victim);
    const Status restored =
        pdms.engine().RestoreImage(std::move(decoded.value().engine));
    EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument) << restored;
    EXPECT_EQ(pdms.graph().LiveEdges(), live);
    EXPECT_EQ(HexPosteriors(pdms), before);
  }
  // The untampered cut still restores, and the engine keeps running.
  Result<NodeSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(
      pdms.engine().RestoreImage(std::move(decoded.value().engine)).ok());
  pdms.session().Step();
}

TEST(SnapshotCodecTest, RejectsTruncatedInput) {
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));

  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{7}, bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + keep);
    Result<NodeSnapshot> decoded = DecodeSnapshot(torn);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes accepted";
  }
}

TEST(SnapshotCodecTest, RejectsBadMagicAndVersion) {
  Pdms pdms = MakeIntroPdms();
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeSnapshot(bad_magic).ok());

  // The format version follows the 8-byte magic.
  std::vector<uint8_t> bad_version = bytes;
  bad_version[8] ^= 0xff;
  EXPECT_FALSE(DecodeSnapshot(bad_version).ok());
}

TEST(SnapshotCodecTest, RefusesVersion3FilesWithPreV5Bundles) {
  // A v3 file stores in-flight bundles in wire format v4, whose tokens the
  // v5 decoder could misread without any error; a v4 file stores pool
  // offsets, routes and slot lists where v5 expects other fields. The
  // version check is what keeps both out.
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));
  ASSERT_EQ(bytes[8], kSnapshotFormatVersion);
  for (const uint8_t version : {3, 4}) {
    std::vector<uint8_t> old = bytes;
    old[8] = version;  // little-endian fixed32 after the 8-byte magic
    Result<NodeSnapshot> decoded = DecodeSnapshot(old);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(decoded.status().message().find(StrFormat("version %u", version)),
              std::string::npos)
        << decoded.status();
  }
}

TEST(SnapshotCodecTest, RejectsPayloadCorruption) {
  Pdms pdms = MakeIntroPdms();
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));

  // A single flipped payload bit must trip the CRC.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  Result<NodeSnapshot> decoded = DecodeSnapshot(corrupt);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(trailing).ok());
}

// --- SnapshotStore -----------------------------------------------------------

TEST(SnapshotStoreTest, LoadsHighestRoundAcrossSlots) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store(dir, /*shard=*/0);

  snapshot.round = 4;
  ASSERT_TRUE(store.Save(snapshot).ok());  // slot 0
  snapshot.round = 5;
  snapshot.tick = 57;
  ASSERT_TRUE(store.Save(snapshot).ok());  // slot 1

  Result<NodeSnapshot> loaded = store.Load(snapshot.state_epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().round, 5u);
  EXPECT_EQ(loaded.value().tick, 57u);
}

TEST(SnapshotStoreTest, FallsBackWhenNewerSlotIsCorrupt) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store(dir, /*shard=*/0);

  snapshot.round = 4;
  ASSERT_TRUE(store.Save(snapshot).ok());
  snapshot.round = 5;
  ASSERT_TRUE(store.Save(snapshot).ok());

  // Tear the round-5 slot as a crash mid-write would: keep a prefix only.
  const std::string newer = store.SlotPath(5 % 2);
  std::ifstream in(newer, std::ios::binary);
  std::vector<char> contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(newer, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 3));
  out.close();

  Result<NodeSnapshot> loaded = store.Load(snapshot.state_epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().round, 4u);

  // Destroy the older slot too: nothing left, the caller cold-starts.
  std::ofstream(store.SlotPath(4 % 2), std::ios::binary | std::ios::trunc)
      << "garbage";
  Result<NodeSnapshot> none = store.Load(snapshot.state_epoch);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, RejectsForeignEpochAndEmptyDir) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store(dir, /*shard=*/2);

  EXPECT_EQ(store.Load(snapshot.state_epoch).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(store.Save(snapshot).ok());
  EXPECT_TRUE(store.Load(snapshot.state_epoch).ok());
  // A snapshot from another deployment must never be resumed.
  EXPECT_EQ(store.Load(snapshot.state_epoch + 1).status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, ShardsDoNotShareSlots) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store0(dir, /*shard=*/0);
  const SnapshotStore store1(dir, /*shard=*/1);

  ASSERT_TRUE(store0.Save(snapshot).ok());
  EXPECT_NE(store0.SlotPath(0), store1.SlotPath(0));
  EXPECT_EQ(store1.Load(snapshot.state_epoch).status().code(),
            StatusCode::kNotFound);
}

// --- State epoch -------------------------------------------------------------

TEST(StateEpochTest, StableForEqualInputsSensitiveToDeploymentChanges) {
  Pdms pdms = MakeIntroPdms();
  const Digraph& graph = pdms.graph();
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  const EngineOptions options = pdms.options();

  const uint64_t epoch = ComputeStateEpoch(graph, shard_of, 2, options);
  EXPECT_EQ(epoch, ComputeStateEpoch(graph, shard_of, 2, options));

  // Shard layout, shard count and inference options all re-key the epoch.
  const std::vector<uint32_t> other_layout = {0, 1, 1, 0};
  EXPECT_NE(epoch, ComputeStateEpoch(graph, other_layout, 2, options));
  EXPECT_NE(epoch, ComputeStateEpoch(graph, shard_of, 4, options));
  EngineOptions other_options = options;
  other_options.damping += 0.125;
  EXPECT_NE(epoch, ComputeStateEpoch(graph, shard_of, 2, other_options));
  EngineOptions other_ttl = options;
  other_ttl.probe_ttl += 1;
  EXPECT_NE(epoch, ComputeStateEpoch(graph, shard_of, 2, other_ttl));
}

TEST(SnapshotCodecTest, LinkValueRanksSurviveTheRoundTrip) {
  // A shard crashed mid-trajectory with links at different precision
  // tiers: restore must hand every link its exact rank back, or the
  // resumed run would re-send coarse values the original never did.
  EngineOptions options;
  options.value_error_budget = 1e-3;
  Pdms pdms = MakeIntroPdms(options);
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  bool saw_links = false;
  for (Peer::Image& peer : snapshot.engine.peers) {
    for (size_t l = 0; l < peer.links.size(); ++l) {
      peer.links[l].value_rank =
          static_cast<uint32_t>(l % kValueRankCount);
      saw_links = true;
    }
  }
  ASSERT_TRUE(saw_links);

  Result<NodeSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  for (size_t p = 0; p < snapshot.engine.peers.size(); ++p) {
    const auto& expected = snapshot.engine.peers[p].links;
    const auto& restored = decoded.value().engine.peers[p].links;
    ASSERT_EQ(restored.size(), expected.size());
    for (size_t l = 0; l < expected.size(); ++l) {
      EXPECT_EQ(restored[l].value_rank, expected[l].value_rank);
    }
  }
}

TEST(SnapshotCodecTest, RejectsOutOfRangeLinkValueRank) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  ASSERT_FALSE(snapshot.engine.peers.empty());
  ASSERT_FALSE(snapshot.engine.peers[0].links.empty());
  snapshot.engine.peers[0].links[0].value_rank = kValueRankCount;
  const Result<NodeSnapshot> decoded =
      DecodeSnapshot(EncodeSnapshot(snapshot));
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(StateEpochTest, ValuePrecisionReKeysTheEpoch) {
  // Quantization changes what travels on the wire and therefore the
  // posteriors: a snapshot taken under one budget must never resume under
  // another.
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  const EngineOptions options = pdms.options();
  const uint64_t epoch = ComputeStateEpoch(pdms.graph(), shard_of, 2, options);

  EngineOptions budgeted = options;
  budgeted.value_error_budget = 1e-3;
  EXPECT_NE(epoch, ComputeStateEpoch(pdms.graph(), shard_of, 2, budgeted));
}

TEST(SnapshotCodecTest, GuardStateSurvivesTheRoundTrip) {
  // A guarded shard crashed mid-demotion: link scores, demotion levels,
  // rejection tallies, the per-slot admission history and the round clock
  // must all restore exactly, or the replayed run would re-litigate — or
  // forget — demotion decisions the original already made.
  EngineOptions options;
  options.byzantine_guard.enabled = true;
  Pdms pdms = MakeIntroPdms(options);
  NodeSnapshot snapshot = MakeSnapshot(pdms);

  bool saw_links = false;
  for (Peer::Image& peer : snapshot.engine.peers) {
    peer.round = 29;
    for (size_t l = 0; l < peer.links.size(); ++l) {
      Peer::LinkImage& link = peer.links[l];
      Peer::LinkGuard& guard = link.guard;
      guard.score = 3.25 + static_cast<double>(l);
      guard.demote_level = static_cast<uint32_t>(l % 3);
      guard.rejections = 11 + l;
      guard.equivocations = 5 + l;
      guard.oscillations = 2 + l;
      guard.outliers = 1 + l;
      guard.dropped_bundles = 7 + l;
      guard.round_influence = 0.5 * static_cast<double>(l);
      guard.round_absorbed = static_cast<uint32_t>(l);
      saw_links = true;
    }
    for (size_t s = 0; s < peer.guard_slot_pool.size(); ++s) {
      Peer::GuardSlot& slot = peer.guard_slot_pool[s];
      slot.last_log_odds = -1.5 + static_cast<double>(s);
      slot.last_round = 28;
      slot.flips = static_cast<uint8_t>(s % 4);
      slot.last_dir = (s % 2 == 0) ? 1 : -1;
      slot.has_last = true;
    }
  }
  ASSERT_TRUE(saw_links);

  Result<NodeSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  for (size_t p = 0; p < snapshot.engine.peers.size(); ++p) {
    const Peer::Image& expected = snapshot.engine.peers[p];
    const Peer::Image& restored = decoded.value().engine.peers[p];
    EXPECT_EQ(restored.round, expected.round);
    ASSERT_EQ(restored.links.size(), expected.links.size());
    for (size_t l = 0; l < expected.links.size(); ++l) {
      EXPECT_TRUE(restored.links[l].guard == expected.links[l].guard)
          << "peer " << p << " link " << l;
    }
    ASSERT_EQ(restored.guard_slot_pool.size(), expected.guard_slot_pool.size());
    for (size_t s = 0; s < expected.guard_slot_pool.size(); ++s) {
      EXPECT_EQ(restored.guard_slot_pool[s].last_log_odds,
                expected.guard_slot_pool[s].last_log_odds);
      EXPECT_EQ(restored.guard_slot_pool[s].last_round,
                expected.guard_slot_pool[s].last_round);
      EXPECT_EQ(restored.guard_slot_pool[s].flips,
                expected.guard_slot_pool[s].flips);
      EXPECT_EQ(restored.guard_slot_pool[s].last_dir,
                expected.guard_slot_pool[s].last_dir);
      EXPECT_EQ(restored.guard_slot_pool[s].has_last,
                expected.guard_slot_pool[s].has_last);
    }
  }
}

TEST(StateEpochTest, ByzantineKnobsReKeyTheEpoch) {
  // The guard changes what gets absorbed and the chaos plan changes what
  // gets sent: a snapshot taken under either configuration must never be
  // resumed under another.
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  const EngineOptions options = pdms.options();
  const uint64_t epoch = ComputeStateEpoch(pdms.graph(), shard_of, 2, options);

  EngineOptions guarded = options;
  guarded.byzantine_guard.enabled = true;
  const uint64_t guarded_epoch =
      ComputeStateEpoch(pdms.graph(), shard_of, 2, guarded);
  EXPECT_NE(epoch, guarded_epoch);

  EngineOptions threshold = guarded;
  threshold.byzantine_guard.soft_threshold += 1.0;
  EXPECT_NE(guarded_epoch,
            ComputeStateEpoch(pdms.graph(), shard_of, 2, threshold));

  EngineOptions chaos = options;
  chaos.byzantine.lie_probability = 0.25;
  chaos.byzantine.adversaries = {1};
  EXPECT_NE(epoch, ComputeStateEpoch(pdms.graph(), shard_of, 2, chaos));
}

TEST(StateEpochTest, PinnedToTheValuesEarlierBuildsComputed) {
  // Retired settings hash their fixed values as literals in their old
  // positions, so every configuration still expressible keys to exactly
  // the epoch earlier builds computed, and their --state-dir snapshots
  // keep loading. The literals below were computed before the settings
  // were retired.
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  const auto epoch = [&](const EngineOptions& options) {
    return ComputeStateEpoch(pdms.graph(), shard_of, 2, options);
  };
  const EngineOptions defaults = pdms.options();
  EXPECT_EQ(epoch(defaults), 0x5c7e94c504e80441ull);

  EngineOptions guarded = defaults;
  guarded.byzantine_guard.enabled = true;  // soft 6, hard 12
  EXPECT_EQ(epoch(guarded), 0x9c2280d23a900076ull);
  guarded.byzantine_guard.soft_threshold = 9.0;  // hard 18
  EXPECT_EQ(epoch(guarded), 0x41ed29fe1263ffd6ull);

  EngineOptions budgeted = defaults;
  budgeted.value_error_budget = 1e-3;
  EXPECT_EQ(epoch(budgeted), 0x1de4f7cd347c8147ull);

  EngineOptions chaos = defaults;
  chaos.byzantine.seed = 42;
  chaos.byzantine.lie_probability = 0.25;
  chaos.byzantine.invert_values = true;
  chaos.byzantine.equivocate_rate = 0.2;
  chaos.byzantine.adversaries = {1, 3};
  chaos.byzantine.collude = true;
  EXPECT_EQ(epoch(chaos), 0x33e094ea8580609eull);
}

TEST(StateEpochTest, ScheduleKnobsDoNotReKeyTheEpoch) {
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint32_t> shard_of = {0, 0, 1, 1};
  const EngineOptions options = pdms.options();
  const uint64_t epoch = ComputeStateEpoch(pdms.graph(), shard_of, 2, options);

  // Parallelism is a scheduling choice: results — and therefore snapshots —
  // are interchangeable across it.
  EngineOptions parallel = options;
  parallel.parallelism = 8;
  EXPECT_EQ(epoch, ComputeStateEpoch(pdms.graph(), shard_of, 2, parallel));
}

}  // namespace
}  // namespace pdms
