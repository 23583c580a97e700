#include <algorithm>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "core/peer.h"
#include "graph/topology.h"
#include "mapping/mapping_generator.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

constexpr size_t kAttrs = 4;

/// Harness around one peer of the example graph with direct access to its
/// message-level API (the engine normally drives this).
class PeerTest : public ::testing::Test {
 protected:
  PeerTest() : graph_(topology::ExampleGraph(&edges_)) {
    options_.probe_ttl = 5;
    options_.delta_override = 0.1;
    for (NodeId p = 0; p < graph_.node_count(); ++p) {
      Schema schema(StrFormat("p%u", p + 1));
      for (size_t a = 0; a < kAttrs; ++a) {
        EXPECT_TRUE(schema.AddAttribute(StrFormat("a%zu", a)).ok());
      }
      peers_.push_back(std::make_unique<Peer>(p, std::move(schema), &graph_,
                                              &options_));
    }
    Rng rng(3);
    for (EdgeId e : graph_.LiveEdges()) {
      EXPECT_TRUE(peers_[graph_.edge(e).src]
                      ->AddMapping(e, MakeConceptMapping(
                                          StrFormat("m%u", e), kAttrs,
                                          {}, &rng))
                      .ok());
    }
  }

  /// A positive-feedback announcement for the f1 cycle on attribute 0.
  FeedbackAnnouncement F1Announcement(FeedbackSign sign = FeedbackSign::kPositive) {
    FeedbackAnnouncement announcement;
    announcement.closure.kind = Closure::Kind::kCycle;
    announcement.closure.edges = {edges_.m12, edges_.m23, edges_.m34,
                                  edges_.m41};
    announcement.closure.split = 4;
    announcement.closure.source = 0;
    announcement.closure.sink = 0;
    announcement.delta = 0.1;
    AttributeFeedback feedback;
    feedback.root_attribute = 0;
    feedback.sign = sign;
    for (EdgeId e : announcement.closure.edges) {
      feedback.members.push_back(MappingVarKey{e, 0});
    }
    announcement.feedback = {feedback};
    return announcement;
  }

  topology::ExampleEdges edges_;
  Digraph graph_;
  EngineOptions options_;
  std::vector<std::unique_ptr<Peer>> peers_;
};

TEST_F(PeerTest, AddMappingValidatesOwnership) {
  Rng rng(1);
  // m34 starts at peer 2, not peer 0.
  EXPECT_EQ(peers_[0]
                ->AddMapping(edges_.m34,
                             MakeConceptMapping("x", kAttrs, {}, &rng))
                .code(),
            StatusCode::kInvalidArgument);
  // Duplicate registration.
  EXPECT_EQ(peers_[0]
                ->AddMapping(edges_.m12,
                             MakeConceptMapping("x", kAttrs, {}, &rng))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(PeerTest, PosteriorWithoutEvidenceIsPrior) {
  const MappingVarKey var{edges_.m12, 0};
  EXPECT_DOUBLE_EQ(peers_[0]->Posterior(var), 0.5);
  peers_[0]->SetPrior(var, 0.8);
  EXPECT_DOUBLE_EQ(peers_[0]->Posterior(var), 0.8);
  EXPECT_FALSE(peers_[0]->HasEvidence(var));
}

TEST_F(PeerTest, IngestFeedbackCreatesReplicaForOwnersOnly) {
  const FeedbackAnnouncement announcement = F1Announcement();
  peers_[0]->IngestFeedback(announcement);  // owns m12: replica
  EXPECT_EQ(peers_[0]->replica_count(), 1u);
  EXPECT_TRUE(peers_[0]->HasEvidence(MappingVarKey{edges_.m12, 0}));
  // Ingesting twice is idempotent.
  peers_[0]->IngestFeedback(announcement);
  EXPECT_EQ(peers_[0]->replica_count(), 1u);
}

TEST_F(PeerTest, NeutralFeedbackCreatesNoReplica) {
  peers_[0]->IngestFeedback(F1Announcement(FeedbackSign::kNeutral));
  EXPECT_EQ(peers_[0]->replica_count(), 0u);
}

TEST_F(PeerTest, ComputeRoundMovesPosteriorTowardEvidence) {
  peers_[0]->IngestFeedback(F1Announcement(FeedbackSign::kPositive));
  peers_[0]->ComputeRound();
  // Positive cycle evidence raises the posterior above the 0.5 prior.
  EXPECT_GT(peers_[0]->Posterior(MappingVarKey{edges_.m12, 0}), 0.5);
  peers_[1]->IngestFeedback(F1Announcement(FeedbackSign::kNegative));
  peers_[1]->ComputeRound();
  EXPECT_LT(peers_[1]->Posterior(MappingVarKey{edges_.m23, 0}), 0.5);
}

TEST_F(PeerTest, AbsorbBeliefUpdateAffectsFactorMessages) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const double before = peers_[0]->Posterior(MappingVarKey{edges_.m12, 0});

  // A remote peer reports strong belief that m23 is INCORRECT; under a
  // positive cycle factor this pulls m12 upward (if the cycle still
  // composed to the identity, somebody else's error must compensate) —
  // or at least changes the message. m23 is member position 1 of the f1
  // closure (m12, m23, m34, m41).
  BeliefUpdate update;
  update.factor = FactorId::Make(F1Announcement().closure, 0);
  update.position = 1;
  update.belief = Belief{0.05, 0.95};
  peers_[0]->AbsorbBeliefUpdate(update);
  peers_[0]->ComputeRound();
  EXPECT_NE(peers_[0]->Posterior(MappingVarKey{edges_.m12, 0}), before);
}

TEST_F(PeerTest, AbsorbIgnoresUnknownFactorAndOwnVariables) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const double before = peers_[0]->Posterior(MappingVarKey{edges_.m12, 0});

  BeliefUpdate unknown;
  unknown.factor = FactorId{0x9, 0x9};
  unknown.position = 1;
  unknown.belief = Belief{0.0, 1.0};
  peers_[0]->AbsorbBeliefUpdate(unknown);

  // A forged update about the peer's OWN variable (m12 = position 0) must
  // be ignored.
  BeliefUpdate forged;
  forged.factor = FactorId::Make(F1Announcement().closure, 0);
  forged.position = 0;
  forged.belief = Belief{0.0, 1.0};
  peers_[0]->AbsorbBeliefUpdate(forged);

  // As must an update whose position lies outside the factor's scope.
  BeliefUpdate out_of_range;
  out_of_range.factor = FactorId::Make(F1Announcement().closure, 0);
  out_of_range.position = 99;
  out_of_range.belief = Belief{0.0, 1.0};
  peers_[0]->AbsorbBeliefUpdate(out_of_range);

  peers_[0]->ComputeRound();
  EXPECT_NEAR(peers_[0]->Posterior(MappingVarKey{edges_.m12, 0}), before,
              1e-12);
}

TEST_F(PeerTest, CollectOutgoingBeliefsTargetsOtherOwners) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  std::vector<Outgoing> outgoing;
  peers_[0]->CollectOutgoingBeliefs(&outgoing);
  // Other owners of f1's members: peers 1, 2, 3.
  ASSERT_EQ(outgoing.size(), 3u);
  std::set<PeerId> recipients;
  for (const Outgoing& message : outgoing) {
    recipients.insert(message.to);
    const auto& bundle = std::get<BeliefMessage>(message.payload);
    ASSERT_EQ(bundle.groups.size(), 1u);
    ASSERT_EQ(bundle.update_count(), 1u);
    // First mention on every link: the alias binding declares the full
    // fingerprint, and the entry addresses m12 by its member position (0)
    // in f1's scope.
    EXPECT_EQ(bundle.groups[0].alias, 0u);
    ASSERT_FALSE(bundle.groups[0].id.IsNil());
    EXPECT_EQ(bundle.groups[0].id, FactorId::Make(F1Announcement().closure, 0));
    EXPECT_EQ(bundle.entries[0].position, 0u);
  }
  EXPECT_EQ(recipients, (std::set<PeerId>{1, 2, 3}));
}

/// The bundle peers_[from] would send to `to`, or a default-constructed
/// message when no route exists.
BeliefMessage BundleFromTo(Peer& from, PeerId to) {
  std::vector<Outgoing> outgoing;
  from.CollectOutgoingBeliefs(&outgoing);
  for (const Outgoing& message : outgoing) {
    if (message.to == to) return std::get<BeliefMessage>(message.payload);
  }
  return BeliefMessage{};
}

TEST_F(PeerTest, AliasNegotiationReachesBareAliasesAfterAck) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[1]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  peers_[1]->ComputeRound();

  // First mention p0 -> p1: the binding declares the full fingerprint.
  BeliefMessage first = BundleFromTo(*peers_[0], 1);
  ASSERT_EQ(first.groups.size(), 1u);
  EXPECT_FALSE(first.groups[0].id.IsNil());
  EXPECT_EQ(first.ack, 0u);  // p0 has heard nothing from p1 yet

  // p1 records the binding; its reverse bundle acks the bound prefix.
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, first).ok());
  BeliefMessage reverse = BundleFromTo(*peers_[1], 0);
  EXPECT_EQ(reverse.ack, 1u);
  EXPECT_FALSE(reverse.groups[0].id.IsNil());  // p1's own binding unacked

  // Once the ack lands, p0 emits the bare alias — 1 varint byte on the
  // wire where 16 fingerprint bytes used to be.
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, reverse).ok());
  BeliefMessage steady = BundleFromTo(*peers_[0], 1);
  ASSERT_EQ(steady.groups.size(), 1u);
  EXPECT_TRUE(steady.groups[0].id.IsNil());
  EXPECT_EQ(steady.groups[0].alias, first.groups[0].alias);
  EXPECT_LT(ApproximateWireSize(Payload{steady}),
            ApproximateWireSize(Payload{first}));

  // The bare-alias bundle still routes to the right factor slot.
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, steady).ok());
}

TEST_F(PeerTest, FirstMentionDropRefallsBackToFullId) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[1]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();

  // The first mention is lost in transit (never absorbed by p1). With no
  // ack, every subsequent bundle re-declares the full fingerprint — the
  // encoding degrades to full-id traffic under loss, never to an alias
  // the receiver cannot resolve.
  const BeliefMessage dropped = BundleFromTo(*peers_[0], 1);
  ASSERT_FALSE(dropped.groups[0].id.IsNil());
  const BeliefMessage retry = BundleFromTo(*peers_[0], 1);
  ASSERT_FALSE(retry.groups[0].id.IsNil());

  // The retry is self-contained: p1 can absorb it without ever having
  // seen the dropped first mention.
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, retry).ok());
  EXPECT_EQ(BundleFromTo(*peers_[1], 0).ack, 1u);
}

TEST_F(PeerTest, UnknownAliasStaleEpochAndOverflowRejectedWithStatus) {
  peers_[1]->IngestFeedback(F1Announcement());
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  // Bare alias without a prior binding declaration: rejected, not guessed.
  BeliefMessage unknown;
  unknown.AddGroup(5, FactorId{}, {BeliefEntry{1, Belief{0.1, 0.9}}});
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, unknown).code(),
            StatusCode::kNotFound);

  // Alias beyond the per-session bound: surfaced as OutOfRange and never
  // stored in the binding table — but the group's full fingerprint is
  // still a valid address, so its updates are absorbed anyway (overflow
  // tail degrades to full-id semantics instead of losing beliefs).
  peers_[1]->ComputeRound();
  const double before_overflow =
      peers_[1]->Posterior(MappingVarKey{edges_.m23, 0});
  BeliefMessage absurd;
  absurd.AddGroup(kMaxAliasesPerSession, id, {BeliefEntry{0, Belief{0.01, 0.99}}});
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, absurd).code(),
            StatusCode::kOutOfRange);
  peers_[1]->ComputeRound();
  EXPECT_NE(peers_[1]->Posterior(MappingVarKey{edges_.m23, 0}),
            before_overflow);
  EXPECT_EQ(BundleFromTo(*peers_[1], 0).ack, 0u);  // binding not recorded

  // Wrong epoch: the whole bundle refers to a dead numbering.
  BeliefMessage stale;
  stale.epoch = 7;
  stale.AddGroup(0, id, {BeliefEntry{1, Belief{0.1, 0.9}}});
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, stale).code(),
            StatusCode::kFailedPrecondition);

  // A bad group does not poison the rest of the bundle: the valid binding
  // after it is still absorbed (first-error-wins Status, like ingest).
  BeliefMessage mixed;
  mixed.AddGroup(5, FactorId{}, {BeliefEntry{1, Belief{0.1, 0.9}}});
  mixed.AddGroup(0, id, {BeliefEntry{0, Belief{0.2, 0.8}}});
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, mixed).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(BundleFromTo(*peers_[1], 0).ack, 1u);  // alias 0 got bound

  // A rebind of an established alias to a different factor is rejected.
  BeliefMessage rebind;
  rebind.AddGroup(0, FactorId{0xdead, 0xbeef}, {BeliefEntry{1, Belief{0.1, 0.9}}});
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, rebind).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PeerTest, ForgedAckIsCorrectedByTheNextGenuineBundle) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[1]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  peers_[1]->ComputeRound();
  ASSERT_FALSE(BundleFromTo(*peers_[0], 1).groups[0].id.IsNil());

  // An attacker claiming to be p1 acks a binding p1 never saw: p0 stops
  // declaring the fingerprint for one exchange...
  BeliefMessage forged_ack;
  forged_ack.ack = 1;
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, forged_ack).ok());
  EXPECT_TRUE(BundleFromTo(*peers_[0], 1).groups[0].id.IsNil());

  // ...but the next genuine bundle from p1 carries its real ack (0), and
  // latest-wins restores the full-id fallback instead of ratcheting the
  // forgery in forever.
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, BundleFromTo(*peers_[1], 0)).ok());
  EXPECT_FALSE(BundleFromTo(*peers_[0], 1).groups[0].id.IsNil());
}

TEST_F(PeerTest, OutOfBoundsEntryRangeRejectedWithStatus) {
  peers_[1]->IngestFeedback(F1Announcement());
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  // A group whose entry range lies outside the bundle's flat array is
  // untrusted input like everything else: rejected with a Status, and the
  // well-formed group after it still absorbed.
  BeliefMessage forged;
  forged.AddGroup(0, id, {BeliefEntry{0, Belief{0.2, 0.8}}});
  forged.groups[0].entry_begin = 0xffffffffu;
  forged.AddGroup(1, FactorId{0x7, 0x7}, {BeliefEntry{0, Belief{0.3, 0.7}}});
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, forged).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BundleFromTo(*peers_[1], 0).ack, 0u);  // alias 0 never bound

  BeliefMessage overflow;
  overflow.AddGroup(0, id, {BeliefEntry{0, Belief{0.2, 0.8}}});
  overflow.groups[0].entry_count = 0xffffffffu;  // begin + count overflows
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, overflow).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PeerTest, BundleEntriesRespectForgedAndMalformedRules) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const double before = peers_[0]->Posterior(MappingVarKey{edges_.m12, 0});
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  // Position 0 is p0's own variable (forged) and 99 is out of range: both
  // entries are ignored even though the group itself is well-formed.
  BeliefMessage bundle;
  bundle.AddGroup(0, id,
                  {BeliefEntry{0, Belief{0.0, 1.0}}, BeliefEntry{99, Belief{0.0, 1.0}}});
  EXPECT_TRUE(peers_[0]->AbsorbBeliefBundle(3, bundle).ok());
  peers_[0]->ComputeRound();
  EXPECT_NEAR(peers_[0]->Posterior(MappingVarKey{edges_.m12, 0}), before,
              1e-12);
}

TEST_F(PeerTest, AliasTablesRebuildAfterRemoveMapping) {
  // Establish a fully-acked session between p0 and p1 over f1.
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[1]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  peers_[1]->ComputeRound();
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, BundleFromTo(*peers_[0], 1)).ok());
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, BundleFromTo(*peers_[1], 0)).ok());
  const BeliefMessage steady = BundleFromTo(*peers_[0], 1);
  ASSERT_TRUE(steady.groups[0].id.IsNil());
  ASSERT_EQ(steady.epoch, 0u);

  // Network-wide removal of m24 (not an f1 member): the engine calls
  // RemoveMapping on every peer, so both endpoints bump their epoch and
  // rebuild their tables even though the f1 replica survives.
  peers_[0]->RemoveMapping(edges_.m24);
  peers_[1]->RemoveMapping(edges_.m24);
  EXPECT_EQ(peers_[0]->replica_count(), 1u);

  // An in-flight bundle from the old numbering is rejected, not misrouted.
  EXPECT_EQ(peers_[1]->AbsorbBeliefBundle(0, steady).code(),
            StatusCode::kFailedPrecondition);

  // The fresh session renegotiates deterministically: new epoch, alias
  // re-assigned from replica order, full fingerprint declared again.
  const BeliefMessage fresh = BundleFromTo(*peers_[0], 1);
  EXPECT_EQ(fresh.epoch, 1u);
  ASSERT_EQ(fresh.groups.size(), 1u);
  EXPECT_EQ(fresh.groups[0].alias, 0u);
  EXPECT_FALSE(fresh.groups[0].id.IsNil());
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, fresh).ok());
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, BundleFromTo(*peers_[1], 0)).ok());
  EXPECT_TRUE(BundleFromTo(*peers_[0], 1).groups[0].id.IsNil());
}

// --- Quantized value precision ------------------------------------------------

TEST(ValueRankTest, TierFormulasClampAndOrder) {
  ValuePrecisionOptions precision;
  precision.error_budget = 1e-3;  // fine tier: ceil(log2(8000)) = 13 bits
  EXPECT_EQ(ValueRankBits(precision, 0), 7u);
  EXPECT_EQ(ValueRankBits(precision, 1), 10u);
  EXPECT_EQ(ValueRankBits(precision, 2), 13u);
  // Without the exact tail, the top rank still ships the fine tier.
  EXPECT_EQ(ValueRankBits(precision, kValueRankExact), 13u);
  precision.exact_at_convergence = true;
  EXPECT_EQ(ValueRankBits(precision, kValueRankExact), 0u);  // raw doubles

  // Non-adaptive sessions pin every rank at the fine tier.
  precision.exact_at_convergence = false;
  precision.adaptive = false;
  for (uint32_t rank = 0; rank < kValueRankCount; ++rank) {
    EXPECT_EQ(ValueRankBits(precision, rank), 13u);
  }

  // Generous budgets hit the 2-bit floor instead of underflowing.
  ValuePrecisionOptions loose;
  loose.error_budget = 1.0;  // fine = 3 bits
  EXPECT_EQ(ValueRankBits(loose, 0), 2u);
  EXPECT_EQ(ValueRankBits(loose, 1), 2u);
  EXPECT_EQ(ValueRankBits(loose, 2), 3u);

  // A zero budget means quantization is off at every rank.
  ValuePrecisionOptions off;
  for (uint32_t rank = 0; rank < kValueRankCount; ++rank) {
    EXPECT_EQ(ValueRankBits(off, rank), 0u);
  }
}

TEST(ValueRankTest, TargetTracksTheResidual) {
  ValuePrecisionOptions precision;
  precision.error_budget = 1e-3;
  const double tolerance = 1e-7;
  EXPECT_EQ(ValueRankTarget(precision, 1.0, tolerance), 0u);    // > 64eps
  EXPECT_EQ(ValueRankTarget(precision, 1e-2, tolerance), 1u);   // > 8eps
  EXPECT_EQ(ValueRankTarget(precision, 1e-4, tolerance), 2u);   // near done
  // The exact tail engages only below the convergence tolerance.
  EXPECT_EQ(ValueRankTarget(precision, 1e-8, tolerance), 2u);
  precision.exact_at_convergence = true;
  EXPECT_EQ(ValueRankTarget(precision, 1e-8, tolerance), kValueRankExact);
  EXPECT_EQ(ValueRankTarget(precision, 1.0, tolerance), 0u);
  // Non-adaptive: always the fine tier (the exact tail still applies).
  precision.exact_at_convergence = false;
  precision.adaptive = false;
  EXPECT_EQ(ValueRankTarget(precision, 1.0, tolerance), 2u);
}

TEST_F(PeerTest, QuantizedLinksStepUpMonotonicallyToTheFineTier) {
  options_.value_precision.error_budget = 1e-3;
  peers_[0]->IngestFeedback(F1Announcement());
  uint32_t previous_bits = 0;
  for (int round = 0; round < 60; ++round) {
    peers_[0]->ComputeRound();
    const BeliefMessage bundle = BundleFromTo(*peers_[0], 1);
    // Precision only ever ratchets up: a receiver never sees the wire
    // degrade mid-session.
    EXPECT_GE(bundle.value_bits, previous_bits) << "round " << round;
    previous_bits = bundle.value_bits;
    // Every entry ships its dequantized realization: re-quantizing it is a
    // fixed point, so sim (struct-passing) and socket (codec) transports
    // deliver identical values.
    for (const BeliefEntry& entry : bundle.entries) {
      EXPECT_EQ(QuantizeLogOdds(entry.belief, bundle.value_bits), entry.quant);
    }
  }
  EXPECT_EQ(previous_bits, 13u);  // residual shrank: fine tier reached
}

TEST_F(PeerTest, ExactTailRestoresRawDoublesAtConvergence) {
  options_.tolerance = 1e-4;
  options_.value_precision.error_budget = 1e-3;
  options_.value_precision.exact_at_convergence = true;
  peers_[0]->IngestFeedback(F1Announcement());
  double change = 1.0;
  for (int round = 0; round < 2000 && change >= options_.tolerance; ++round) {
    change = peers_[0]->ComputeRound();
  }
  ASSERT_LT(change, options_.tolerance);
  // The converged round ratcheted the link to the exact rank: bundles ship
  // raw doubles (value format 0) from here on.
  EXPECT_EQ(BundleFromTo(*peers_[0], 1).value_bits, 0u);
}

TEST_F(PeerTest, RestoredPeerContinuesThePrecisionTrajectoryIdentically) {
  options_.value_precision.error_budget = 1e-3;
  peers_[0]->IngestFeedback(F1Announcement());
  for (int round = 0; round < 5; ++round) peers_[0]->ComputeRound();
  const Peer::Image image = peers_[0]->CaptureImage();

  Schema schema("p1");
  for (size_t a = 0; a < kAttrs; ++a) {
    ASSERT_TRUE(schema.AddAttribute(StrFormat("a%zu", a)).ok());
  }
  Peer restored(0, std::move(schema), &graph_, &options_);
  restored.RestoreImage(image);

  // The restored peer emits bitwise-identical bundles — same precision
  // tier, same quanta — and keeps stepping up in lockstep with the
  // original run.
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(peers_[0]->ComputeRound(), restored.ComputeRound());
    const BeliefMessage original = BundleFromTo(*peers_[0], 1);
    const BeliefMessage resumed = BundleFromTo(restored, 1);
    EXPECT_EQ(original.value_bits, resumed.value_bits) << "round " << round;
    ASSERT_EQ(original.entries.size(), resumed.entries.size());
    for (size_t i = 0; i < original.entries.size(); ++i) {
      EXPECT_EQ(original.entries[i].quant, resumed.entries[i].quant);
      EXPECT_EQ(original.entries[i].belief.correct,
                resumed.entries[i].belief.correct);
      EXPECT_EQ(original.entries[i].belief.incorrect,
                resumed.entries[i].belief.incorrect);
    }
  }
}

TEST_F(PeerTest, MixedPrecisionBundlesAbsorbAcrossTierChanges) {
  // p1 receives one coarse bundle and one fine bundle for the same factor
  // (a sender stepping up mid-session): both absorb cleanly, latest wins.
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[1]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  peers_[1]->ComputeRound();

  BeliefMessage coarse = BundleFromTo(*peers_[0], 1);
  coarse.QuantizeValues(7);
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, coarse).ok());
  const double after_coarse = peers_[1]->ComputeRound();

  BeliefMessage fine = BundleFromTo(*peers_[0], 1);
  fine.QuantizeValues(13);
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, fine).ok());
  (void)after_coarse;

  // A raw (format 0) bundle still interleaves with quantized ones.
  BeliefMessage raw = BundleFromTo(*peers_[0], 1);
  ASSERT_EQ(raw.value_bits, 0u);
  ASSERT_TRUE(peers_[1]->AbsorbBeliefBundle(0, raw).ok());
}

TEST_F(PeerTest, PiggybackUpdatesFilteredByEdge) {
  peers_[1]->IngestFeedback(F1Announcement());  // p2 owns m23 in f1
  peers_[1]->ComputeRound();
  EXPECT_EQ(peers_[1]->PiggybackUpdatesFor(edges_.m23).size(), 1u);
  EXPECT_TRUE(peers_[1]->PiggybackUpdatesFor(edges_.m24).empty());
}

TEST_F(PeerTest, RemoveMappingPurgesReplicas) {
  peers_[1]->IngestFeedback(F1Announcement());
  EXPECT_EQ(peers_[1]->replica_count(), 1u);
  peers_[1]->RemoveMapping(edges_.m23);
  EXPECT_EQ(peers_[1]->replica_count(), 0u);
  EXPECT_EQ(peers_[1]->mapping(edges_.m23), nullptr);
  EXPECT_FALSE(peers_[1]->HasEvidence(MappingVarKey{edges_.m23, 0}));
}

TEST_F(PeerTest, StartProbesCarryMappingImages) {
  const auto probes = peers_[1]->StartProbes();  // p2 owns m23 and m24
  ASSERT_EQ(probes.size(), 2u);
  for (const Outgoing& message : probes) {
    const auto& probe = std::get<ProbeMessage>(message.payload);
    EXPECT_EQ(probe.origin, 1u);
    EXPECT_EQ(probe.ttl, options_.probe_ttl - 1);
    ASSERT_EQ(probe.route.size(), 1u);
    ASSERT_EQ(probe.trail.size(), 1u);
    ASSERT_EQ(probe.trail[0].size(), kAttrs);
    // Identity mappings: every image equals the source attribute.
    for (AttributeId a = 0; a < kAttrs; ++a) {
      EXPECT_EQ(probe.trail[0][a], std::optional<AttributeId>(a));
    }
  }
}

TEST_F(PeerTest, HandleProbeForwardsWithDecrementedTtl) {
  ProbeMessage probe;
  probe.origin = 0;
  probe.ttl = 3;
  probe.route = {edges_.m12};
  probe.trail = {std::vector<std::optional<AttributeId>>(kAttrs, 1)};
  const auto actions = peers_[1]->HandleProbe(probe);
  // p2 forwards through m23 and m24 (origin p1 not revisited).
  ASSERT_EQ(actions.size(), 2u);
  for (const Outgoing& message : actions) {
    const auto& forwarded = std::get<ProbeMessage>(message.payload);
    EXPECT_EQ(forwarded.ttl, 2u);
    EXPECT_EQ(forwarded.route.size(), 2u);
    EXPECT_EQ(forwarded.trail.size(), 2u);
  }
}

TEST_F(PeerTest, HandleProbeStopsAtTtlZero) {
  ProbeMessage probe;
  probe.origin = 0;
  probe.ttl = 0;
  probe.route = {edges_.m12};
  probe.trail = {std::vector<std::optional<AttributeId>>(kAttrs, 0)};
  EXPECT_TRUE(peers_[1]->HandleProbe(probe).empty());
}

TEST_F(PeerTest, CycleAnnouncedOnlyByMinimumPeer) {
  // A probe from p2 (id 1) closing the 4-cycle back at p2: peer 1 is NOT
  // the minimum id on the cycle (p1 = 0 is), so it must stay silent.
  ProbeMessage probe;
  probe.origin = 1;
  probe.ttl = 2;
  probe.route = {edges_.m23, edges_.m34, edges_.m41, edges_.m12};
  probe.trail.assign(4, std::vector<std::optional<AttributeId>>(kAttrs, 0));
  for (AttributeId a = 0; a < kAttrs; ++a) probe.trail[3][a] = a;
  EXPECT_TRUE(peers_[1]->HandleProbe(probe).empty());

  // The same physical cycle closing at p1 (the minimum) is announced to
  // all four member owners.
  ProbeMessage canonical;
  canonical.origin = 0;
  canonical.ttl = 2;
  canonical.route = {edges_.m12, edges_.m23, edges_.m34, edges_.m41};
  canonical.trail.assign(4, std::vector<std::optional<AttributeId>>(kAttrs, 0));
  for (AttributeId a = 0; a < kAttrs; ++a) canonical.trail[3][a] = a;
  const auto actions = peers_[0]->HandleProbe(canonical);
  ASSERT_EQ(actions.size(), 4u);
  for (const Outgoing& message : actions) {
    EXPECT_TRUE(std::holds_alternative<FeedbackAnnouncement>(message.payload));
  }
}

TEST_F(PeerTest, BrokenChainYieldsNeutralFeedback) {
  // The probe's trail hits ⊥ at hop 2 for attribute 1.
  ProbeMessage probe;
  probe.origin = 0;
  probe.ttl = 2;
  probe.route = {edges_.m12, edges_.m23, edges_.m34, edges_.m41};
  probe.trail.assign(4, std::vector<std::optional<AttributeId>>(kAttrs, 0));
  for (AttributeId a = 0; a < kAttrs; ++a) {
    probe.trail[3][a] = a;  // cycle closes on the identity
  }
  probe.trail[1][1] = std::nullopt;  // ⊥ at hop 2 for attribute 1
  const auto actions = peers_[0]->HandleProbe(probe);
  ASSERT_FALSE(actions.empty());
  const auto& announcement =
      std::get<FeedbackAnnouncement>(actions[0].payload);
  ASSERT_EQ(announcement.feedback.size(), kAttrs);
  EXPECT_EQ(announcement.feedback[1].sign, FeedbackSign::kNeutral);
  EXPECT_EQ(announcement.feedback[0].sign, FeedbackSign::kPositive);
}

// --- Probe forwarding ----------------------------------------------------------

/// Peers of the complete digraph on five peers (identity mappings), probing
/// with TTL 4 for cycles of 2–4 mappings and parallel paths of single
/// mappings only.
class ProbeForwardingTest : public ::testing::Test {
 protected:
  static constexpr NodeId kPeers = 5;

  ProbeForwardingTest() : graph_(kPeers) {
    options_.probe_ttl = 4;
    options_.closure_limits.min_cycle_length = 2;
    options_.closure_limits.max_cycle_length = 4;
    options_.closure_limits.max_path_length = 1;
    for (NodeId p = 0; p < kPeers; ++p) {
      Schema schema(StrFormat("p%u", p));
      for (size_t a = 0; a < kAttrs; ++a) {
        EXPECT_TRUE(schema.AddAttribute(StrFormat("a%zu", a)).ok());
      }
      peers_.push_back(std::make_unique<Peer>(p, std::move(schema), &graph_,
                                              &options_));
    }
    Rng rng(5);
    for (NodeId p = 0; p < kPeers; ++p) {
      for (NodeId q = 0; q < kPeers; ++q) {
        if (p == q) continue;
        edge_[p][q] = graph_.AddEdge(p, q).value();
        EXPECT_TRUE(peers_[p]
                        ->AddMapping(edge_[p][q],
                                     MakeConceptMapping(StrFormat("m%u%u", p, q),
                                                        kAttrs, {}, &rng))
                        .ok());
      }
    }
  }

  /// A probe that has travelled the peer sequence `nodes` (origin first)
  /// with `ttl` hops left.
  ProbeMessage Probe(const std::vector<NodeId>& nodes, uint32_t ttl) const {
    ProbeMessage probe;
    probe.origin = nodes.front();
    probe.ttl = ttl;
    for (size_t i = 1; i < nodes.size(); ++i) {
      probe.route.push_back(edge_[nodes[i - 1]][nodes[i]]);
      std::vector<std::optional<AttributeId>> images(kAttrs);
      for (AttributeId a = 0; a < kAttrs; ++a) images[a] = a;
      probe.trail.push_back(std::move(images));
    }
    return probe;
  }

  /// Receivers of the probes among `messages`, ascending.
  static std::vector<NodeId> ProbeReceivers(
      const std::vector<Outgoing>& messages) {
    std::vector<NodeId> receivers;
    for (const Outgoing& message : messages) {
      if (std::holds_alternative<ProbeMessage>(message.payload)) {
        receivers.push_back(message.to);
      }
    }
    std::sort(receivers.begin(), receivers.end());
    return receivers;
  }

  /// Receivers of the probes the last peer on `nodes` forwards.
  std::vector<NodeId> Forwards(const std::vector<NodeId>& nodes,
                               uint32_t ttl) {
    return ProbeReceivers(peers_[nodes.back()]->HandleProbe(Probe(nodes, ttl)));
  }

  Digraph graph_;
  EdgeId edge_[kPeers][kPeers] = {};
  EngineOptions options_;
  std::vector<std::unique_ptr<Peer>> peers_;
};

TEST_F(ProbeForwardingTest, FinalHopGoesOnlyBackToOrigin) {
  // 0 -> 1 -> 2 -> 3 with one hop left: only the hop back to 0 closes a
  // cycle (of length 4); a fourth hop to 4 could close nothing.
  EXPECT_EQ(Forwards({0, 1, 2, 3}, 1), (std::vector<NodeId>{0}));
  // With hops and cycle length left, 2 and 4 are still worth a probe.
  EXPECT_EQ(Forwards({0, 1, 3}, 2), (std::vector<NodeId>{0, 2, 4}));
}

TEST_F(ProbeForwardingTest, RouteThroughSmallerIdStopsPastMaxPathLength) {
  // Origin 2 went through peer 0: no cycle on this route is rooted at 2,
  // and at two hops it is no parallel-path candidate either.
  EXPECT_TRUE(Forwards({2, 0}, 3).empty());
  // Through peer 3 it still roots cycles: back to 2, or on to 4 (above the
  // origin); 0 and 1 are below it.
  EXPECT_EQ(Forwards({2, 3}, 3), (std::vector<NodeId>{2, 4}));
}

TEST_F(ProbeForwardingTest, ParallelPathPrefixesStillForwarded) {
  options_.closure_limits.max_path_length = 3;
  // Two-hop routes are parallel-path candidates at every peer but the
  // origin, which only takes back cycles it roots.
  EXPECT_EQ(Forwards({2, 0}, 3), (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(Forwards({2, 3}, 3), (std::vector<NodeId>{0, 1, 2, 4}));
  // Past max_path_length the cycle rule applies again.
  EXPECT_TRUE(Forwards({2, 0, 1, 3}, 1).empty());
}

TEST_F(ProbeForwardingTest, StartProbesFollowTheSameRule) {
  // One-hop routes are parallel-path candidates everywhere.
  EXPECT_EQ(ProbeReceivers(peers_[2]->StartProbes()),
            (std::vector<NodeId>{0, 1, 3, 4}));
  // Without parallel paths only neighbors above the origin can lead back
  // to a cycle it roots.
  options_.closure_limits.max_path_length = 0;
  EXPECT_EQ(ProbeReceivers(peers_[2]->StartProbes()),
            (std::vector<NodeId>{3, 4}));
}

TEST_F(PeerTest, UpdatePriorsOnlyTouchesVariablesWithEvidence) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  peers_[0]->UpdatePriorsFromPosteriors();
  // Evidence variable moved off 0.5; attribute 1 (no evidence) unchanged.
  EXPECT_NE(peers_[0]->Prior(MappingVarKey{edges_.m12, 0}), 0.5);
  EXPECT_DOUBLE_EQ(peers_[0]->Prior(MappingVarKey{edges_.m12, 1}), 0.5);
}

TEST_F(PeerTest, SetPriorResetsEvidenceHistory) {
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  peers_[0]->UpdatePriorsFromPosteriors();
  peers_[0]->SetPrior(MappingVarKey{edges_.m12, 0}, 0.9);
  EXPECT_DOUBLE_EQ(peers_[0]->Prior(MappingVarKey{edges_.m12, 0}), 0.9);
}

TEST_F(PeerTest, ReplicaViewsExposeStoredFactors) {
  peers_[0]->IngestFeedback(F1Announcement());
  const auto views = peers_[0]->ReplicaViews();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].sign, FeedbackSign::kPositive);
  EXPECT_EQ(views[0].members.size(), 4u);
  EXPECT_DOUBLE_EQ(views[0].delta, 0.1);
  EXPECT_EQ(views[0].kind, Closure::Kind::kCycle);
}

TEST_F(PeerTest, FingerprintStableAcrossPeersAndDiscoveryOrder) {
  // Every member owner derives the identical FactorId for the same
  // announced closure — that is what routes remote µ-messages without
  // central coordination.
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[1]->IngestFeedback(F1Announcement());
  const auto views0 = peers_[0]->ReplicaViews();
  const auto views1 = peers_[1]->ReplicaViews();
  ASSERT_EQ(views0.size(), 1u);
  ASSERT_EQ(views1.size(), 1u);
  EXPECT_EQ(views0[0].id, views1[0].id);
  EXPECT_EQ(views0[0].root_attribute, 0u);

  // A peer that saw the closure's edge list in a different permutation
  // (e.g. announced from a different discovery round) still derives the
  // same fingerprint: the id hashes the canonicalized edge set.
  FeedbackAnnouncement rotated = F1Announcement();
  std::rotate(rotated.closure.edges.begin(),
              rotated.closure.edges.begin() + 2, rotated.closure.edges.end());
  EXPECT_EQ(FactorId::Make(rotated.closure, 0),
            FactorId::Make(F1Announcement().closure, 0));
  // Re-ingesting under the permuted edge order is recognized as the same
  // content (idempotent), not flagged as a collision.
  EXPECT_TRUE(peers_[0]->IngestFeedback(rotated).ok());
  EXPECT_EQ(peers_[0]->replica_count(), 1u);
}

TEST_F(PeerTest, ForcedFingerprintCollisionSurfacesStatus) {
  // Bind an id to the f1 closure through the explicit-id seam, then try
  // to bind *different* closure content to the same id — the ingest-time
  // collision check must reject it instead of cross-wiring messages.
  const FeedbackAnnouncement announcement = F1Announcement();
  const FactorId id = FactorId::Make(announcement.closure, 0);
  ASSERT_TRUE(peers_[0]
                  ->IngestFactor(id, announcement.closure,
                                 announcement.feedback[0], 0.1)
                  .ok());
  EXPECT_EQ(peers_[0]->replica_count(), 1u);

  Closure different = announcement.closure;
  different.edges = {edges_.m12, edges_.m24};  // not f1's edge set
  AttributeFeedback feedback = announcement.feedback[0];
  feedback.members = {MappingVarKey{edges_.m12, 0}, MappingVarKey{edges_.m24, 0}};
  const Status collision =
      peers_[0]->IngestFactor(id, different, feedback, 0.1);
  EXPECT_EQ(collision.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(collision.message().find("collision"), std::string::npos);
  EXPECT_EQ(peers_[0]->replica_count(), 1u);  // nothing was stored

  // Same id and closure but a permuted member sequence: position-based
  // addressing would cross-wire µ-messages, so this too must be rejected.
  AttributeFeedback permuted = announcement.feedback[0];
  std::swap(permuted.members[0], permuted.members[1]);
  EXPECT_EQ(peers_[0]
                ->IngestFactor(id, announcement.closure, permuted, 0.1)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(peers_[0]->replica_count(), 1u);

  // Same id, same content: idempotent, still fine.
  EXPECT_TRUE(peers_[0]
                  ->IngestFactor(id, announcement.closure,
                                 announcement.feedback[0], 0.1)
                  .ok());
  EXPECT_EQ(peers_[0]->replica_count(), 1u);

  // Sign and ∆ are observations, not identity: a re-announcement with a
  // flipped sign is not a collision, and the first observation wins
  // (exactly the pre-fingerprint first-wins semantics).
  AttributeFeedback flipped = announcement.feedback[0];
  flipped.sign = FeedbackSign::kNegative;
  EXPECT_TRUE(
      peers_[0]->IngestFactor(id, announcement.closure, flipped, 0.4).ok());
  const auto views = peers_[0]->ReplicaViews();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].sign, FeedbackSign::kPositive);
  EXPECT_DOUBLE_EQ(views[0].delta, 0.1);
}

// --- Byzantine guard ---------------------------------------------------------

TEST_F(PeerTest, GuardRejectsMalformedMeasures) {
  options_.byzantine_guard.enabled = true;
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const double before = peers_[0]->Posterior(MappingVarKey{edges_.m12, 0});
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  // NaN, infinite and all-zero measures never reach the factor pool, but
  // they are honest-fallout shapes (a poisoned upstream product collapses
  // to {0,0} or overflows one hop later), so they are refused WITHOUT a
  // Status and WITHOUT feeding the sender's misbehavior score.
  BeliefMessage degenerate;
  degenerate.AddGroup(
      0, id,
      {BeliefEntry{3, Belief{std::numeric_limits<double>::quiet_NaN(), 1.0}},
       BeliefEntry{3, Belief{std::numeric_limits<double>::infinity(), 1.0}},
       BeliefEntry{3, Belief{0.0, 0.0}}});
  EXPECT_TRUE(peers_[0]->AbsorbBeliefBundle(3, degenerate).ok());
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 3u);
  {
    const auto views = peers_[0]->GuardViews();
    const auto sender = std::find_if(
        views.begin(), views.end(),
        [](const Peer::GuardLinkView& v) { return v.peer == 3; });
    ASSERT_NE(sender, views.end());
    EXPECT_EQ(sender->rejections, 3u);
    EXPECT_EQ(sender->score, 0.0);
  }

  // A negative measure cannot arise from honest arithmetic — it is a
  // protocol violation: refused with a Status AND scored.
  BeliefMessage negative;
  negative.AddGroup(0, id, {BeliefEntry{3, Belief{-0.5, 1.0}}});
  EXPECT_EQ(peers_[0]->AbsorbBeliefBundle(3, negative).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 4u);
  const auto views = peers_[0]->GuardViews();
  const auto guilty = std::find_if(
      views.begin(), views.end(),
      [](const Peer::GuardLinkView& v) { return v.peer == 3; });
  ASSERT_NE(guilty, views.end());
  EXPECT_EQ(guilty->rejections, 4u);
  EXPECT_GT(guilty->score, 0.0);

  peers_[0]->ComputeRound();
  EXPECT_NEAR(peers_[0]->Posterior(MappingVarKey{edges_.m12, 0}), before,
              1e-12);
}

TEST_F(PeerTest, GuardEnforcesSlotOwnership) {
  options_.byzantine_guard.enabled = true;
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  // In f1, position i is owned by peer i. Peer 3 writing position 1
  // is a third-party overwrite: without this check an impersonator
  // could both poison the slot AND frame its honest owner for
  // equivocation (slot history is per-slot, not per-link).
  BeliefMessage forged;
  forged.AddGroup(0, id, {BeliefEntry{1, Belief{0.9, 0.1}}});
  EXPECT_EQ(peers_[0]->AbsorbBeliefBundle(3, forged).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 1u);

  // Claiming the RECEIVER's own variable is equally rejected.
  BeliefMessage own;
  own.AddGroup(0, id, {BeliefEntry{0, Belief{0.9, 0.1}}});
  EXPECT_EQ(peers_[0]->AbsorbBeliefBundle(3, own).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 2u);

  const auto views = peers_[0]->GuardViews();
  const auto guilty = std::find_if(
      views.begin(), views.end(),
      [](const Peer::GuardLinkView& v) { return v.peer == 3; });
  ASSERT_NE(guilty, views.end());
  EXPECT_EQ(guilty->rejections, 2u);
  EXPECT_GT(guilty->score, 0.0);

  // The same value from the slot's actual owner is admitted untouched.
  BeliefMessage honest;
  honest.AddGroup(0, id, {BeliefEntry{1, Belief{0.9, 0.1}}});
  EXPECT_TRUE(peers_[0]->AbsorbBeliefBundle(1, honest).ok());
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 2u);
}

TEST_F(PeerTest, GuardFlagsSameRoundEquivocationAndKeepsFirstValue) {
  options_.byzantine_guard.enabled = true;
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  BeliefMessage first;
  first.AddGroup(0, id, {BeliefEntry{1, Belief{0.2, 0.8}}});
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, first).ok());
  // An identical re-delivery (the retransmission layer's duplicate) is
  // NOT equivocation — only a conflicting same-round value is.
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, first).ok());
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 0u);

  BeliefMessage conflicting;
  conflicting.AddGroup(0, id, {BeliefEntry{1, Belief{0.8, 0.2}}});
  EXPECT_EQ(peers_[0]->AbsorbBeliefBundle(1, conflicting).code(),
            StatusCode::kFailedPrecondition);
  const auto views = peers_[0]->GuardViews();
  const auto guilty = std::find_if(
      views.begin(), views.end(),
      [](const Peer::GuardLinkView& v) { return v.peer == 1; });
  ASSERT_NE(guilty, views.end());
  EXPECT_EQ(guilty->equivocations, 1u);

  // First-value-wins: re-delivering the ORIGINAL value after the
  // conflicting one is still consistent with what the pool holds.
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, first).ok());
  EXPECT_GE(peers_[0]->ComputeRound(), 0.0);
}

TEST_F(PeerTest, GuardRejectsQuantInconsistentValues) {
  options_.byzantine_guard.enabled = true;
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  // A tier-consistent quantized bundle is admitted...
  BeliefMessage honest;
  honest.AddGroup(0, id, {BeliefEntry{3, Belief{0.3, 0.7}}});
  honest.QuantizeValues(10);
  ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(3, honest).ok());
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 0u);

  // ...but a belief that is not the exact realization of its declared
  // quantum is a lie about the wire encoding and is rejected.
  BeliefMessage tampered;
  tampered.AddGroup(0, id, {BeliefEntry{3, Belief{0.3, 0.7}}});
  tampered.QuantizeValues(10);
  tampered.entries[0].belief = Belief{0.31, 0.69};
  EXPECT_EQ(peers_[0]->AbsorbBeliefBundle(3, tampered).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 1u);

  // A quantum outside the tier's representable range is equally invalid
  // (unless it is one of the ±inf sentinels).
  BeliefMessage out_of_tier;
  out_of_tier.AddGroup(0, id, {BeliefEntry{3, Belief{0.3, 0.7}}});
  out_of_tier.QuantizeValues(10);
  out_of_tier.entries[0].quant = QuantBound(10) + 1;
  EXPECT_EQ(peers_[0]->AbsorbBeliefBundle(3, out_of_tier).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(peers_[0]->guard_rejected_entries(), 2u);
}

TEST_F(PeerTest, GuardDemotesOscillatingNeighborStickily) {
  options_.byzantine_guard.enabled = true;
  // One full flip streak should cross the soft threshold by itself.
  options_.byzantine_guard.oscillation_weight =
      options_.byzantine_guard.soft_threshold;
  peers_[0]->IngestFeedback(F1Announcement());
  peers_[0]->ComputeRound();
  const FactorId id = FactorId::Make(F1Announcement().closure, 0);

  // Alternate a strong pro / strong con value every round: each round
  // reverses the slot's direction, and after `oscillation_bound`
  // reversals the streak scores one oscillation event.
  uint32_t demoted_at = 0;
  for (uint32_t round = 0; round < 32; ++round) {
    BeliefMessage swing;
    const Belief value =
        (round % 2 == 0) ? Belief{0.99, 0.01} : Belief{0.01, 0.99};
    swing.AddGroup(0, id, {BeliefEntry{3, value}});
    ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(3, swing).ok());
    peers_[0]->ComputeRound();
    if (peers_[0]->guard_demoted_links() > 0) {
      demoted_at = round;
      break;
    }
  }
  EXPECT_GT(demoted_at, 0u);
  const auto views = peers_[0]->GuardViews();
  const auto guilty = std::find_if(
      views.begin(), views.end(),
      [](const Peer::GuardLinkView& v) { return v.peer == 3; });
  ASSERT_NE(guilty, views.end());
  EXPECT_GE(guilty->oscillations, 1u);
  EXPECT_EQ(guilty->demote_level, 1u);

  // Demotion is sticky: honest rounds afterwards do not parole the link
  // even as the score decays below the threshold.
  for (uint32_t round = 0; round < 40; ++round) {
    peers_[0]->ComputeRound();
  }
  EXPECT_EQ(peers_[0]->guard_demoted_links(), 1u);
}

TEST_F(PeerTest, GuardedCleanAbsorbMatchesUnguardedBitwise) {
  // Clone peer 0's exact state into a twin that runs with the guard on;
  // feed both the identical honest traffic. The guard must be a pure
  // observer on clean input: posteriors stay bitwise-identical.
  peers_[0]->IngestFeedback(F1Announcement());
  const Peer::Image image = peers_[0]->CaptureImage();
  EngineOptions guarded_options = options_;
  guarded_options.byzantine_guard.enabled = true;
  Schema schema("p1");
  for (size_t a = 0; a < kAttrs; ++a) {
    ASSERT_TRUE(schema.AddAttribute(StrFormat("a%zu", a)).ok());
  }
  Peer guarded(0, std::move(schema), &graph_, &guarded_options);
  guarded.RestoreImage(image);

  const FactorId id = FactorId::Make(F1Announcement().closure, 0);
  for (uint32_t round = 0; round < 12; ++round) {
    // Honest traffic: each owner sends its own position's value.
    BeliefMessage from1;
    const double pro = 0.3 + 0.04 * round;
    from1.AddGroup(0, id, {BeliefEntry{1, Belief{pro, 1.0 - pro}}});
    BeliefMessage from2;
    from2.AddGroup(0, id, {BeliefEntry{2, Belief{0.6, 0.4}}});
    ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(1, from1).ok());
    ASSERT_TRUE(peers_[0]->AbsorbBeliefBundle(2, from2).ok());
    ASSERT_TRUE(guarded.AbsorbBeliefBundle(1, from1).ok());
    ASSERT_TRUE(guarded.AbsorbBeliefBundle(2, from2).ok());
    EXPECT_EQ(peers_[0]->ComputeRound(), guarded.ComputeRound());
  }
  EXPECT_EQ(peers_[0]->Posterior(MappingVarKey{edges_.m12, 0}),
            guarded.Posterior(MappingVarKey{edges_.m12, 0}));
  EXPECT_EQ(guarded.guard_rejected_entries(), 0u);
  EXPECT_EQ(guarded.guard_demoted_links(), 0u);
}

TEST_F(PeerTest, ProcessQueryDeduplicatesByQueryId) {
  peers_[0]->store().Insert(1, {{0, "value"}});
  QueryMessage message;
  message.query_id = 7;
  message.ttl = 0;
  message.query.AddProjection(0);
  const QueryActions first = peers_[0]->ProcessQuery(message, false);
  EXPECT_EQ(first.rows.size(), 1u);
  const QueryActions second = peers_[0]->ProcessQuery(message, false);
  EXPECT_TRUE(second.rows.empty());
  EXPECT_TRUE(peers_[0]->SawQuery(7));
}

}  // namespace
}  // namespace pdms
