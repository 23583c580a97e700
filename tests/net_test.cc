#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "graph/topology.h"
#include "mapping/mapping_generator.h"
#include "net/codec.h"
#include "net/message.h"
#include "net/network.h"
#include "pdms/builder.h"
#include "pdms/pdms.h"
#include "util/rng.h"

namespace pdms {
namespace {

BeliefMessage MakeBelief() {
  BeliefMessage message;
  message.AddGroup(0, FactorId{0x1, 0x2},
                   {BeliefEntry{0, Belief::FromProbability(0.7)}});
  return message;
}

TEST(MappingVarKeyTest, OrderingAndNaming) {
  const MappingVarKey a{1, 2};
  const MappingVarKey b{1, 3};
  const MappingVarKey c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.ToString(), "m(e1,a2)");
  const MappingVarKey coarse{4, MappingVarKey::kWholeMapping};
  EXPECT_EQ(coarse.ToString(), "m(e4)");
}

TEST(FactorIdTest, CanonicalAcrossEdgeOrderings) {
  // The fingerprint must depend on the edge *set*, not the order probes
  // happened to discover it in: any permutation yields the same id.
  Closure first;
  first.kind = Closure::Kind::kCycle;
  first.edges = {3, 1, 2};
  first.source = 1;
  first.sink = 1;
  Closure second = first;
  second.edges = {1, 2, 3};
  Closure third = first;
  third.edges = {2, 3, 1};
  EXPECT_EQ(FactorId::Make(first, 5), FactorId::Make(second, 5));
  EXPECT_EQ(FactorId::Make(first, 5), FactorId::Make(third, 5));
  EXPECT_NE(FactorId::Make(first, 5), FactorId::Make(second, 6));
}

TEST(FactorIdTest, DistinguishesRootAndKind) {
  Closure cycle;
  cycle.kind = Closure::Kind::kCycle;
  cycle.edges = {1, 2};
  cycle.source = 0;
  cycle.sink = 0;
  Closure other_root = cycle;
  other_root.source = 1;
  EXPECT_NE(FactorId::Make(cycle, 0), FactorId::Make(other_root, 0));

  Closure parallel = cycle;
  parallel.kind = Closure::Kind::kParallelPaths;
  parallel.split = 1;
  parallel.sink = 3;
  EXPECT_NE(FactorId::Make(cycle, 0), FactorId::Make(parallel, 0));
}

TEST(FactorIdTest, DistinguishesNearbyEdgeSets) {
  // Adjacent ids and swapped members must not alias: the two mixing lanes
  // have to avalanche on single-bit input differences.
  Closure base;
  base.kind = Closure::Kind::kCycle;
  base.edges = {10, 11};
  base.source = 0;
  base.sink = 0;
  Closure shifted = base;
  shifted.edges = {11, 12};
  Closure longer = base;
  longer.edges = {10, 11, 12};
  const FactorId a = FactorId::Make(base, 0);
  EXPECT_NE(a, FactorId::Make(shifted, 0));
  EXPECT_NE(a, FactorId::Make(longer, 0));
  EXPECT_FALSE(a.IsNil());
  // Identity hashing feeds `lo` straight into the hash table: the two
  // halves must differ from each other and across inputs.
  EXPECT_NE(a.hi, a.lo);
  EXPECT_NE(a.lo, FactorId::Make(shifted, 0).lo);
}

TEST(FactorIdTest, StableRendering) {
  Closure cycle;
  cycle.kind = Closure::Kind::kCycle;
  cycle.edges = {1, 2};
  cycle.source = 0;
  cycle.sink = 0;
  const FactorId id = FactorId::Make(cycle, 0);
  // Same content, same process-independent fingerprint: rendering is a
  // pure function of the two words.
  EXPECT_EQ(id.ToString(), FactorId::Make(cycle, 0).ToString());
  EXPECT_EQ(id.ToString().size(), 33u);  // 16 hex + ':' + 16 hex
}

TEST(AliasSessionTest, TxAssignsDenselyAndIdempotently) {
  AliasSessionTx tx;
  EXPECT_EQ(tx.Assign(FactorId{1, 1}), 0u);
  EXPECT_EQ(tx.Assign(FactorId{2, 2}), 1u);
  EXPECT_EQ(tx.Assign(FactorId{1, 1}), 0u);  // first mention wins
  EXPECT_EQ(tx.next_alias, 2u);
}

TEST(AliasSessionTest, RxBindingsAdvanceContiguousPrefixOverHoles) {
  AliasSessionRx rx;
  EXPECT_TRUE(rx.Bind(0, FactorId{1, 1}).ok());
  EXPECT_EQ(rx.known_prefix, 1u);
  // Alias 2 arrives before 1 (its binding bundle was dropped): the acked
  // prefix must not claim the hole.
  EXPECT_TRUE(rx.Bind(2, FactorId{3, 3}).ok());
  EXPECT_EQ(rx.known_prefix, 1u);
  EXPECT_TRUE(rx.Bind(1, FactorId{2, 2}).ok());
  EXPECT_EQ(rx.known_prefix, 3u);  // hole filled: prefix jumps past both

  // Idempotent re-declaration vs. conflicting rebind vs. absurd alias.
  EXPECT_TRUE(rx.Bind(1, FactorId{2, 2}).ok());
  EXPECT_EQ(rx.Bind(1, FactorId{9, 9}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rx.Bind(kMaxAliasesPerSession, FactorId{4, 4}).code(),
            StatusCode::kOutOfRange);

  // Resolution: bound aliases resolve, holes and out-of-range do not.
  ASSERT_TRUE(rx.Resolve(2).ok());
  EXPECT_EQ(*rx.Resolve(2), (FactorId{3, 3}));
  EXPECT_EQ(rx.Resolve(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rx.Resolve(99).status().code(), StatusCode::kNotFound);
}

TEST(BeliefWireFormatTest, BareAliasGroupsBeatTheFingerprintEncoding) {
  // Binding declaration (first mention): epoch(1) + ack(1) + value
  // format(1) + #groups(1) + alias token(1, single-entry bit set: no
  // count) + fingerprint(16) + position token(1) + two raw doubles (16;
  // neither component of {0.7, 0.3} is 1.0).
  const BeliefMessage first = MakeBelief();
  const WireBreakdown first_wire = PayloadWireBreakdown(Payload{first});
  EXPECT_EQ(first_wire.bytes, 38u);
  EXPECT_EQ(first_wire.key_bytes, 16u);
  EXPECT_EQ(first_wire.alias_bytes, 5u);
  EXPECT_EQ(first_wire.value_bytes, 16u);

  // Steady state (acked binding): the fingerprint is gone and the same
  // update costs 22 bytes against 34 under the pre-alias encoding — the
  // worst case (singleton group of an unnormalized measure).
  BeliefMessage steady;
  steady.AddGroup(0, FactorId{},
                  {BeliefEntry{0, Belief::FromProbability(0.7)}});
  const WireBreakdown steady_wire = PayloadWireBreakdown(Payload{steady});
  EXPECT_EQ(steady_wire.bytes, 22u);
  EXPECT_EQ(steady_wire.key_bytes, 0u);
  EXPECT_EQ(steady_wire.alias_bytes, 5u);

  // One alias header and count amortized over three delta-encoded unit
  // entries, whose form bits imply both components.
  BeliefMessage grouped;
  grouped.AddGroup(3, FactorId{},
                   {BeliefEntry{0, Belief::Unit()}, BeliefEntry{1, Belief::Unit()},
                    BeliefEntry{2, Belief::Unit()}});
  EXPECT_EQ(EncodedPayloadSize(Payload{grouped}), 4u + 2u + 3u * 1u);
  EXPECT_EQ(PayloadWireBreakdown(Payload{grouped}).value_bytes, 0u);

  // A rescaled measure ships its one non-1.0 component.
  BeliefMessage rescaled;
  rescaled.AddGroup(0, FactorId{},
                    {BeliefEntry{0, Belief::FromProbability(0.7).Rescaled()}});
  EXPECT_EQ(EncodedPayloadSize(Payload{rescaled}), 4u + 1u + 1u + 8u);

  // Positions past the one-byte token range (|delta| < 16 next to the
  // two form bits) cost exact zigzag-delta varints (two bytes each here).
  BeliefMessage wide;
  wide.AddGroup(0, FactorId{},
                {BeliefEntry{64, Belief::Unit()}, BeliefEntry{200, Belief::Unit()}});
  EXPECT_EQ(EncodedPayloadSize(Payload{wide}), 4u + 2u + 2u + 2u);

  // Every account above comes from one encoder pass: the size pass agrees.
  for (const BeliefMessage& message :
       {first, steady, grouped, rescaled, wide}) {
    EXPECT_EQ(PayloadWireBreakdown(Payload{message}).bytes,
              EncodedPayloadSize(Payload{message}));
  }
}

// --- Quantized belief values ---------------------------------------------------

TEST(QuantizationTest, BudgetPicksEnoughFractionalBits) {
  EXPECT_EQ(ValueBitsForBudget(0.0), 0u);      // disabled
  EXPECT_EQ(ValueBitsForBudget(-1.0), 0u);     // nonsense disables too
  EXPECT_EQ(ValueBitsForBudget(2.0), 2u);      // floor
  EXPECT_EQ(ValueBitsForBudget(1e-3), 13u);    // ceil(log2(8000))
  EXPECT_EQ(ValueBitsForBudget(1e-15), 44u);   // ceiling
  // More budget never means more bits.
  uint32_t previous = kMaxValuePrecisionBits;
  for (double eps : {1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0}) {
    const uint32_t bits = ValueBitsForBudget(eps);
    EXPECT_LE(bits, previous) << "eps=" << eps;
    previous = bits;
  }
}

TEST(QuantizationTest, RoundTripStaysInsideTheBudgetAtEveryTier) {
  for (uint32_t bits : {2u, 8u, 13u, 20u, 44u}) {
    // A bits-tier quantum is 2^-bits wide in log-odds; the worst rounding
    // error is half a quantum, and d(prob)/d(log-odds) = p(1-p) <= 1/4,
    // so probabilities move by at most 2^-(bits+3).
    const double budget = std::ldexp(1.0, -static_cast<int>(bits) - 3);
    for (double p : {1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6}) {
      const Belief original = Belief::FromProbability(p);
      const int64_t quant = QuantizeLogOdds(original, bits);
      const Belief decoded = DequantizeLogOdds(quant, bits);
      EXPECT_NEAR(decoded.ProbabilityCorrect(), p, budget)
          << "bits=" << bits << " p=" << p;
      // Re-quantizing the dequantized belief is a fixed point: the value a
      // receiver absorbs re-encodes to the identical quantum (and bytes).
      EXPECT_EQ(QuantizeLogOdds(decoded, bits), quant);
    }
  }
}

TEST(QuantizationTest, CertaintySurvivesExactlyViaSentinels) {
  for (uint32_t bits : {2u, 13u, 44u}) {
    EXPECT_EQ(QuantizeLogOdds(Belief{1.0, 0.0}, bits), kQuantPosInf);
    EXPECT_EQ(QuantizeLogOdds(Belief{0.0, 1.0}, bits), kQuantNegInf);
    const Belief certain = DequantizeLogOdds(kQuantPosInf, bits);
    EXPECT_EQ(certain.correct, 1.0);
    EXPECT_EQ(certain.incorrect, 0.0);
    const Belief impossible = DequantizeLogOdds(kQuantNegInf, bits);
    EXPECT_EQ(impossible.correct, 0.0);
    EXPECT_EQ(impossible.incorrect, 1.0);
  }
  // The degenerate all-zero measure and NaN-producing inputs quantize to
  // the neutral quantum instead of poisoning the wire.
  EXPECT_EQ(QuantizeLogOdds(Belief{0.0, 0.0}, 8), 0);
}

TEST(QuantizationTest, WireTokensRoundTripIncludingSentinels) {
  EXPECT_EQ(QuantWireToken(kQuantPosInf), 0u);
  EXPECT_EQ(QuantWireToken(kQuantNegInf), 1u);
  EXPECT_EQ(QuantWireToken(0), 2u);  // zigzag(0) + 2
  for (int64_t quant : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1024},
                        int64_t{-1024}, QuantBound(44), -QuantBound(44),
                        kQuantPosInf, kQuantNegInf}) {
    EXPECT_EQ(QuantFromWireToken(QuantWireToken(quant)), quant);
  }
  // Saturated small-tier quanta stay one byte on the wire.
  EXPECT_LT(QuantWireToken(0), 0x80u);
}

TEST(SimTransportTest, DeliversAfterDelay) {
  NetworkOptions options;
  options.delay_ticks = 2;
  SimTransport network(3, options);
  network.Send(0, 1, std::nullopt, MakeBelief());
  EXPECT_TRUE(network.Drain(1).empty());  // tick 0
  network.AdvanceTick();
  EXPECT_TRUE(network.Drain(1).empty());  // tick 1
  network.AdvanceTick();
  const auto due = network.Drain(1);      // tick 2
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].from, 0u);
  EXPECT_EQ(due[0].to, 1u);
  EXPECT_TRUE(std::holds_alternative<BeliefMessage>(due[0].payload));
  EXPECT_FALSE(network.HasPendingMessages());
}

TEST(SimTransportTest, FifoWithinPeer) {
  SimTransport network(2, NetworkOptions{});
  for (int i = 0; i < 5; ++i) {
    ProbeMessage probe;
    probe.origin = static_cast<PeerId>(i);
    network.Send(0, 1, std::nullopt, probe);
  }
  network.AdvanceTick();
  const auto due = network.Drain(1);
  ASSERT_EQ(due.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<ProbeMessage>(due[i].payload).origin,
              static_cast<PeerId>(i));
  }
}

TEST(SimTransportTest, StatsCountPerKind) {
  SimTransport network(3, NetworkOptions{});
  network.Send(0, 1, std::nullopt, MakeBelief());
  network.Send(1, 2, std::nullopt, ProbeMessage{});
  network.Send(2, 0, std::nullopt, QueryMessage{});
  EXPECT_EQ(network.stats().TotalSent(), 3u);
  network.AdvanceTick();
  network.Drain(0);
  network.Drain(1);
  network.Drain(2);
  EXPECT_EQ(
      network.stats().delivered[static_cast<size_t>(MessageKind::kQuery)], 1u);
  EXPECT_NE(network.stats().ToString().find("belief"), std::string::npos);
}

// --- Wire codec ---------------------------------------------------------------

std::vector<uint8_t> Encoded(const Payload& payload) {
  std::vector<uint8_t> bytes;
  EncodePayload(payload, &bytes);
  return bytes;
}

/// Encode -> decode -> re-encode must reproduce the identical bytes, and
/// the encoded size must equal the accounting the transports charge — the
/// acceptance criterion tying `PayloadWireBreakdown` to real bytes.
void ExpectRoundTrip(const Payload& payload) {
  const std::vector<uint8_t> bytes = Encoded(payload);
  EXPECT_EQ(bytes.size(), EncodedPayloadSize(payload));
  EXPECT_EQ(bytes.size(), PayloadWireBreakdown(payload).bytes);
  auto decoded = DecodePayload(KindOf(payload), bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(KindOf(*decoded), KindOf(payload));
  EXPECT_EQ(Encoded(*decoded), bytes) << "re-encode differs";
}

/// Every proper prefix of a valid encoding must be rejected (counts are
/// declared up front, so a prefix always truncates a promised field), and
/// so must trailing garbage.
void ExpectStrictFraming(const Payload& payload) {
  const std::vector<uint8_t> bytes = Encoded(payload);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto truncated =
        DecodePayload(KindOf(payload), std::span(bytes.data(), cut));
    EXPECT_FALSE(truncated.ok()) << "prefix of " << cut << " bytes accepted";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodePayload(KindOf(payload), padded).ok())
      << "trailing byte accepted";
}

ProbeMessage MakeRichProbe() {
  ProbeMessage probe;
  probe.origin = 3;
  probe.ttl = 5;
  probe.route = {2, 7, 300};
  probe.trail.resize(2);
  probe.trail[0] = {AttributeId{1}, std::nullopt, AttributeId{4}};
  probe.trail[1] = {std::nullopt, AttributeId{0}, std::nullopt};
  return probe;
}

FeedbackAnnouncement MakeRichFeedback() {
  FeedbackAnnouncement message;
  message.closure.kind = Closure::Kind::kParallelPaths;
  message.closure.edges = {4, 9, 11};
  message.closure.split = 1;
  message.closure.source = 2;
  message.closure.sink = 6;
  message.delta = 0.125;
  AttributeFeedback positive;
  positive.root_attribute = 0;
  positive.sign = FeedbackSign::kPositive;
  positive.members = {{4, 0}, {9, 3}, {11, MappingVarKey::kWholeMapping}};
  AttributeFeedback negative;
  negative.root_attribute = 7;
  negative.sign = FeedbackSign::kNegative;
  negative.members = {{4, 7}};
  message.feedback = {positive, negative};
  return message;
}

QueryMessage MakeRichQuery() {
  QueryMessage message;
  message.query_id = 0x1122334455667788ull;
  message.origin = 1;
  message.ttl = 4;
  message.query = Query("q7");
  message.query.AddProjection(0);
  message.query.AddSelection(1, "river");
  message.visited = {0, 2, 5};
  message.piggyback = {
      BeliefUpdate{FactorId{0xdead, 0xbeef}, 3, Belief::FromProbability(0.9)}};
  return message;
}

TEST(CodecTest, EveryPayloadAlternativeRoundTripsByteIdentically) {
  ExpectRoundTrip(Payload{ProbeMessage{}});
  ExpectRoundTrip(Payload{MakeRichProbe()});
  ExpectRoundTrip(Payload{FeedbackAnnouncement{}});
  ExpectRoundTrip(Payload{MakeRichFeedback()});
  ExpectRoundTrip(Payload{BeliefMessage{}});
  ExpectRoundTrip(Payload{MakeBelief()});
  ExpectRoundTrip(Payload{QueryMessage{}});
  ExpectRoundTrip(Payload{MakeRichQuery()});

  // The belief shapes the exact-size test above pins down, plus a
  // multi-group bundle exercising alias deltas in both directions.
  BeliefMessage grouped;
  grouped.AddGroup(3, FactorId{},
                   {BeliefEntry{0, Belief::Unit()}, BeliefEntry{1, Belief::Unit()},
                    BeliefEntry{2, Belief::Unit()}});
  grouped.AddGroup(1, FactorId{0x5, 0x6}, {BeliefEntry{64, Belief::Unit()}});
  grouped.epoch = 2;
  grouped.ack = 130;
  ExpectRoundTrip(Payload{grouped});
}

TEST(CodecTest, EncodedSizeMatchesAccountingForAllKinds) {
  // The per-kind acceptance check: real encoded bytes == the breakdown the
  // transports charge (release builds included — this is the non-assert
  // form of the debug cross-check inside EncodePayload).
  for (const Payload& payload :
       {Payload{MakeRichProbe()}, Payload{MakeRichFeedback()},
        Payload{MakeBelief()}, Payload{MakeRichQuery()}}) {
    EXPECT_EQ(Encoded(payload).size(), PayloadWireBreakdown(payload).bytes)
        << MessageKindName(KindOf(payload));
  }
}

TEST(CodecTest, RejectsTruncationAndTrailingGarbageForAllKinds) {
  ExpectStrictFraming(Payload{MakeRichProbe()});
  ExpectStrictFraming(Payload{MakeRichFeedback()});
  ExpectStrictFraming(Payload{MakeBelief()});
  ExpectStrictFraming(Payload{MakeRichQuery()});
}

std::vector<uint8_t> RawVarints(std::initializer_list<uint64_t> values) {
  std::vector<uint8_t> bytes;
  for (uint64_t value : values) {
    while (value >= 0x80) {
      bytes.push_back(static_cast<uint8_t>(value) | 0x80);
      value >>= 7;
    }
    bytes.push_back(static_cast<uint8_t>(value));
  }
  return bytes;
}

TEST(CodecTest, RejectsMalformedVarints) {
  // 11 continuation bytes: longer than any 64-bit varint.
  std::vector<uint8_t> overlong(11, 0x80);
  EXPECT_FALSE(DecodePayload(MessageKind::kBelief, overlong).ok());
  // Ten bytes whose last carries bits beyond the 64th.
  std::vector<uint8_t> overflow(9, 0x80);
  overflow.push_back(0x7f);
  EXPECT_FALSE(DecodePayload(MessageKind::kBelief, overflow).ok());
  // Non-minimal encoding of 0 (0x80 0x00 instead of 0x00): decoding it
  // would re-encode to different bytes, so it is refused outright.
  const std::vector<uint8_t> non_minimal = {0x80, 0x00};
  EXPECT_FALSE(DecodePayload(MessageKind::kBelief, non_minimal).ok());
}

TEST(CodecTest, RejectsOutOfRangeBeliefAliases) {
  // epoch 0, ack 0, value format 0 (raw doubles), one group whose zigzag
  // alias delta lands exactly on the per-session bound (the token keeps
  // the "full id" and "single entry" bits below the delta).
  const uint64_t zigzag_bound = static_cast<uint64_t>(kMaxAliasesPerSession)
                                << 1;
  auto bytes = RawVarints({0, 0, 0, 1, zigzag_bound << 2, 0});
  const auto beyond = DecodePayload(MessageKind::kBelief, bytes);
  EXPECT_EQ(beyond.status().code(), StatusCode::kOutOfRange);

  // zigzag(-1) = 1: the first group would get alias -1.
  bytes = RawVarints({0, 0, 0, 1, (1ull << 2), 0});
  const auto negative = DecodePayload(MessageKind::kBelief, bytes);
  EXPECT_EQ(negative.status().code(), StatusCode::kOutOfRange);
}

TEST(CodecTest, RejectsCountsLargerThanTheInput) {
  // A probe claiming 2^20 route edges inside a 12-byte message must be
  // refused before any allocation happens.
  std::vector<uint8_t> bytes(8, 0x00);  // origin + ttl
  const auto count = RawVarints({1u << 20});
  bytes.insert(bytes.end(), count.begin(), count.end());
  const auto decoded = DecodePayload(MessageKind::kProbe, bytes);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // A belief group promising more entries than bytes remain (a raw entry
  // is at least its one-byte position token).
  auto belief = RawVarints({0, 0, 0, 1, 0, 1u << 16});
  EXPECT_EQ(DecodePayload(MessageKind::kBelief, belief).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Wire v5 value forms and single-entry groups ------------------------------

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void AppendDouble(std::vector<uint8_t>* bytes, double value) {
  const uint64_t bits = Bits(value);
  for (int i = 0; i < 8; ++i) {
    bytes->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

StatusCode DecodeCode(MessageKind kind, const std::vector<uint8_t>& bytes) {
  return DecodePayload(kind, bytes).status().code();
}

TEST(CodecTest, EveryValueFormRoundTripsBitwise) {
  const double x = 0.3;
  const double y = 0.6;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan_payload = std::bit_cast<double>(0x7ff4dead0000beefull);
  const std::vector<Belief> values = {
      {1.0, 1.0},  {1.0, x},       {x, 1.0},          {x, y},
      {1.0, 0.0},  {0.0, 1.0},     {0.0, 0.0},        {-0.0, 1.0},
      {1.0, -0.0}, {tiny, 1.0},    {-tiny, 3 * tiny}, {inf, 1.0},
      {-inf, inf}, {nan_payload, 1.0}, {1.0, -nan_payload},
      {-1.0, 1.0},  // only +1.0 is implied
  };
  for (const Belief& value : values) {
    SCOPED_TRACE(value.ToString());
    const size_t shipped = (Bits(value.correct) == Bits(1.0) ? 0u : 8u) +
                           (Bits(value.incorrect) == Bits(1.0) ? 0u : 8u);

    BeliefMessage bundle;
    bundle.AddGroup(0, FactorId{}, {BeliefEntry{5, value}});
    ExpectRoundTrip(Payload{bundle});
    EXPECT_EQ(PayloadWireBreakdown(Payload{bundle}).value_bytes, shipped);
    const auto decoded =
        DecodePayload(MessageKind::kBelief, Encoded(Payload{bundle}));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    const BeliefEntry& entry = std::get<BeliefMessage>(*decoded).entries.at(0);
    EXPECT_EQ(entry.position, 5u);
    EXPECT_EQ(Bits(entry.belief.correct), Bits(value.correct));
    EXPECT_EQ(Bits(entry.belief.incorrect), Bits(value.incorrect));

    // Query piggybacks carry the same form-tagged value; the position is
    // a plain varint key, no longer a 16-bit field.
    QueryMessage query;
    query.piggyback = {BeliefUpdate{FactorId{7, 8}, 70000, value}};
    ExpectRoundTrip(Payload{query});
    EXPECT_EQ(PayloadWireBreakdown(Payload{query}).value_bytes, shipped);
    const auto decoded_query =
        DecodePayload(MessageKind::kQuery, Encoded(Payload{query}));
    ASSERT_TRUE(decoded_query.ok()) << decoded_query.status();
    const BeliefUpdate& update =
        std::get<QueryMessage>(*decoded_query).piggyback.at(0);
    EXPECT_EQ(update.position, 70000u);
    EXPECT_EQ(Bits(update.belief.correct), Bits(value.correct));
    EXPECT_EQ(Bits(update.belief.incorrect), Bits(value.incorrect));
  }
}

TEST(CodecTest, RejectsNonCanonicalValueFormsAndEntryCounts) {
  // A raw bundle with one single-entry group (alias token 1): the entry's
  // token is form bits only (position 0), then the unimplied doubles.
  const auto raw_entry = [](uint64_t form,
                            std::initializer_list<double> doubles) {
    std::vector<uint8_t> bytes = RawVarints({0, 0, 0, 1, 1, form});
    for (double value : doubles) AppendDouble(&bytes, value);
    return bytes;
  };
  const auto accepted = [](const std::vector<uint8_t>& bytes) {
    return DecodePayload(MessageKind::kBelief, bytes).ok();
  };
  EXPECT_TRUE(accepted(raw_entry(0, {0.5, 0.25})));
  EXPECT_TRUE(accepted(raw_entry(1, {0.25})));
  EXPECT_TRUE(accepted(raw_entry(3, {})));
  // A raw 1.0 whose form bit could have implied it.
  EXPECT_EQ(DecodeCode(MessageKind::kBelief, raw_entry(0, {1.0, 0.25})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeCode(MessageKind::kBelief, raw_entry(0, {0.25, 1.0})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeCode(MessageKind::kBelief, raw_entry(1, {1.0})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeCode(MessageKind::kBelief, raw_entry(2, {1.0})),
            StatusCode::kInvalidArgument);

  // An explicit entry count of 1 (single-entry bit clear), at both value
  // formats; counts of 0 and 2 are canonical.
  EXPECT_EQ(DecodeCode(MessageKind::kBelief, RawVarints({0, 0, 0, 1, 0, 1, 3})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      DecodeCode(MessageKind::kBelief, RawVarints({0, 0, 13, 1, 0, 1, 0, 2})),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(accepted(RawVarints({0, 0, 0, 1, 0, 0})));
  EXPECT_TRUE(accepted(RawVarints({0, 0, 0, 1, 0, 2, 3, 11})));

  // A query piggyback spelling out an implied 1.0: its last double.
  QueryMessage query;
  query.piggyback = {BeliefUpdate{FactorId{7, 8}, 3, Belief{0.5, 0.25}}};
  std::vector<uint8_t> bytes = Encoded(Payload{query});
  bytes.resize(bytes.size() - 8);
  AppendDouble(&bytes, 1.0);
  EXPECT_EQ(DecodeCode(MessageKind::kQuery, bytes),
            StatusCode::kInvalidArgument);
}

TEST(CodecTest, SingleBitFlipsAreRejectedOrReencodeToThemselves) {
  // Multi- and single-entry groups, a binding declaration and every value
  // form: no bit of it can flip into a payload that decodes to something
  // re-encoding to other bytes.
  BeliefMessage bundle;
  bundle.epoch = 1;
  bundle.ack = 9;
  bundle.AddGroup(2, FactorId{},
                  {BeliefEntry{0, Belief{1.0, 0.25}}, BeliefEntry{1, Belief{0.5, 1.0}},
                   BeliefEntry{3, Belief{1.0, 1.0}}});
  bundle.AddGroup(0, FactorId{0x11, 0x22}, {BeliefEntry{4, Belief{0.75, 0.125}}});
  bundle.AddGroup(5, FactorId{}, {BeliefEntry{1, Belief{1.0, 0.0}}});
  const std::vector<uint8_t> bytes = Encoded(Payload{bundle});
  size_t rejected = 0;
  size_t accepted = 0;
  for (size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::vector<uint8_t> mutant = bytes;
    mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const auto decoded = DecodePayload(MessageKind::kBelief, mutant);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_EQ(Encoded(*decoded), mutant) << "bit " << bit;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

/// Forwards to a `SimTransport` and keeps a copy of every belief bundle
/// sent while capture is on.
struct BundleLog {
  std::mutex mutex;
  bool capturing = false;
  std::vector<BeliefMessage> bundles;
};

class CapturingTransport final : public Transport {
 public:
  CapturingTransport(size_t peers, const NetworkOptions& options,
                     std::shared_ptr<BundleLog> log)
      : inner_(peers, options), log_(std::move(log)) {}

  std::string_view name() const override { return "capture"; }
  size_t peer_count() const override { return inner_.peer_count(); }
  uint64_t now() const override { return inner_.now(); }
  void AdvanceTick() override { inner_.AdvanceTick(); }
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override {
    if (const auto* bundle = std::get_if<BeliefMessage>(&payload)) {
      std::lock_guard<std::mutex> lock(log_->mutex);
      if (log_->capturing) log_->bundles.push_back(*bundle);
    }
    inner_.Send(from, to, via, std::move(payload));
  }
  std::vector<Envelope> Drain(PeerId peer) override { return inner_.Drain(peer); }
  bool HasPendingMessages() const override { return inner_.HasPendingMessages(); }
  const TransportStats& stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }

 private:
  SimTransport inner_;
  std::shared_ptr<BundleLog> log_;
};

/// Every bundle the engine sends in its first inference round on a
/// 300-peer network with 2- to 4-cycles (damped, so rescaled, damped and
/// unit values all occur), at `value_error_budget` (0 = exact wire).
std::vector<BeliefMessage> OneRoundOfBundles(double value_error_budget) {
  Rng rng(2026);
  Digraph graph = topology::BarabasiAlbert(300, 2, &rng);
  topology::Symmetrize(&graph);
  MappingNetworkOptions network;
  network.attributes_per_schema = 6;
  const SyntheticPdms synthetic = BuildSyntheticPdms(graph, network, &rng);
  EngineOptions options;
  options.probe_ttl = 4;
  options.closure_limits.min_cycle_length = 2;
  options.closure_limits.max_cycle_length = 4;
  options.closure_limits.max_path_length = 1;
  options.damping = 0.5;
  options.value_error_budget = value_error_budget;
  auto log = std::make_shared<BundleLog>();
  Result<Pdms> built =
      PdmsBuilder::FromSynthetic(synthetic)
          .WithOptions(options)
          .WithTransport([log](size_t peers, const EngineOptions& engine) {
            return std::make_unique<CapturingTransport>(peers, engine.network,
                                                        log);
          })
          .Build();
  EXPECT_TRUE(built.ok()) << built.status();
  if (!built.ok()) return {};
  Pdms pdms = std::move(built).value();
  pdms.session().Discover();
  // Round 1 declares the alias bindings; round 3 runs on acked bare
  // aliases with damped values.
  for (int round = 1; round <= 3; ++round) {
    log->capturing = round != 2;
    pdms.session().Step();
  }
  return std::move(log->bundles);
}

TEST(CodecTest, EveryBundleOfA300PeerRoundRoundTripsBitwise) {
  // Not an assert: holds in Release builds, where the transports' byte
  // accounts are what the benchmarks read.
  for (double budget : {0.0, 1e-3}) {
    SCOPED_TRACE(budget);
    const std::vector<BeliefMessage> bundles = OneRoundOfBundles(budget);
    ASSERT_GT(bundles.size(), 100u);
    size_t updates = 0;
    size_t key_bytes = 0;
    size_t value_bytes = 0;
    for (const BeliefMessage& sent : bundles) {
      const Payload payload{sent};
      const std::vector<uint8_t> bytes = Encoded(payload);
      const WireBreakdown wire = PayloadWireBreakdown(payload);
      ASSERT_EQ(bytes.size(), wire.bytes);
      updates += sent.update_count();
      key_bytes += wire.key_bytes;
      value_bytes += wire.value_bytes;
      const auto decoded = DecodePayload(MessageKind::kBelief, bytes);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      ASSERT_EQ(Encoded(*decoded), bytes);
      const BeliefMessage& received = std::get<BeliefMessage>(*decoded);
      EXPECT_EQ(received.epoch, sent.epoch);
      EXPECT_EQ(received.ack, sent.ack);
      ASSERT_EQ(received.value_bits, sent.value_bits);
      EXPECT_EQ(sent.value_bits != 0, budget > 0.0);
      ASSERT_EQ(received.groups.size(), sent.groups.size());
      for (size_t g = 0; g < sent.groups.size(); ++g) {
        EXPECT_EQ(received.groups[g].alias, sent.groups[g].alias);
        EXPECT_EQ(received.groups[g].id, sent.groups[g].id);
        EXPECT_EQ(received.groups[g].entry_count, sent.groups[g].entry_count);
      }
      ASSERT_EQ(received.entries.size(), sent.entries.size());
      for (size_t i = 0; i < sent.entries.size(); ++i) {
        const BeliefEntry& a = received.entries[i];
        const BeliefEntry& b = sent.entries[i];
        EXPECT_EQ(a.position, b.position);
        EXPECT_EQ(Bits(a.belief.correct), Bits(b.belief.correct));
        EXPECT_EQ(Bits(a.belief.incorrect), Bits(b.belief.incorrect));
        if (sent.value_bits != 0) {
          EXPECT_EQ(a.quant, b.quant);
        }
      }
    }
    EXPECT_GT(key_bytes, 0u);  // round 1's binding declarations
    if (budget == 0.0) {
      // Rescaled messages ship one double, not two.
      EXPECT_LT(value_bytes, 16 * updates);
    }
  }
}

BeliefMessage MakeQuantized(uint32_t bits) {
  BeliefMessage message;
  message.AddGroup(0, FactorId{},
                   {BeliefEntry{0, Belief::FromProbability(0.7)},
                    BeliefEntry{1, Belief{1.0, 0.0}},       // +inf sentinel
                    BeliefEntry{2, Belief{0.0, 1.0}},       // -inf sentinel
                    BeliefEntry{3, Belief{1.0, 1.0}}});     // log-odds 0
  message.AddGroup(2, FactorId{0xa, 0xb},
                   {BeliefEntry{64, Belief::FromProbability(1e-4)}});
  message.QuantizeValues(bits);
  return message;
}

TEST(CodecTest, QuantizedBundlesRoundTripByteIdenticallyAtEveryTier) {
  for (uint32_t bits : {2u, 8u, 13u, 20u, 44u}) {
    const BeliefMessage message = MakeQuantized(bits);
    ExpectRoundTrip(Payload{message});
    // The decoded beliefs are exactly the sender's post-quantization
    // realizations — the codec and QuantizeValues agree on dequantization.
    const auto decoded =
        DecodePayload(MessageKind::kBelief, Encoded(Payload{message}));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    const auto& bundle = std::get<BeliefMessage>(*decoded);
    ASSERT_EQ(bundle.entries.size(), message.entries.size());
    for (size_t i = 0; i < bundle.entries.size(); ++i) {
      EXPECT_EQ(bundle.entries[i].quant, message.entries[i].quant);
      EXPECT_EQ(bundle.entries[i].belief.correct,
                message.entries[i].belief.correct);
      EXPECT_EQ(bundle.entries[i].belief.incorrect,
                message.entries[i].belief.incorrect);
    }
    // Framing stays strict under the compact entries: every truncation and
    // any trailing byte is still rejected.
    ExpectStrictFraming(Payload{message});
  }
  // A saturated-workload singleton (log-odds 0) costs 2 bytes of entry
  // against up to 17 raw — the per-update win the 10k benchmark banks on.
  // Its single-entry group carries no count, and the position token no
  // form bits.
  BeliefMessage steady;
  steady.AddGroup(0, FactorId{}, {BeliefEntry{0, Belief{1.0, 1.0}}});
  steady.QuantizeValues(13);
  EXPECT_EQ(EncodedPayloadSize(Payload{steady}), 4u + 1u + 1u + 1u);
  EXPECT_EQ(PayloadWireBreakdown(Payload{steady}).value_bytes, 1u);
}

TEST(CodecTest, MixedPrecisionBundlesCoexistOnOneLink) {
  // Adjacent bundles may carry different per-bundle value formats (the
  // sender steps precision up mid-session); each decodes independently.
  for (uint32_t bits : {0u, 2u, 13u, 44u}) {
    BeliefMessage message = MakeBelief();
    message.QuantizeValues(bits);
    const auto decoded =
        DecodePayload(MessageKind::kBelief, Encoded(Payload{message}));
    ASSERT_TRUE(decoded.ok()) << "bits=" << bits << ": " << decoded.status();
    EXPECT_EQ(std::get<BeliefMessage>(*decoded).value_bits, bits);
  }
}

TEST(CodecTest, RejectsInvalidBeliefValueFormats) {
  // Formats 1 and >44 identify no tier this build knows how to decode.
  for (uint64_t bad_format : {1u, 45u, 255u}) {
    const auto bytes = RawVarints({0, 0, bad_format, 0});
    EXPECT_EQ(DecodePayload(MessageKind::kBelief, bytes).status().code(),
              StatusCode::kInvalidArgument)
        << "format " << bad_format;
  }
}

TEST(CodecTest, RejectsQuantaOutsideThePrecisionBound) {
  // A forged quantum one past the 2-bit tier's bound must be refused —
  // accepted quanta re-encode byte-identically, so out-of-range values
  // would otherwise break the round-trip invariant.
  BeliefMessage forged = MakeBelief();
  forged.QuantizeValues(2);
  forged.entries[0].quant = QuantBound(2) + 1;
  EXPECT_EQ(DecodePayload(MessageKind::kBelief, Encoded(Payload{forged}))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  forged.entries[0].quant = -QuantBound(2) - 1;
  EXPECT_EQ(DecodePayload(MessageKind::kBelief, Encoded(Payload{forged}))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // The bound itself (the saturation value) is legal.
  forged.entries[0].quant = QuantBound(2);
  EXPECT_TRUE(
      DecodePayload(MessageKind::kBelief, Encoded(Payload{forged})).ok());
}

TEST(CodecTest, RejectsBitFlippedQuantizedFrames) {
  // End-to-end: a v4 data frame with any single payload byte corrupted is
  // caught by the frame CRC before the payload codec ever runs.
  DataFrame data;
  data.from = 1;
  data.to = 2;
  data.seq = 7;
  data.payload = MakeQuantized(13);
  std::vector<uint8_t> bytes;
  EncodeFrame(Frame{data}, &bytes);
  for (size_t bit = 0; bit < 8 * bytes.size(); bit += 37) {
    std::vector<uint8_t> flipped = bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    FrameAssembler assembler;
    assembler.Feed(flipped);
    size_t accepted = 0;
    for (;;) {
      Result<std::optional<Frame>> next = assembler.Next();
      if (!next.ok() || !next->has_value()) break;
      ++accepted;
    }
    EXPECT_EQ(accepted, 0u) << "bit " << bit << " accepted";
  }
}

TEST(CodecTest, RejectsUnknownEnumBytes) {
  std::vector<uint8_t> feedback = Encoded(Payload{MakeRichFeedback()});
  feedback[0] = 7;  // closure kind
  EXPECT_FALSE(DecodePayload(MessageKind::kFeedback, feedback).ok());

  // Split beyond the closure's edge count.
  FeedbackAnnouncement bad_split = MakeRichFeedback();
  std::vector<uint8_t> bytes = Encoded(Payload{bad_split});
  bytes[1] = 0x07;  // split varint: 7 > 3 edges
  EXPECT_FALSE(DecodePayload(MessageKind::kFeedback, bytes).ok());
}

// --- Frame codec ---------------------------------------------------------------

std::vector<uint8_t> EncodedFrame(const Frame& frame) {
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  return bytes;
}

TEST(FrameCodecTest, EveryFrameTypeRoundTripsThroughTheAssembler) {
  DataFrame data;
  data.from = 4;
  data.to = 2;
  data.via = 17;
  data.deliver_at = 9;
  data.seq = 1234;
  data.payload = MakeBelief();

  MarkFrame mark;
  mark.shard = 1;
  mark.phase = 1;
  mark.index = 12;
  mark.frames_sent = 7;
  mark.updates_sent = 21;
  mark.max_change = 0.25;
  mark.pending = true;

  QueryResponseFrame response;
  response.request_id = 99;
  response.ok = true;
  response.reached = 3;
  response.rows = {"peer=0 entity=1 values=Defoe", "peer=2 entity=1 values=Defoe"};

  const std::vector<Frame> frames = {
      Frame{data}, Frame{HelloFrame{0, 2, 24, 0x1122334455667788ull, 41}},
      Frame{mark}, Frame{QueryRequestFrame{5, 1, 4, "SELECT author"}},
      Frame{response}, Frame{LinkAckFrame{1, 0x1122334455667788ull, 42}}};

  // Feed the whole stream one byte at a time: the assembler must hold
  // partial frames and release each one exactly once, in order.
  FrameAssembler assembler;
  std::vector<uint8_t> stream;
  for (const Frame& frame : frames) {
    const std::vector<uint8_t> bytes = EncodedFrame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::vector<Frame> out;
  for (uint8_t byte : stream) {
    assembler.Feed(std::span(&byte, 1));
    for (;;) {
      auto next = assembler.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      if (!next->has_value()) break;
      out.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(out.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(FrameTypeOf(out[i]), FrameTypeOf(frames[i]));
    EXPECT_EQ(EncodedFrame(out[i]), EncodedFrame(frames[i]))
        << "frame " << i << " re-encode differs";
  }
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

/// Recomputes a framed buffer's CRC32 after the test mutated the body —
/// so the mutation surfaces as the targeted decode error, not DataLoss.
void PatchCrc(std::vector<uint8_t>* bytes) {
  const uint32_t crc = Crc32(std::span<const uint8_t>(
      bytes->data() + kFrameHeaderBytes, bytes->size() - kFrameHeaderBytes));
  for (int i = 0; i < 4; ++i) {
    (*bytes)[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

TEST(FrameCodecTest, RejectsOversizedAndUndersizedLengthPrefixes) {
  FrameAssembler oversized;
  const std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0xff,
                                     0x00, 0x00, 0x00, 0x00};
  oversized.Feed(huge);
  EXPECT_EQ(oversized.Next().status().code(), StatusCode::kOutOfRange);

  // Length 1 cannot even hold the seq varint + version + type.
  FrameAssembler undersized;
  const std::vector<uint8_t> tiny = {0x01, 0x00, 0x00, 0x00,
                                     0x00, 0x00, 0x00, 0x00, 0x00};
  undersized.Feed(tiny);
  EXPECT_EQ(undersized.Next().status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, RejectsVersionMismatchAndUnknownType) {
  // The checksummed region starts with the (single-byte, seq-0) link
  // sequence varint; version and type follow it.
  std::vector<uint8_t> bytes = EncodedFrame(Frame{HelloFrame{0, 1, 4}});
  bytes[kFrameHeaderBytes + 1] = kWireFormatVersion + 1;
  PatchCrc(&bytes);
  FrameAssembler wrong_version;
  wrong_version.Feed(bytes);
  EXPECT_EQ(wrong_version.Next().status().code(),
            StatusCode::kFailedPrecondition);

  bytes = EncodedFrame(Frame{HelloFrame{0, 1, 4}});
  bytes[kFrameHeaderBytes + 2] = 0x77;  // frame type
  PatchCrc(&bytes);
  FrameAssembler unknown_type;
  unknown_type.Feed(bytes);
  EXPECT_EQ(unknown_type.Next().status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, FlagsChecksumMismatchAsDataLoss) {
  std::vector<uint8_t> bytes = EncodedFrame(Frame{HelloFrame{0, 1, 4}});
  bytes.back() ^= 0x40;  // corrupt the body without touching the framing
  FrameAssembler assembler;
  assembler.Feed(bytes);
  EXPECT_EQ(assembler.Next().status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, ReportsTheLinkSequenceOfEveryDeliveredFrame) {
  MarkFrame mark;
  mark.shard = 1;
  std::vector<uint8_t> stream;
  EncodeFrame(Frame{HelloFrame{3, 4, 9, 77, 12}}, 0, &stream);
  EncodeFrame(Frame{mark}, 12, &stream);
  EncodeFrame(Frame{mark}, 300, &stream);  // multi-byte varint
  FrameAssembler assembler;
  assembler.Feed(stream);
  const uint64_t expected[] = {0, 12, 300};
  for (uint64_t seq : expected) {
    auto next = assembler.Next();
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_TRUE(next->has_value());
    EXPECT_EQ(assembler.last_seq(), seq);
  }
}

TEST(FrameCodecTest, DataFramePayloadConsumesTheBodyExactly) {
  DataFrame data;
  data.from = 0;
  data.to = 1;
  data.deliver_at = 2;
  data.seq = 3;
  data.payload = MakeRichProbe();
  std::vector<uint8_t> bytes = EncodedFrame(Frame{data});
  // One extra payload byte inside the framed body must be flagged by the
  // payload decoder, not silently ignored.
  bytes.push_back(0x00);
  bytes[0] += 1;  // patch the length prefix to cover the extra byte
  FrameAssembler assembler;
  assembler.Feed(bytes);
  EXPECT_FALSE(assembler.Next().ok());
}

}  // namespace
}  // namespace pdms
