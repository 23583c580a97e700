#include "net/message.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "net/codec.h"
#include "util/string_util.h"

namespace pdms {

std::string MappingVarKey::ToString() const {
  if (attribute == kWholeMapping) return StrFormat("m(e%u)", edge);
  return StrFormat("m(e%u,a%u)", edge, attribute);
}

namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mixer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Two independent 64-bit mixing lanes absorbed word by word. The lanes
/// start from distinct constants and perturb each word differently, so the
/// combined 128-bit state avalanches on every input bit. Deterministic
/// across platforms and runs — the fingerprint is a wire identity, never a
/// per-process hash.
struct Fingerprint128 {
  uint64_t hi = 0x13198a2e03707344ull;  // pi fractional digits
  uint64_t lo = 0x243f6a8885a308d3ull;

  void Absorb(uint64_t word) {
    lo = Mix64(lo ^ word);
    hi = Mix64(hi + (word ^ 0xa4093822299f31d0ull));
  }
};

}  // namespace

FactorId FactorId::Make(const Closure& closure, AttributeId root_attribute) {
  // Canonical content: kind + sorted member edges + root peer (cycles are
  // announced only by their minimum-id member, so source is canonical) +
  // sink/split for parallel paths + root attribute. The id must identify
  // the factor *content*: the same edge set rooted at a different peer
  // induces a different attribute chain and therefore a different factor.
  std::vector<EdgeId> sorted = closure.edges;
  std::sort(sorted.begin(), sorted.end());
  Fingerprint128 fp;
  fp.Absorb(closure.kind == Closure::Kind::kCycle ? 'c' : 'p');
  fp.Absorb(sorted.size());
  for (EdgeId edge : sorted) fp.Absorb(edge);
  fp.Absorb(closure.source);
  if (closure.kind == Closure::Kind::kParallelPaths) {
    fp.Absorb(closure.sink);
    fp.Absorb(closure.split);
  }
  fp.Absorb(root_attribute);
  return FactorId{fp.hi, fp.lo};
}

std::string FactorId::ToString() const {
  return StrFormat("%016llx:%016llx", static_cast<unsigned long long>(hi),
                   static_cast<unsigned long long>(lo));
}

uint32_t AliasSessionTx::Assign(const FactorId& id) {
  const auto [it, inserted] = alias_of.emplace(id, next_alias);
  if (inserted) ++next_alias;
  return it->second;
}

Status AliasSessionRx::Bind(uint32_t alias, const FactorId& id) {
  if (alias >= kMaxAliasesPerSession) {
    return Status::OutOfRange(
        StrFormat("belief alias %u exceeds the per-session bound", alias));
  }
  if (alias >= id_of.size()) id_of.resize(alias + 1);  // holes stay nil
  FactorId& slot = id_of[alias];
  if (slot.IsNil()) {
    slot = id;
    // Advance the contiguous acked prefix over any holes this filled.
    while (known_prefix < id_of.size() && !id_of[known_prefix].IsNil()) {
      ++known_prefix;
    }
    return Status::Ok();
  }
  if (slot == id) return Status::Ok();  // re-declared binding: idempotent
  return Status::FailedPrecondition(
      StrFormat("belief alias %u rebound to a different factor (%s vs %s)",
                alias, id.ToString().c_str(), slot.ToString().c_str()));
}

Result<FactorId> AliasSessionRx::Resolve(uint32_t alias) const {
  if (alias >= id_of.size() || id_of[alias].IsNil()) {
    return Status::NotFound(
        StrFormat("belief alias %u has no binding in this session", alias));
  }
  return id_of[alias];
}

uint32_t ValueBitsForBudget(double eps) {
  if (!(eps > 0.0)) return 0;
  const double bits = std::ceil(std::log2(8.0 / eps));
  if (bits <= 2.0) return 2;
  if (bits >= kMaxValuePrecisionBits) return kMaxValuePrecisionBits;
  return static_cast<uint32_t>(bits);
}

int64_t QuantizeLogOdds(const Belief& belief, uint32_t bits) {
  // One-sided and degenerate measures first: log() of their entries is
  // not finite, and their meaning survives quantization exactly.
  const bool correct_zero = !(belief.correct > 0.0);
  const bool incorrect_zero = !(belief.incorrect > 0.0);
  if (correct_zero && incorrect_zero) return 0;  // normalizes to uniform
  if (incorrect_zero) return kQuantPosInf;
  if (correct_zero) return kQuantNegInf;
  const double log_odds = std::log(belief.correct) - std::log(belief.incorrect);
  if (std::isnan(log_odds)) return 0;
  const int64_t bound = QuantBound(bits);
  if (log_odds >= std::ldexp(static_cast<double>(bound), -static_cast<int>(bits)))
    return bound;
  if (log_odds <= std::ldexp(static_cast<double>(-bound), -static_cast<int>(bits)))
    return -bound;
  return std::llround(std::ldexp(log_odds, static_cast<int>(bits)));
}

Belief DequantizeLogOdds(int64_t quant, uint32_t bits) {
  if (quant == kQuantPosInf) return Belief{1.0, 0.0};
  if (quant == kQuantNegInf) return Belief{0.0, 1.0};
  const double log_odds =
      std::ldexp(static_cast<double>(quant), -static_cast<int>(bits));
  // Normalized sigmoid pair: the log-odds of the result is exactly
  // `log_odds` (up to one rounding each side), and extreme quanta
  // degrade gracefully to the one-sided measures.
  return Belief{1.0 / (1.0 + std::exp(-log_odds)),
                1.0 / (1.0 + std::exp(log_odds))};
}

namespace {

/// Zigzag mapping of a signed value onto the unsigned varint domain
/// (0, -1, 1, -2, … -> 0, 1, 2, 3, …).
uint64_t ZigZagQuant(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

}  // namespace

uint64_t QuantWireToken(int64_t quant) {
  if (quant == kQuantPosInf) return 0;
  if (quant == kQuantNegInf) return 1;
  return ZigZagQuant(quant) + 2;
}

int64_t QuantFromWireToken(uint64_t token) {
  if (token == 0) return kQuantPosInf;
  if (token == 1) return kQuantNegInf;
  const uint64_t zigzag = token - 2;
  return static_cast<int64_t>(zigzag >> 1) ^ -static_cast<int64_t>(zigzag & 1);
}

void BeliefMessage::QuantizeValues(uint32_t bits) {
  value_bits = bits;
  if (bits == 0) return;
  for (BeliefEntry& entry : entries) {
    entry.quant = QuantizeLogOdds(entry.belief, bits);
    entry.belief = DequantizeLogOdds(entry.quant, bits);
  }
}

void BeliefMessage::AddGroup(uint32_t alias, const FactorId& id,
                             std::initializer_list<BeliefEntry> group_entries) {
  BeliefGroup group;
  group.alias = alias;
  group.id = id;
  group.entry_begin = static_cast<uint32_t>(entries.size());
  group.entry_count = static_cast<uint32_t>(group_entries.size());
  entries.insert(entries.end(), group_entries.begin(), group_entries.end());
  groups.push_back(group);
}

std::string_view MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kProbe:
      return "probe";
    case MessageKind::kFeedback:
      return "feedback";
    case MessageKind::kBelief:
      return "belief";
    case MessageKind::kQuery:
      return "query";
  }
  return "?";
}

MessageKind KindOf(const Payload& payload) {
  return static_cast<MessageKind>(payload.index());
}

}  // namespace pdms
