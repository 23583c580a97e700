#include "net/codec.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/string_util.h"

namespace pdms {
namespace {

uint64_t ZigZag(int64_t delta) {
  return (static_cast<uint64_t>(delta) << 1) ^
         static_cast<uint64_t>(delta >> 63);
}

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

// --- Encoder sinks -------------------------------------------------------------
//
// One templated encoding pass serves both the byte accounts (CountingSink)
// and the actual serialization (AppendSink); the two can therefore never
// drift apart. Every write names the account its bytes belong to.

enum class WireSection : uint8_t {
  kFraming,  ///< everything no other section claims (incl. positions)
  kAlias,    ///< bundle header varints, alias tokens, entry counts
  kKey,      ///< 16-byte factor fingerprints
  kValue,    ///< µ values: raw doubles or quantum varints
};

struct CountingSink {
  size_t bytes[4] = {};  ///< per `WireSection`
  void Byte(uint8_t, WireSection section = WireSection::kFraming) {
    ++bytes[static_cast<size_t>(section)];
  }
  void Bytes(const void*, size_t n,
             WireSection section = WireSection::kFraming) {
    bytes[static_cast<size_t>(section)] += n;
  }
  size_t size() const { return bytes[0] + bytes[1] + bytes[2] + bytes[3]; }
};

struct AppendSink {
  std::vector<uint8_t>* out;
  void Byte(uint8_t b, WireSection = WireSection::kFraming) {
    out->push_back(b);
  }
  void Bytes(const void* data, size_t n,
             WireSection = WireSection::kFraming) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    out->insert(out->end(), bytes, bytes + n);
  }
};

template <typename Sink>
void PutVarint(Sink& sink, uint64_t value,
               WireSection section = WireSection::kFraming) {
  while (value >= 0x80) {
    sink.Byte(static_cast<uint8_t>(value) | 0x80, section);
    value >>= 7;
  }
  sink.Byte(static_cast<uint8_t>(value), section);
}

template <typename Sink>
void PutFixed32(Sink& sink, uint32_t value) {
  const uint8_t bytes[4] = {
      static_cast<uint8_t>(value), static_cast<uint8_t>(value >> 8),
      static_cast<uint8_t>(value >> 16), static_cast<uint8_t>(value >> 24)};
  sink.Bytes(bytes, 4);
}

void StoreFixed64(uint8_t* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(value >> (8 * i));
}

template <typename Sink>
void PutFixed64(Sink& sink, uint64_t value,
                WireSection section = WireSection::kFraming) {
  uint8_t bytes[8];
  StoreFixed64(bytes, value);
  sink.Bytes(bytes, 8, section);
}

template <typename Sink>
void PutDouble(Sink& sink, double value) {
  PutFixed64(sink, std::bit_cast<uint64_t>(value));
}

template <typename Sink>
void PutString(Sink& sink, const std::string& value) {
  PutVarint(sink, value.size());
  sink.Bytes(value.data(), value.size());
}

// --- Payload encoding ----------------------------------------------------------

template <typename Sink>
void EncodeProbe(const ProbeMessage& probe, Sink& sink) {
  PutFixed32(sink, probe.origin);
  PutFixed32(sink, probe.ttl);
  PutVarint(sink, probe.route.size());
  for (EdgeId edge : probe.route) PutFixed32(sink, edge);
  PutVarint(sink, probe.trail.size());
  for (const auto& hop : probe.trail) {
    PutVarint(sink, hop.size());
    for (const std::optional<AttributeId>& attr : hop) {
      PutFixed32(sink, attr ? *attr : kNullAttributeWire);
    }
  }
}

template <typename Sink>
void EncodeFeedback(const FeedbackAnnouncement& message, Sink& sink) {
  sink.Byte(static_cast<uint8_t>(message.closure.kind));
  PutVarint(sink, message.closure.split);
  PutFixed32(sink, message.closure.source);
  PutFixed32(sink, message.closure.sink);
  PutVarint(sink, message.closure.edges.size());
  for (EdgeId edge : message.closure.edges) PutFixed32(sink, edge);
  PutDouble(sink, message.delta);
  PutVarint(sink, message.feedback.size());
  for (const AttributeFeedback& entry : message.feedback) {
    PutFixed32(sink, entry.root_attribute);
    sink.Byte(static_cast<uint8_t>(entry.sign));
    PutVarint(sink, entry.members.size());
    for (const MappingVarKey& member : entry.members) {
      PutFixed32(sink, member.edge);
      PutFixed32(sink, member.attribute);
    }
  }
}

/// The one exact µ-value encoding, shared by belief bundles and query
/// piggybacks: varint(`key` << 2 | form), then each component the form
/// does not imply as a raw double. Form bit 0 says `correct` is exactly
/// 1.0 and is not shipped, bit 1 the same for `incorrect`: every
/// var->factor message leaves `Belief::Rescaled()` with one component
/// exactly 1.0 (x / x is exact), so one double per update is implied.
///
/// Branch-free and always inlined: forms vary entry by entry, and this
/// runs per update in the transports' per-send byte accounting.
template <typename Sink>
[[gnu::always_inline]] inline void PutFormTaggedValue(Sink& sink, uint64_t key,
                                                      const Belief& belief) {
  constexpr uint64_t kOne = std::bit_cast<uint64_t>(1.0);
  const uint64_t correct = std::bit_cast<uint64_t>(belief.correct);
  const uint64_t incorrect = std::bit_cast<uint64_t>(belief.incorrect);
  PutVarint(sink, (key << 2) | (correct == kOne ? 1 : 0) |
                      (incorrect == kOne ? 2 : 0));
  uint8_t raw[16];
  size_t size = 0;
  StoreFixed64(raw, correct);
  size += correct == kOne ? 0 : 8;
  StoreFixed64(raw + size, incorrect);
  size += incorrect == kOne ? 0 : 8;
  sink.Bytes(raw, size, WireSection::kValue);
}

template <typename Sink>
void EncodeBelief(const BeliefMessage& message, Sink& sink) {
  // varint(epoch) + varint(ack) + varint(value_bits) + varint(#groups);
  // per group the alias token (zigzag alias delta << 2, bit 1 = "full id
  // present", bit 0 = "single entry"), the optional 16-byte fingerprint
  // and varint(#entries) unless the single-entry bit says 1; per entry,
  // under value_bits == 0, the form-tagged value keyed by the zigzag
  // position delta (`PutFormTaggedValue`), else varint(zigzag position
  // delta) and the quantum as one `QuantWireToken` varint.
  const bool quantized = message.value_bits != 0;
  PutVarint(sink, message.epoch, WireSection::kAlias);
  PutVarint(sink, message.ack, WireSection::kAlias);
  PutVarint(sink, message.value_bits, WireSection::kAlias);
  PutVarint(sink, message.groups.size(), WireSection::kAlias);
  uint32_t previous_alias = 0;
  for (const BeliefGroup& group : message.groups) {
    const bool has_id = !group.id.IsNil();
    const std::span<const BeliefEntry> entries = message.EntriesOf(group);
    assert(entries.size() == group.entry_count &&
           "belief group entry range out of bundle bounds");
    const bool single = entries.size() == 1;
    const uint64_t alias_delta = ZigZag(static_cast<int64_t>(group.alias) -
                                        static_cast<int64_t>(previous_alias));
    PutVarint(sink, (alias_delta << 2) | (has_id ? 2 : 0) | (single ? 1 : 0),
                WireSection::kAlias);
    previous_alias = group.alias;
    if (has_id) {
      PutFixed64(sink, group.id.hi, WireSection::kKey);
      PutFixed64(sink, group.id.lo, WireSection::kKey);
    }
    if (!single) PutVarint(sink, entries.size(), WireSection::kAlias);
    uint32_t previous_position = 0;
    for (const BeliefEntry& entry : entries) {
      const uint64_t delta = ZigZag(static_cast<int64_t>(entry.position) -
                                    static_cast<int64_t>(previous_position));
      previous_position = entry.position;
      if (quantized) {
        PutVarint(sink, delta);
        PutVarint(sink, QuantWireToken(entry.quant), WireSection::kValue);
      } else {
        PutFormTaggedValue(sink, delta, entry.belief);
      }
    }
  }
}

template <typename Sink>
void EncodeQuery(const QueryMessage& message, Sink& sink) {
  PutFixed64(sink, message.query_id);
  PutFixed32(sink, message.origin);
  PutFixed32(sink, message.ttl);
  PutString(sink, message.query.name());
  PutVarint(sink, message.query.operations().size());
  for (const Operation& op : message.query.operations()) {
    sink.Byte(static_cast<uint8_t>(op.kind));
    PutFixed32(sink, op.attribute);
    PutString(sink, op.literal);
  }
  PutVarint(sink, message.visited.size());
  for (PeerId peer : message.visited) PutFixed32(sink, peer);
  PutVarint(sink, message.piggyback.size());
  for (const BeliefUpdate& update : message.piggyback) {
    PutFixed64(sink, update.factor.hi, WireSection::kKey);
    PutFixed64(sink, update.factor.lo, WireSection::kKey);
    PutFormTaggedValue(sink, update.position, update.belief);
  }
}

template <typename Sink>
void EncodePayloadTo(const Payload& payload, Sink& sink) {
  std::visit(
      [&sink](const auto& message) {
        using T = std::decay_t<decltype(message)>;
        if constexpr (std::is_same_v<T, ProbeMessage>) {
          EncodeProbe(message, sink);
        } else if constexpr (std::is_same_v<T, FeedbackAnnouncement>) {
          EncodeFeedback(message, sink);
        } else if constexpr (std::is_same_v<T, BeliefMessage>) {
          EncodeBelief(message, sink);
        } else {
          static_assert(std::is_same_v<T, QueryMessage>);
          EncodeQuery(message, sink);
        }
      },
      payload);
}

// --- Strict reader -------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

  Status ReadByte(uint8_t* out) {
    if (remaining() < 1) return Truncated("byte");
    *out = data_[pos_++];
    return Status::Ok();
  }

  /// Minimal-form LEB128 only: overlong encodings (a redundant trailing
  /// zero group, or more than 10 bytes / bits beyond 64) are rejected so
  /// every decoded value re-encodes to the identical bytes.
  Status ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    for (size_t i = 0; i < 10; ++i) {
      if (remaining() < 1) return Truncated("varint");
      const uint8_t byte = data_[pos_++];
      if (i == 9 && byte > 0x01) {
        return Status::InvalidArgument("varint overflows 64 bits");
      }
      value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) {
          return Status::InvalidArgument("non-minimal varint encoding");
        }
        *out = value;
        return Status::Ok();
      }
    }
    return Status::InvalidArgument("varint longer than 10 bytes");
  }

  Status ReadVarint32(uint32_t* out, const char* what) {
    uint64_t value = 0;
    PDMS_RETURN_IF_ERROR(ReadVarint(&value));
    if (value > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument(
          StrFormat("%s %llu exceeds 32 bits", what,
                    static_cast<unsigned long long>(value)));
    }
    *out = static_cast<uint32_t>(value);
    return Status::Ok();
  }

  /// A container count: additionally bounded by the bytes that could back
  /// `min_element_bytes`-sized elements, so forged counts can never drive
  /// an allocation larger than the input itself.
  Status ReadCount(size_t min_element_bytes, size_t* out, const char* what) {
    uint64_t value = 0;
    PDMS_RETURN_IF_ERROR(ReadVarint(&value));
    const size_t bound =
        min_element_bytes == 0 ? remaining() : remaining() / min_element_bytes;
    if (value > bound) {
      return Status::InvalidArgument(
          StrFormat("%s count %llu exceeds the %zu remaining input bytes",
                    what, static_cast<unsigned long long>(value), remaining()));
    }
    *out = static_cast<size_t>(value);
    return Status::Ok();
  }

  Status ReadFixed32(uint32_t* out) {
    if (remaining() < 4) return Truncated("fixed32");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *out = value;
    return Status::Ok();
  }

  Status ReadFixed64(uint64_t* out) {
    if (remaining() < 8) return Truncated("fixed64");
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *out = value;
    return Status::Ok();
  }

  Status ReadDouble(double* out) {
    uint64_t bits = 0;
    PDMS_RETURN_IF_ERROR(ReadFixed64(&bits));
    *out = std::bit_cast<double>(bits);
    return Status::Ok();
  }

  Status ReadString(std::string* out, const char* what) {
    size_t length = 0;
    PDMS_RETURN_IF_ERROR(ReadCount(1, &length, what));
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), length);
    pos_ += length;
    return Status::Ok();
  }

  Status ExpectDone(const char* what) {
    if (!Done()) {
      return Status::InvalidArgument(
          StrFormat("%zu trailing bytes after %s", remaining(), what));
    }
    return Status::Ok();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(
        StrFormat("truncated input while reading %s", what));
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// --- Payload decoding ----------------------------------------------------------

/// One component of a form-tagged value: 1.0 when its form bit implies
/// it, else a raw double. Canonical only: a raw 1.0 the form bit could
/// have implied would re-encode to other bytes, so it is refused like a
/// non-minimal varint.
Status ReadValueComponent(Reader& reader, bool implied, double* out) {
  if (implied) {
    *out = 1.0;
    return Status::Ok();
  }
  PDMS_RETURN_IF_ERROR(reader.ReadDouble(out));
  if (*out == 1.0) {
    return Status::InvalidArgument(
        "raw 1.0 belief component where the value form implies it");
  }
  return Status::Ok();
}

/// Inverse of `PutFormTaggedValue`.
Status ReadFormTaggedValue(Reader& reader, uint64_t* key, Belief* belief) {
  uint64_t token = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadVarint(&token));
  *key = token >> 2;
  PDMS_RETURN_IF_ERROR(
      ReadValueComponent(reader, (token & 1) != 0, &belief->correct));
  return ReadValueComponent(reader, (token & 2) != 0, &belief->incorrect);
}

Status DecodeProbe(Reader& reader, ProbeMessage* probe) {
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&probe->origin));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&probe->ttl));
  size_t route_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &route_count, "probe route"));
  probe->route.resize(route_count);
  for (EdgeId& edge : probe->route) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&edge));
  }
  size_t hop_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(1, &hop_count, "probe trail"));
  probe->trail.resize(hop_count);
  for (auto& hop : probe->trail) {
    size_t attr_count = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &attr_count, "probe trail hop"));
    hop.resize(attr_count);
    for (std::optional<AttributeId>& attr : hop) {
      uint32_t raw = 0;
      PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&raw));
      if (raw == kNullAttributeWire) {
        attr = std::nullopt;
      } else {
        attr = raw;
      }
    }
  }
  return Status::Ok();
}

Status DecodeFeedback(Reader& reader, FeedbackAnnouncement* message) {
  uint8_t kind = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&kind));
  if (kind > static_cast<uint8_t>(Closure::Kind::kParallelPaths)) {
    return Status::InvalidArgument(
        StrFormat("unknown closure kind %u", kind));
  }
  message->closure.kind = static_cast<Closure::Kind>(kind);
  uint64_t split = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadVarint(&split));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->closure.source));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->closure.sink));
  size_t edge_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &edge_count, "closure edge"));
  if (split > edge_count) {
    return Status::InvalidArgument(
        StrFormat("closure split %llu beyond its %zu edges",
                  static_cast<unsigned long long>(split), edge_count));
  }
  message->closure.split = static_cast<size_t>(split);
  message->closure.edges.resize(edge_count);
  for (EdgeId& edge : message->closure.edges) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&edge));
  }
  PDMS_RETURN_IF_ERROR(reader.ReadDouble(&message->delta));
  size_t feedback_count = 0;
  // Min per entry: fixed32 root + sign byte + member-count varint.
  PDMS_RETURN_IF_ERROR(reader.ReadCount(6, &feedback_count, "feedback"));
  message->feedback.resize(feedback_count);
  for (AttributeFeedback& entry : message->feedback) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&entry.root_attribute));
    uint8_t sign = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadByte(&sign));
    if (sign > static_cast<uint8_t>(FeedbackSign::kNeutral)) {
      return Status::InvalidArgument(
          StrFormat("unknown feedback sign %u", sign));
    }
    entry.sign = static_cast<FeedbackSign>(sign);
    size_t member_count = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadCount(8, &member_count, "feedback member"));
    entry.members.resize(member_count);
    for (MappingVarKey& member : entry.members) {
      PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&member.edge));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&member.attribute));
    }
  }
  return Status::Ok();
}

Status DecodeBelief(Reader& reader, BeliefMessage* message) {
  PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&message->epoch, "belief epoch"));
  PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&message->ack, "belief ack"));
  PDMS_RETURN_IF_ERROR(
      reader.ReadVarint32(&message->value_bits, "belief value format"));
  if (message->value_bits != 0 &&
      (message->value_bits < 2 ||
       message->value_bits > kMaxValuePrecisionBits)) {
    return Status::InvalidArgument(
        StrFormat("belief value format %u outside [2, %u] (0 = raw doubles)",
                  message->value_bits, kMaxValuePrecisionBits));
  }
  const bool quantized = message->value_bits != 0;
  const int64_t quant_bound =
      quantized ? QuantBound(message->value_bits) : 0;
  size_t group_count = 0;
  // Min per group: the alias token varint (a single-entry group carries
  // no entry count).
  PDMS_RETURN_IF_ERROR(reader.ReadCount(1, &group_count, "belief group"));
  message->groups.resize(group_count);
  message->entries.clear();
  int64_t previous_alias = 0;
  for (BeliefGroup& group : message->groups) {
    uint64_t token = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadVarint(&token));
    const bool single = (token & 1) != 0;
    const bool has_id = (token & 2) != 0;
    const int64_t alias = previous_alias + UnZigZag(token >> 2);
    if (alias < 0 || alias >= static_cast<int64_t>(kMaxAliasesPerSession)) {
      return Status::OutOfRange(
          StrFormat("belief alias %lld outside the per-session bound",
                    static_cast<long long>(alias)));
    }
    group.alias = static_cast<uint32_t>(alias);
    previous_alias = alias;
    if (has_id) {
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&group.id.hi));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&group.id.lo));
      if (group.id.IsNil()) {
        return Status::InvalidArgument(
            "belief group declares a nil fingerprint binding");
      }
    } else {
      group.id = FactorId{};
    }
    size_t entry_count = 1;
    if (!single) {
      // Min per entry: one position token (both raw components implied
      // by its form bits), or position + quantum varints when quantized.
      PDMS_RETURN_IF_ERROR(
          reader.ReadCount(quantized ? 2 : 1, &entry_count, "belief entry"));
      if (entry_count == 1) {
        return Status::InvalidArgument(
            "explicit belief entry count 1 where the single-entry bit "
            "implies it");
      }
    }
    group.entry_begin = static_cast<uint32_t>(message->entries.size());
    group.entry_count = static_cast<uint32_t>(entry_count);
    int64_t previous_position = 0;
    for (size_t i = 0; i < entry_count; ++i) {
      BeliefEntry entry;
      uint64_t delta = 0;
      if (quantized) {
        PDMS_RETURN_IF_ERROR(reader.ReadVarint(&delta));
      } else {
        PDMS_RETURN_IF_ERROR(
            ReadFormTaggedValue(reader, &delta, &entry.belief));
      }
      const int64_t position = previous_position + UnZigZag(delta);
      if (position < 0 ||
          position > std::numeric_limits<uint32_t>::max()) {
        return Status::OutOfRange(
            StrFormat("belief entry position %lld outside 32 bits",
                      static_cast<long long>(position)));
      }
      previous_position = position;
      entry.position = static_cast<uint32_t>(position);
      if (quantized) {
        uint64_t token = 0;
        PDMS_RETURN_IF_ERROR(reader.ReadVarint(&token));
        const int64_t quant = QuantFromWireToken(token);
        if (quant != kQuantPosInf && quant != kQuantNegInf &&
            (quant > quant_bound || quant < -quant_bound)) {
          return Status::OutOfRange(StrFormat(
              "belief quantum %lld outside the %u-bit precision bound",
              static_cast<long long>(quant), message->value_bits));
        }
        entry.quant = quant;
        entry.belief = DequantizeLogOdds(quant, message->value_bits);
      }
      message->entries.push_back(entry);
    }
  }
  return Status::Ok();
}

Status DecodeQuery(Reader& reader, QueryMessage* message) {
  PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&message->query_id));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->origin));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->ttl));
  std::string name;
  PDMS_RETURN_IF_ERROR(reader.ReadString(&name, "query name"));
  message->query = Query(std::move(name));
  size_t op_count = 0;
  // Min per op: kind byte + fixed32 attribute + literal-length varint.
  PDMS_RETURN_IF_ERROR(reader.ReadCount(6, &op_count, "query operation"));
  for (size_t i = 0; i < op_count; ++i) {
    uint8_t kind = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadByte(&kind));
    if (kind > static_cast<uint8_t>(OpKind::kSelection)) {
      return Status::InvalidArgument(
          StrFormat("unknown query operation kind %u", kind));
    }
    uint32_t attribute = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&attribute));
    std::string literal;
    PDMS_RETURN_IF_ERROR(reader.ReadString(&literal, "query literal"));
    if (static_cast<OpKind>(kind) == OpKind::kSelection) {
      message->query.AddSelection(attribute, std::move(literal));
    } else {
      if (!literal.empty()) {
        return Status::InvalidArgument(
            "query projection carries a selection literal");
      }
      message->query.AddProjection(attribute);
    }
  }
  size_t visited_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &visited_count, "query visited"));
  message->visited.resize(visited_count);
  for (PeerId& peer : message->visited) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&peer));
  }
  size_t piggyback_count = 0;
  // 16 fingerprint bytes + the form-tagged position token per update.
  PDMS_RETURN_IF_ERROR(reader.ReadCount(17, &piggyback_count, "piggyback"));
  message->piggyback.resize(piggyback_count);
  for (BeliefUpdate& update : message->piggyback) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&update.factor.hi));
    PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&update.factor.lo));
    uint64_t position = 0;
    PDMS_RETURN_IF_ERROR(
        ReadFormTaggedValue(reader, &position, &update.belief));
    if (position > std::numeric_limits<uint32_t>::max()) {
      return Status::OutOfRange(
          StrFormat("piggyback position %llu outside 32 bits",
                    static_cast<unsigned long long>(position)));
    }
    update.position = static_cast<uint32_t>(position);
  }
  return Status::Ok();
}

}  // namespace

size_t EncodedPayloadSize(const Payload& payload) {
  CountingSink sink;
  EncodePayloadTo(payload, sink);
  return sink.size();
}

WireBreakdown PayloadWireBreakdown(const Payload& payload) {
  CountingSink sink;
  EncodePayloadTo(payload, sink);
  WireBreakdown breakdown;
  breakdown.bytes = sink.size();
  breakdown.alias_bytes = sink.bytes[static_cast<size_t>(WireSection::kAlias)];
  breakdown.key_bytes = sink.bytes[static_cast<size_t>(WireSection::kKey)];
  breakdown.value_bytes = sink.bytes[static_cast<size_t>(WireSection::kValue)];
  return breakdown;
}

void EncodePayload(const Payload& payload, std::vector<uint8_t>* out) {
  AppendSink sink{out};
  EncodePayloadTo(payload, sink);
}

Result<Payload> DecodePayload(MessageKind kind,
                              std::span<const uint8_t> bytes) {
  Reader reader(bytes);
  Payload payload;
  switch (kind) {
    case MessageKind::kProbe: {
      ProbeMessage probe;
      PDMS_RETURN_IF_ERROR(DecodeProbe(reader, &probe));
      payload = std::move(probe);
      break;
    }
    case MessageKind::kFeedback: {
      FeedbackAnnouncement feedback;
      PDMS_RETURN_IF_ERROR(DecodeFeedback(reader, &feedback));
      payload = std::move(feedback);
      break;
    }
    case MessageKind::kBelief: {
      BeliefMessage belief;
      PDMS_RETURN_IF_ERROR(DecodeBelief(reader, &belief));
      payload = std::move(belief);
      break;
    }
    case MessageKind::kQuery: {
      QueryMessage query;
      PDMS_RETURN_IF_ERROR(DecodeQuery(reader, &query));
      payload = std::move(query);
      break;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown message kind %u", static_cast<unsigned>(kind)));
  }
  PDMS_RETURN_IF_ERROR(reader.ExpectDone("payload"));
  return payload;
}

// --- Frame codec ---------------------------------------------------------------

namespace {

struct Crc32Table {
  uint32_t entries[256];
  constexpr Crc32Table() : entries{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
      }
      entries[i] = crc;
    }
  }
};

constexpr Crc32Table kCrc32Table;

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xffffffffu;
  for (uint8_t byte : data) {
    crc = (crc >> 8) ^ kCrc32Table.entries[(crc ^ byte) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

FrameType FrameTypeOf(const Frame& frame) {
  return static_cast<FrameType>(frame.index());
}

namespace {

template <typename Sink>
void EncodeFrameBodyTo(const Frame& frame, Sink& sink) {
  sink.Byte(kWireFormatVersion);
  sink.Byte(static_cast<uint8_t>(FrameTypeOf(frame)));
  std::visit(
      [&sink](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          PutVarint(sink, f.from);
          PutVarint(sink, f.to);
          sink.Byte(f.via ? 1 : 0);
          if (f.via) PutVarint(sink, *f.via);
          PutVarint(sink, f.deliver_at);
          PutVarint(sink, f.seq);
          sink.Byte(static_cast<uint8_t>(KindOf(f.payload)));
          EncodePayloadTo(f.payload, sink);
        } else if constexpr (std::is_same_v<T, HelloFrame>) {
          PutVarint(sink, f.shard);
          PutVarint(sink, f.shard_count);
          PutVarint(sink, f.peer_count);
          PutFixed64(sink, f.session_id);
          PutVarint(sink, f.next_seq);
        } else if constexpr (std::is_same_v<T, MarkFrame>) {
          PutVarint(sink, f.shard);
          PutVarint(sink, f.phase);
          PutVarint(sink, f.index);
          PutVarint(sink, f.frames_sent);
          PutVarint(sink, f.updates_sent);
          PutDouble(sink, f.max_change);
          sink.Byte(f.pending ? 1 : 0);
        } else if constexpr (std::is_same_v<T, QueryRequestFrame>) {
          PutVarint(sink, f.request_id);
          PutVarint(sink, f.origin);
          PutVarint(sink, f.ttl);
          PutString(sink, f.text);
        } else if constexpr (std::is_same_v<T, QueryResponseFrame>) {
          PutVarint(sink, f.request_id);
          sink.Byte(f.ok ? 1 : 0);
          PutString(sink, f.error);
          PutVarint(sink, f.reached);
          PutVarint(sink, f.rows.size());
          for (const std::string& row : f.rows) PutString(sink, row);
        } else if constexpr (std::is_same_v<T, LinkAckFrame>) {
          PutVarint(sink, f.shard);
          PutFixed64(sink, f.session_id);
          PutVarint(sink, f.next_expected);
        } else if constexpr (std::is_same_v<T, RejoinFrame>) {
          PutVarint(sink, f.shard);
          PutFixed64(sink, f.state_epoch);
          PutVarint(sink, f.round);
          PutString(sink, f.address);
        } else {
          static_assert(std::is_same_v<T, RejoinAckFrame>);
          PutVarint(sink, f.shard);
          PutVarint(sink, f.round);
          sink.Byte(f.accepted ? 1 : 0);
          PutString(sink, f.reason);
        }
      },
      frame);
}

Status ReadBool(Reader& reader, bool* out, const char* what) {
  uint8_t byte = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&byte));
  if (byte > 1) {
    return Status::InvalidArgument(
        StrFormat("%s flag byte %u is not 0/1", what, byte));
  }
  *out = byte != 0;
  return Status::Ok();
}

}  // namespace

void EncodeFrame(const Frame& frame, uint64_t link_seq,
                 std::vector<uint8_t>* out) {
  CountingSink counter;
  PutVarint(counter, link_seq);
  EncodeFrameBodyTo(frame, counter);
  assert(counter.size() <= kMaxFrameBytes && "frame exceeds kMaxFrameBytes");
  AppendSink sink{out};
  PutFixed32(sink, static_cast<uint32_t>(counter.size()));
  const size_t crc_at = out->size();
  PutFixed32(sink, 0);  // checksum backpatched below
  const size_t covered_at = out->size();
  PutVarint(sink, link_seq);
  EncodeFrameBodyTo(frame, sink);
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(out->data() + covered_at,
                               out->size() - covered_at));
  for (int i = 0; i < 4; ++i) {
    (*out)[crc_at + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  EncodeFrame(frame, 0, out);
}

Result<Frame> DecodeFrameBody(std::span<const uint8_t> body) {
  Reader reader(body);
  uint8_t version = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&version));
  if (version != kWireFormatVersion) {
    return Status::FailedPrecondition(
        StrFormat("wire format version %u, expected %u", version,
                  kWireFormatVersion));
  }
  uint8_t type = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&type));
  Frame frame;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kData: {
      DataFrame data;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&data.from, "frame sender"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&data.to, "frame recipient"));
      bool has_via = false;
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &has_via, "via"));
      if (has_via) {
        uint32_t via = 0;
        PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&via, "frame via edge"));
        data.via = via;
      }
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&data.deliver_at));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&data.seq));
      uint8_t kind = 0;
      PDMS_RETURN_IF_ERROR(reader.ReadByte(&kind));
      if (kind >= kMessageKindCount) {
        return Status::InvalidArgument(
            StrFormat("unknown payload kind %u", kind));
      }
      const size_t payload_bytes = reader.remaining();
      PDMS_ASSIGN_OR_RETURN(
          data.payload,
          DecodePayload(static_cast<MessageKind>(kind),
                        body.subspan(body.size() - payload_bytes)));
      frame = std::move(data);
      return frame;  // DecodePayload consumed the rest; skip ExpectDone.
    }
    case FrameType::kHello: {
      HelloFrame hello;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&hello.shard, "hello shard"));
      PDMS_RETURN_IF_ERROR(
          reader.ReadVarint32(&hello.shard_count, "hello shard count"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&hello.peer_count));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&hello.session_id));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&hello.next_seq));
      frame = hello;
      break;
    }
    case FrameType::kMark: {
      MarkFrame mark;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&mark.shard, "mark shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&mark.phase, "mark phase"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&mark.index));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&mark.frames_sent));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&mark.updates_sent));
      PDMS_RETURN_IF_ERROR(reader.ReadDouble(&mark.max_change));
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &mark.pending, "mark pending"));
      frame = mark;
      break;
    }
    case FrameType::kQueryRequest: {
      QueryRequestFrame request;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&request.request_id));
      PDMS_RETURN_IF_ERROR(
          reader.ReadVarint32(&request.origin, "request origin"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&request.ttl, "request ttl"));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&request.text, "request text"));
      frame = std::move(request);
      break;
    }
    case FrameType::kQueryResponse: {
      QueryResponseFrame response;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&response.request_id));
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &response.ok, "response ok"));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&response.error, "response error"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&response.reached));
      size_t row_count = 0;
      PDMS_RETURN_IF_ERROR(reader.ReadCount(1, &row_count, "response row"));
      response.rows.resize(row_count);
      for (std::string& row : response.rows) {
        PDMS_RETURN_IF_ERROR(reader.ReadString(&row, "response row text"));
      }
      frame = std::move(response);
      break;
    }
    case FrameType::kLinkAck: {
      LinkAckFrame ack;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&ack.shard, "ack shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&ack.session_id));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&ack.next_expected));
      frame = ack;
      break;
    }
    case FrameType::kRejoin: {
      RejoinFrame rejoin;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&rejoin.shard, "rejoin shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&rejoin.state_epoch));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&rejoin.round));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&rejoin.address, "rejoin address"));
      frame = std::move(rejoin);
      break;
    }
    case FrameType::kRejoinAck: {
      RejoinAckFrame ack;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&ack.shard, "rejoin-ack shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&ack.round));
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &ack.accepted, "rejoin-ack accepted"));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&ack.reason, "rejoin-ack reason"));
      frame = std::move(ack);
      break;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown frame type %u", type));
  }
  PDMS_RETURN_IF_ERROR(reader.ExpectDone("frame"));
  return frame;
}

// --- FrameAssembler ------------------------------------------------------------

void FrameAssembler::Feed(std::span<const uint8_t> data) {
  // Compact lazily: only when the dead prefix dominates the buffer.
  if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + offset_);
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Result<std::optional<Frame>> FrameAssembler::Next() {
  const size_t available = buffer_.size() - offset_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();
  uint32_t length = 0;
  uint32_t expected_crc = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(buffer_[offset_ + i]) << (8 * i);
    expected_crc |= static_cast<uint32_t>(buffer_[offset_ + 4 + i]) << (8 * i);
  }
  if (length < 3) {
    return Status::InvalidArgument(
        StrFormat("frame length %u below the seq+version+type header",
                  length));
  }
  if (length > kMaxFrameBytes) {
    return Status::OutOfRange(
        StrFormat("frame length %u exceeds the %zu-byte bound", length,
                  kMaxFrameBytes));
  }
  if (available < kFrameHeaderBytes + length) return std::optional<Frame>();
  const std::span<const uint8_t> covered(
      buffer_.data() + offset_ + kFrameHeaderBytes, length);
  const uint32_t actual_crc = Crc32(covered);
  if (actual_crc != expected_crc) {
    return Status::DataLoss(
        StrFormat("frame checksum mismatch (%08x != %08x) — corrupt stream",
                  actual_crc, expected_crc));
  }
  Reader seq_reader(covered);
  uint64_t link_seq = 0;
  PDMS_RETURN_IF_ERROR(seq_reader.ReadVarint(&link_seq));
  PDMS_ASSIGN_OR_RETURN(Frame frame,
                        DecodeFrameBody(covered.subspan(
                            covered.size() - seq_reader.remaining())));
  last_seq_ = link_seq;
  offset_ += kFrameHeaderBytes + length;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  return std::optional<Frame>(std::move(frame));
}

}  // namespace pdms
