#ifndef PDMS_NET_CODEC_H_
#define PDMS_NET_CODEC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/message.h"
#include "util/status.h"

namespace pdms {

// --- Payload codec -------------------------------------------------------------
//
// The exact binary realization of the wire model: LEB128 varints for
// counts and headers, zigzag deltas for belief aliases and member
// positions, form-tagged raw little-endian doubles for exact message
// values, and 16-byte fingerprints only where a binding is declared. The
// encoder is the single source of truth for payload byte counts —
// `EncodedPayloadSize` and `PayloadWireBreakdown` (message.h) are passes
// of the same templated encoder — so the bench gates measure real bytes.
//
// Decoding is strict: truncated input, overlong or non-minimal varints,
// counts exceeding the bytes that could back them, aliases beyond
// `kMaxAliasesPerSession`, unknown enum values and trailing garbage are all
// rejected with a `Status` — forged traffic can be refused, never crash the
// receiver. Every accepted payload re-encodes to the identical bytes, so
// non-canonical forms (an explicit count the single-entry bit implies, a
// raw 1.0 a value form implies) are refused too. Doubles are transparent
// (any 8-byte pattern round-trips bitwise): the transport must not
// perturb belief values, the factor layer owns their numeric hygiene.

/// Version byte carried by every frame; bumped on incompatible changes.
/// v2: CRC32 frame checksum, per-link sequence numbers, session handshake.
/// v3: rejoin / rejoin-ack control frames (snapshot-restart re-admission).
/// v4: quantized belief values — every belief bundle declares its value
///     format (`BeliefMessage::value_bits`: 0 = legacy raw doubles, else
///     fixed-point log-odds quanta at that many fractional bits), and
///     quantized entries carry one zigzag quantum varint instead of two
///     doubles. Quanta outside the declared precision's bound are
///     rejected as forged (OutOfRange).
/// v5: exact values drop the implied 1.0 and single-entry groups their
///     count. A raw entry's position token is zigzag(position delta) << 2
///     | form, where form bit 0 says `correct` is exactly 1.0 and is not
///     shipped, bit 1 the same for `incorrect`; the other components
///     follow as raw doubles. Query piggybacks carry the same form-tagged
///     value keyed by the member position. Every group's alias token
///     gains a low "single entry" bit, and the entry-count varint is
///     written only when the count is not 1.
inline constexpr uint8_t kWireFormatVersion = 5;

/// Sentinel encoding ⊥ (nullopt) in probe trails. Schema attribute images
/// are dense small ids, so the all-ones pattern is never a real attribute.
inline constexpr uint32_t kNullAttributeWire = 0xffffffffu;

/// Exact encoded size of `payload`, by a counting pass of the encoder.
size_t EncodedPayloadSize(const Payload& payload);

/// Appends the encoding of `payload` to `out`.
void EncodePayload(const Payload& payload, std::vector<uint8_t>* out);

/// Decodes a payload of `kind` from exactly `bytes` (trailing bytes are an
/// error). The result re-encodes byte-identically.
Result<Payload> DecodePayload(MessageKind kind, std::span<const uint8_t> bytes);

// --- Frame codec ---------------------------------------------------------------
//
// Stream framing for the socket transport: every frame is a 4-byte
// little-endian length, a 4-byte little-endian CRC32 of everything the
// length covers, a varint link-sequence number, then the body, whose first
// two bytes are `kWireFormatVersion` and the `FrameType`. The checksum
// turns any wire corruption into a detected stream error (the connection
// is dropped and the reliability layer retransmits); the link sequence is
// the transport's exactly-once delivery cursor — 0 marks session-control
// frames (hello / link ack) that sit outside the retransmit ring. Data
// frames carry one routed payload; the remaining types are the node
// daemons' control plane (session hello, link acks, round/discovery
// barrier marks, client query RPCs).

/// Upper bound on one frame body; a length prefix beyond this is treated
/// as a malformed or hostile stream and the connection is dropped.
inline constexpr size_t kMaxFrameBytes = 1u << 26;  // 64 MiB

/// Bytes preceding every frame's checksummed region: length + CRC32.
inline constexpr size_t kFrameHeaderBytes = 8;

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`.
uint32_t Crc32(std::span<const uint8_t> data);

enum class FrameType : uint8_t {
  kData = 0,          ///< one Envelope-equivalent routed payload
  kHello = 1,         ///< connection handshake (shard identity + session)
  kMark = 2,          ///< per-tick / per-round barrier marker between shards
  kQueryRequest = 3,  ///< client -> node: run a θ-gated query
  kQueryResponse = 4, ///< node -> client: rendered result rows
  kLinkAck = 5,       ///< receiver -> sender: cumulative delivery ack
  kRejoin = 6,        ///< restarted shard -> survivors: re-admission request
  kRejoinAck = 7,     ///< survivor -> restarted shard: re-admission verdict
};

/// One routed payload on the wire. `seq` is a per-sender monotonically
/// increasing counter: together with (deliver_at, from) it gives receivers
/// a total order that reproduces the simulator's per-mailbox arrival order,
/// which is what keeps posteriors bitwise-identical across transports.
struct DataFrame {
  PeerId from = 0;
  PeerId to = 0;
  std::optional<EdgeId> via;
  uint64_t deliver_at = 0;
  uint64_t seq = 0;
  Payload payload;
};

/// First frame on every inter-shard connection. `session_id` identifies
/// the sending transport's lifetime (a restarted process presents a new
/// one, telling the receiver to reset its delivery cursor); `next_seq` is
/// the base of the sender's unacked retransmit ring — everything below it
/// has been acknowledged and will never be sent again.
struct HelloFrame {
  uint32_t shard = 0;
  uint32_t shard_count = 0;
  uint64_t peer_count = 0;
  uint64_t session_id = 0;
  uint64_t next_seq = 0;
};

/// Barrier marker: "shard `shard` has finished sending for step `index` of
/// `phase`". TCP preserves per-connection order, so receiving a mark
/// implies every data frame the shard sent before it has arrived too —
/// the mark exchange doubles as the flush barrier between rounds.
struct MarkFrame {
  uint32_t shard = 0;
  uint32_t phase = 0;  ///< 0 = discovery ticks, 1 = inference rounds
  uint64_t index = 0;
  uint64_t frames_sent = 0;   ///< data frames this shard sent in this step
  uint64_t updates_sent = 0;  ///< belief updates this shard sent in this step
  double max_change = 0.0;    ///< shard-local max posterior change
  bool pending = false;       ///< shard still holds undelivered messages
};

struct QueryRequestFrame {
  uint64_t request_id = 0;
  PeerId origin = 0;
  uint32_t ttl = 0;
  /// Query text in the origin peer's schema (see `ParseQuery`).
  std::string text;
};

struct QueryResponseFrame {
  uint64_t request_id = 0;
  bool ok = true;
  std::string error;       ///< non-empty iff !ok
  uint64_t reached = 0;    ///< peers whose stores were evaluated
  std::vector<std::string> rows;  ///< rendered result rows
};

/// Cumulative delivery acknowledgement, sent by the accepting side of a
/// link: every frame with link sequence < `next_expected` has been
/// dispatched exactly once and may leave the sender's retransmit ring.
/// Replied to a hello (completing the handshake) and after dispatch
/// batches thereafter.
struct LinkAckFrame {
  uint32_t shard = 0;          ///< the acking shard
  uint64_t session_id = 0;     ///< echo of the dialer's session (stale guard)
  uint64_t next_expected = 0;  ///< receiver's delivery cursor
};

/// Re-admission request from a shard restarted off a snapshot: "I hold a
/// consistent cut of deployment `state_epoch` at `round`; readmit me and
/// roll back to that cut". `address` is the restarted process's *new*
/// listen endpoint (the ephemeral port changed across the restart), which
/// survivors adopt before redialing. Sent as an ordinary sequenced
/// control frame; it is the one frame type a receiver dispatches even
/// from a quarantined shard (everything else from an abandoned sender is
/// acked but dropped), which is what lets a restart cross the quarantine.
struct RejoinFrame {
  uint32_t shard = 0;
  uint64_t state_epoch = 0;
  uint64_t round = 0;       ///< rounds fully executed at the snapshot cut
  std::string address;      ///< host:port the restarted shard listens on
};

/// Survivor's verdict on a rejoin request. `accepted` means the survivor
/// rolled its own state back to the requested cut and re-admitted the
/// shard; the restarted shard resumes the round loop only after every
/// survivor accepted. A rejection (epoch mismatch, cut no longer held)
/// carries a diagnostic `reason` and leaves the quarantine in place.
struct RejoinAckFrame {
  uint32_t shard = 0;       ///< the acking survivor
  uint64_t round = 0;       ///< echo of the requested cut
  bool accepted = false;
  std::string reason;       ///< non-empty iff !accepted
};

using Frame = std::variant<DataFrame, HelloFrame, MarkFrame, QueryRequestFrame,
                           QueryResponseFrame, LinkAckFrame, RejoinFrame,
                           RejoinAckFrame>;

FrameType FrameTypeOf(const Frame& frame);

/// Appends length prefix + checksum + link sequence + body of `frame` to
/// `out`. The two-argument overload stamps sequence 0 (session-control /
/// client traffic outside any retransmit ring).
void EncodeFrame(const Frame& frame, uint64_t link_seq,
                 std::vector<uint8_t>* out);
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

/// Decodes one frame body (the bytes after the length prefix). Strict:
/// version mismatch, unknown type, malformed content and trailing bytes
/// all fail with a `Status`.
Result<Frame> DecodeFrameBody(std::span<const uint8_t> body);

/// Incremental stream reassembler: feed raw socket bytes in, pull complete
/// frames out. A decode error is fatal for the stream (framing can no
/// longer be trusted) — the caller should drop the connection; with the
/// reliability layer above, that turns corruption into a retransmit.
class FrameAssembler {
 public:
  /// Appends raw bytes received from the stream.
  void Feed(std::span<const uint8_t> data);

  /// Returns the next complete frame, std::nullopt when more bytes are
  /// needed, or an error when the stream is malformed (oversized length
  /// prefix, checksum mismatch, undecodable body).
  Result<std::optional<Frame>> Next();

  /// Link sequence number of the frame the last successful `Next()`
  /// returned (0 for session-control frames).
  uint64_t last_seq() const { return last_seq_; }

  size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t offset_ = 0;
  uint64_t last_seq_ = 0;
};

}  // namespace pdms

#endif  // PDMS_NET_CODEC_H_
