#ifndef PDMS_PDMS_TRANSPORT_H_
#define PDMS_PDMS_TRANSPORT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"

namespace pdms {

/// Per-kind traffic counters every `Transport` implementation maintains.
struct TransportStats {
  std::array<uint64_t, kMessageKindCount> sent{};
  std::array<uint64_t, kMessageKindCount> dropped{};
  std::array<uint64_t, kMessageKindCount> delivered{};
  /// Payload bytes accepted for delivery (drops excluded), per
  /// `EncodedPayloadSize` — the "bytes moved" of the scale benchmarks.
  uint64_t bytes_sent = 0;
  /// The subset of `bytes_sent` spent on factor-identity fingerprints
  /// (`WireBreakdown::key_bytes`) — the key overhead the scale
  /// benchmarks track.
  /// With session aliasing this decays to ~0 once bindings are acked.
  uint64_t key_bytes_sent = 0;
  /// The subset of `bytes_sent` spent on belief-bundle alias headers
  /// (`WireBreakdown::alias_bytes`) — what the alias scheme pays to
  /// *replace* the fingerprints; reported as `alias_bytes_per_round` by
  /// the benchmarks.
  uint64_t alias_bytes_sent = 0;
  /// The subset of `bytes_sent` spent on the µ values themselves
  /// (`WireBreakdown::value_bytes`: raw doubles, or quantum varints under
  /// a value error budget) — the share the quantized wire format attacks.
  uint64_t value_bytes_sent = 0;
  /// Everything else: `bytes_sent - value_bytes_sent` (framing varints,
  /// alias headers, fingerprints, positions, probe/feedback structure),
  /// derived when the counters are read.
  uint64_t header_bytes_sent = 0;
  /// Frames still unacknowledged when the transport shut down and stopped
  /// retransmitting (they may or may not have reached the receiver). Zero
  /// on a clean drain; non-zero means the shutdown deadline
  /// (`SocketTransportOptions::shutdown_drain_ms`) expired first.
  uint64_t frames_dropped_at_shutdown = 0;

  uint64_t TotalSent() const;
  std::string ToString() const;
};

/// Internal: lock-free counter block behind `TransportStats`, shared by the
/// library transports so concurrent `Send`/`Drain` calls never race on the
/// accounting. Counters use relaxed atomics — they are statistics, not
/// synchronization.
struct AtomicTransportStats {
  std::array<std::atomic<uint64_t>, kMessageKindCount> sent{};
  std::array<std::atomic<uint64_t>, kMessageKindCount> dropped{};
  std::array<std::atomic<uint64_t>, kMessageKindCount> delivered{};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> key_bytes_sent{0};
  std::atomic<uint64_t> alias_bytes_sent{0};
  std::atomic<uint64_t> value_bytes_sent{0};
  std::atomic<uint64_t> frames_dropped_at_shutdown{0};

  /// Counts one send attempt of `kind` (drops included — `sent` tracks
  /// attempts; pair with CountDropped for the loss ledger).
  void CountSendAttempt(MessageKind kind) {
    sent[static_cast<size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
  }
  /// Accounts payload bytes *accepted for delivery* — lossy transports
  /// must call this only after the drop decision, per the documented
  /// `TransportStats::bytes_sent` semantics.
  void CountPayloadBytes(const WireBreakdown& wire) {
    bytes_sent.fetch_add(wire.bytes, std::memory_order_relaxed);
    // Zero once alias bindings are acked: skip the contended add.
    if (wire.key_bytes != 0) {
      key_bytes_sent.fetch_add(wire.key_bytes, std::memory_order_relaxed);
    }
    alias_bytes_sent.fetch_add(wire.alias_bytes, std::memory_order_relaxed);
    value_bytes_sent.fetch_add(wire.value_bytes, std::memory_order_relaxed);
  }
  /// Attempt + bytes in one call, for transports that never drop.
  void CountSent(MessageKind kind, const WireBreakdown& wire) {
    CountSendAttempt(kind);
    CountPayloadBytes(wire);
  }
  void CountDropped(MessageKind kind) {
    dropped[static_cast<size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
  }
  void CountDelivered(MessageKind kind) {
    delivered[static_cast<size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Relaxed snapshot into `out`; exact when the transport is quiescent.
  void SnapshotTo(TransportStats* out) const;
  void Reset();
};

/// One in-flight message captured from a transport inbox at a quiesced
/// barrier: the routed envelope plus the per-sender sequence number the
/// deterministic drain order sorts on. The unit `SocketTransport`'s
/// inbox capture/restore moves and the snapshot layer (src/store)
/// persists — restoring the captured frames alongside the engine image
/// reproduces the exact delivery schedule of the original run.
struct CapturedFrame {
  uint64_t seq = 0;
  Envelope envelope;
};

/// How messages move between peers — the provider side of the public API.
///
/// The engine computes *what* the peers exchange (probes, feedback
/// announcements, belief updates, queries); a `Transport` decides *how*
/// the envelopes travel: with what delay, what loss, over what substrate.
/// Implementations ship with the library (`SimTransport`, the lossless
/// discrete-tick simulator; `InstantTransport`, zero-delay and lossless;
/// `FaultInjectingTransport`, which adds seeded loss, duplication,
/// reordering and delay to either) and can be supplied by applications
/// through `PdmsBuilder::WithTransport`.
///
/// Contract (exercised by the shared conformance test):
///  * `Send` may drop (recording `dropped`) but never reorders messages
///    between the same (from, to) pair.
///  * `Drain(p)` returns every envelope deliverable to `p` at the current
///    tick, in send order, and removes them from the queue.
///  * `HasPendingMessages()` is true iff any envelope is queued, whether
///    deliverable now or in the future.
///  * Ticks only move forward; `Send` after `AdvanceTick` never delivers
///    into the past.
///
/// Thread-safety contract (required since round execution went parallel):
///  * `Send` may be called concurrently from any number of threads.
///  * `Drain` may be called concurrently for *distinct* peers, and
///    concurrently with `Send` (a concurrently sent message lands either in
///    this drain or a later one, never nowhere).
///  * `AdvanceTick`, `stats()` and `ResetStats` are driver-side: callers
///    must not overlap them with `Send`/`Drain`. The engine only invokes
///    them between parallel phases.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Short stable identifier, e.g. "sim" or "instant".
  virtual std::string_view name() const = 0;

  virtual size_t peer_count() const = 0;

  /// Current discrete time.
  virtual uint64_t now() const = 0;
  virtual void AdvanceTick() = 0;

  /// Enqueues a message from `from` to `to`; `via` names the mapping link
  /// it logically travels through, when applicable.
  virtual void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
                    Payload payload) = 0;

  /// Removes and returns all messages deliverable to `peer` now.
  virtual std::vector<Envelope> Drain(PeerId peer) = 0;

  /// True if any queue still holds messages (deliverable or future).
  virtual bool HasPendingMessages() const = 0;

  virtual const TransportStats& stats() const = 0;
  virtual void ResetStats() = 0;
};

/// Zero-delay, lossless in-process transport: a message sent at tick t is
/// deliverable at tick t. No configuration, no randomness — the fastest
/// substrate for convergence-only workloads (discovery and inference need
/// no tick-per-hop waiting) and the reference implementation for the
/// Transport conformance contract.
///
/// Mailboxes are sharded per destination peer, each behind its own mutex,
/// so concurrent sends to different peers never contend and concurrent
/// drains of distinct peers proceed independently.
class InstantTransport final : public Transport {
 public:
  explicit InstantTransport(size_t peer_count)
      : mailboxes_(peer_count) {}

  std::string_view name() const override { return "instant"; }
  size_t peer_count() const override { return mailboxes_.size(); }
  uint64_t now() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void AdvanceTick() override {
    now_.fetch_add(1, std::memory_order_relaxed);
  }

  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override;
  std::vector<Envelope> Drain(PeerId peer) override;
  bool HasPendingMessages() const override;

  const TransportStats& stats() const override;
  void ResetStats() override;

 private:
  struct Mailbox {
    std::mutex mutex;
    std::vector<Envelope> queue;
  };

  std::atomic<uint64_t> now_{0};
  /// Messages enqueued and not yet drained; O(1) HasPendingMessages.
  std::atomic<uint64_t> in_flight_{0};
  std::vector<Mailbox> mailboxes_;
  AtomicTransportStats counters_;
  mutable TransportStats stats_snapshot_;
};

}  // namespace pdms

#endif  // PDMS_PDMS_TRANSPORT_H_
