#ifndef PDMS_NET_NETWORK_H_
#define PDMS_NET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "pdms/transport.h"

namespace pdms {

/// Configuration of the simulated transport. The simulator is lossless;
/// in-process loss and other channel faults come from a `FaultPlan` applied
/// through `FaultInjectingTransport` (net/fault_injection.h).
struct NetworkOptions {
  /// Delivery latency in ticks (>= 1: a message sent at tick t becomes
  /// deliverable at t + delay_ticks).
  uint64_t delay_ticks = 1;
};

/// Discrete-tick simulated message bus between peers — the default
/// `Transport` implementation.
///
/// Thread-safe per the `Transport` contract: mailboxes are sharded per
/// destination peer behind their own mutexes, so concurrent sends to
/// different peers never contend.
class SimTransport final : public Transport {
 public:
  SimTransport(size_t peer_count, const NetworkOptions& options)
      : options_(options), mailboxes_(peer_count) {}

  std::string_view name() const override { return "sim"; }
  size_t peer_count() const override { return mailboxes_.size(); }
  uint64_t now() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void AdvanceTick() override {
    now_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Enqueues a message for delivery `delay_ticks` from now.
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override;

  /// Removes and returns all messages deliverable to `peer` at the current
  /// tick (deliver_at <= now).
  std::vector<Envelope> Drain(PeerId peer) override;

  /// True if any queue still holds messages (delivered or future).
  bool HasPendingMessages() const override;

  const TransportStats& stats() const override;
  void ResetStats() override;

  const NetworkOptions& options() const { return options_; }

 private:
  struct Mailbox {
    std::mutex mutex;
    std::deque<Envelope> queue;
  };

  NetworkOptions options_;
  std::atomic<uint64_t> now_{0};
  /// Messages enqueued and not yet drained; O(1) HasPendingMessages.
  std::atomic<uint64_t> in_flight_{0};
  std::vector<Mailbox> mailboxes_;
  AtomicTransportStats counters_;
  mutable TransportStats stats_snapshot_;
};

}  // namespace pdms

#endif  // PDMS_NET_NETWORK_H_
