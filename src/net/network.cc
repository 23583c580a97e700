#include "net/network.h"

#include <cassert>

namespace pdms {

void SimTransport::Send(PeerId from, PeerId to, std::optional<EdgeId> via,
                        Payload payload) {
  assert(to < mailboxes_.size());
  counters_.CountSendAttempt(KindOf(payload));
  const WireBreakdown wire = PayloadWireBreakdown(payload);
  counters_.CountPayloadBytes(wire);
  Envelope envelope;
  envelope.from = from;
  envelope.to = to;
  envelope.via = via;
  envelope.deliver_at = now() + options_.delay_ticks;
  envelope.payload = std::move(payload);
  // Count before enqueueing: a concurrent Drain may pop the envelope the
  // moment the lock is released, and its decrement must never observe the
  // counter without this increment (transient underflow would make
  // HasPendingMessages report phantom traffic on an empty transport).
  in_flight_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mailboxes_[to].mutex);
    mailboxes_[to].queue.push_back(std::move(envelope));
  }
}

std::vector<Envelope> SimTransport::Drain(PeerId peer) {
  assert(peer < mailboxes_.size());
  const uint64_t current = now();
  std::vector<Envelope> due;
  {
    std::lock_guard<std::mutex> lock(mailboxes_[peer].mutex);
    auto& queue = mailboxes_[peer].queue;
    // Constant per-message delay keeps queues ordered by deliver_at, so the
    // due prefix can be split off directly.
    while (!queue.empty() && queue.front().deliver_at <= current) {
      due.push_back(std::move(queue.front()));
      queue.pop_front();
    }
  }
  for (const Envelope& envelope : due) {
    counters_.CountDelivered(KindOf(envelope.payload));
  }
  in_flight_.fetch_sub(due.size(), std::memory_order_release);
  return due;
}

bool SimTransport::HasPendingMessages() const {
  return in_flight_.load(std::memory_order_acquire) > 0;
}

const TransportStats& SimTransport::stats() const {
  counters_.SnapshotTo(&stats_snapshot_);
  return stats_snapshot_;
}

void SimTransport::ResetStats() { counters_.Reset(); }

}  // namespace pdms
