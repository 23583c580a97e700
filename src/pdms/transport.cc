#include "pdms/transport.h"

#include <cassert>

#include "util/string_util.h"

namespace pdms {

uint64_t TransportStats::TotalSent() const {
  uint64_t total = 0;
  for (uint64_t s : sent) total += s;
  return total;
}

std::string TransportStats::ToString() const {
  std::string out;
  for (size_t k = 0; k < kMessageKindCount; ++k) {
    out += StrFormat("%s: sent=%llu dropped=%llu delivered=%llu\n",
                     std::string(MessageKindName(static_cast<MessageKind>(k)))
                         .c_str(),
                     static_cast<unsigned long long>(sent[k]),
                     static_cast<unsigned long long>(dropped[k]),
                     static_cast<unsigned long long>(delivered[k]));
  }
  out += StrFormat("bytes_sent=%llu key_bytes_sent=%llu alias_bytes_sent=%llu\n",
                   static_cast<unsigned long long>(bytes_sent),
                   static_cast<unsigned long long>(key_bytes_sent),
                   static_cast<unsigned long long>(alias_bytes_sent));
  out += StrFormat("value_bytes_sent=%llu header_bytes_sent=%llu\n",
                   static_cast<unsigned long long>(value_bytes_sent),
                   static_cast<unsigned long long>(header_bytes_sent));
  if (frames_dropped_at_shutdown > 0) {
    out += StrFormat(
        "frames_dropped_at_shutdown=%llu\n",
        static_cast<unsigned long long>(frames_dropped_at_shutdown));
  }
  return out;
}

void AtomicTransportStats::SnapshotTo(TransportStats* out) const {
  for (size_t k = 0; k < kMessageKindCount; ++k) {
    out->sent[k] = sent[k].load(std::memory_order_relaxed);
    out->dropped[k] = dropped[k].load(std::memory_order_relaxed);
    out->delivered[k] = delivered[k].load(std::memory_order_relaxed);
  }
  out->bytes_sent = bytes_sent.load(std::memory_order_relaxed);
  out->key_bytes_sent = key_bytes_sent.load(std::memory_order_relaxed);
  out->alias_bytes_sent = alias_bytes_sent.load(std::memory_order_relaxed);
  out->value_bytes_sent = value_bytes_sent.load(std::memory_order_relaxed);
  out->header_bytes_sent = out->bytes_sent - out->value_bytes_sent;
  out->frames_dropped_at_shutdown =
      frames_dropped_at_shutdown.load(std::memory_order_relaxed);
}

void AtomicTransportStats::Reset() {
  for (size_t k = 0; k < kMessageKindCount; ++k) {
    sent[k].store(0, std::memory_order_relaxed);
    dropped[k].store(0, std::memory_order_relaxed);
    delivered[k].store(0, std::memory_order_relaxed);
  }
  bytes_sent.store(0, std::memory_order_relaxed);
  key_bytes_sent.store(0, std::memory_order_relaxed);
  alias_bytes_sent.store(0, std::memory_order_relaxed);
  value_bytes_sent.store(0, std::memory_order_relaxed);
  frames_dropped_at_shutdown.store(0, std::memory_order_relaxed);
}

void InstantTransport::Send(PeerId from, PeerId to, std::optional<EdgeId> via,
                            Payload payload) {
  assert(to < mailboxes_.size());
  const WireBreakdown wire = PayloadWireBreakdown(payload);
  counters_.CountSent(KindOf(payload), wire);
  Envelope envelope;
  envelope.from = from;
  envelope.to = to;
  envelope.via = via;
  envelope.deliver_at = now();
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

std::vector<Envelope> InstantTransport::Drain(PeerId peer) {
  assert(peer < mailboxes_.size());
  std::vector<Envelope> due;
  {
    std::lock_guard<std::mutex> lock(mailboxes_[peer].mutex);
    due.swap(mailboxes_[peer].queue);
  }
  for (const Envelope& envelope : due) {
    counters_.CountDelivered(KindOf(envelope.payload));
  }
  in_flight_.fetch_sub(due.size(), std::memory_order_release);
  return due;
}

bool InstantTransport::HasPendingMessages() const {
  return in_flight_.load(std::memory_order_acquire) > 0;
}

const TransportStats& InstantTransport::stats() const {
  counters_.SnapshotTo(&stats_snapshot_);
  return stats_snapshot_;
}

void InstantTransport::ResetStats() { counters_.Reset(); }

}  // namespace pdms
