#include "tracing.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

#include "net/network.h"

namespace pdmsbench {

namespace {

void StoreMin(std::atomic<int64_t>* slot, int64_t value) {
  int64_t seen = slot->load(std::memory_order_relaxed);
  while ((seen == TransportTally::kNone || value < seen) &&
         !slot->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void StoreMax(std::atomic<int64_t>* slot, int64_t value) {
  int64_t seen = slot->load(std::memory_order_relaxed);
  while (value > seen &&
         !slot->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

/// Small per-thread index (mod 64) for counting distinct draining threads.
uint64_t ThreadBit() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed) % 64;
  return uint64_t{1} << lane;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanLog::Add(std::string name, int64_t start_ns, int64_t end_ns,
                     int64_t parent, uint64_t count) {
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.count = count;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"count\":%llu}\n",
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent), span.name.c_str(),
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - origin) * 1e-3,
                 static_cast<unsigned long long>(span.count));
  }
  return std::fclose(file) == 0;
}

TracingTransport::TracingTransport(std::unique_ptr<pdms::Transport> inner)
    : inner_(std::move(inner)) {}

void TracingTransport::AdvanceTick() {
  if (enabled_.load(std::memory_order_relaxed)) {
    ticks_.fetch_add(1, std::memory_order_relaxed);
  }
  inner_->AdvanceTick();
}

void TracingTransport::Send(pdms::PeerId from, pdms::PeerId to,
                            std::optional<pdms::EdgeId> via,
                            pdms::Payload payload) {
  const auto* bundle = std::get_if<pdms::BeliefMessage>(&payload);
  if (bundle != nullptr && capture_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(captured_mutex_);
    captured_.push_back(payload);
  }
  if (!enabled_.load(std::memory_order_relaxed)) {
    inner_->Send(from, to, via, std::move(payload));
    return;
  }
  const int64_t start = NowNs();
  if (bundle != nullptr) {
    belief_envelopes_.fetch_add(1, std::memory_order_relaxed);
    belief_updates_.fetch_add(bundle->update_count(),
                              std::memory_order_relaxed);
  }
  inner_->Send(from, to, via, std::move(payload));
  const int64_t end = NowNs();
  send_calls_.fetch_add(1, std::memory_order_relaxed);
  send_ns_.fetch_add(static_cast<uint64_t>(end - start),
                     std::memory_order_relaxed);
  StoreMin(&first_send_start_, start);
}

std::vector<pdms::Envelope> TracingTransport::Drain(pdms::PeerId peer) {
  if (!enabled_.load(std::memory_order_relaxed)) return inner_->Drain(peer);
  const int64_t start = NowNs();
  std::vector<pdms::Envelope> batch = inner_->Drain(peer);
  const int64_t end = NowNs();
  drain_calls_.fetch_add(1, std::memory_order_relaxed);
  drain_ns_.fetch_add(static_cast<uint64_t>(end - start),
                      std::memory_order_relaxed);
  StoreMin(&first_drain_start_, start);
  StoreMax(&last_drain_end_, end);
  drain_thread_mask_.fetch_or(ThreadBit(), std::memory_order_relaxed);
  return batch;
}

TransportTally TracingTransport::Take() {
  TransportTally tally;
  tally.ticks = ticks_.exchange(0, std::memory_order_relaxed);
  tally.drain_calls = drain_calls_.exchange(0, std::memory_order_relaxed);
  tally.drain_ns = drain_ns_.exchange(0, std::memory_order_relaxed);
  tally.send_calls = send_calls_.exchange(0, std::memory_order_relaxed);
  tally.send_ns = send_ns_.exchange(0, std::memory_order_relaxed);
  tally.belief_envelopes =
      belief_envelopes_.exchange(0, std::memory_order_relaxed);
  tally.belief_updates = belief_updates_.exchange(0, std::memory_order_relaxed);
  tally.first_drain_start =
      first_drain_start_.exchange(TransportTally::kNone,
                                  std::memory_order_relaxed);
  tally.last_drain_end = last_drain_end_.exchange(TransportTally::kNone,
                                                  std::memory_order_relaxed);
  tally.first_send_start =
      first_send_start_.exchange(TransportTally::kNone,
                                 std::memory_order_relaxed);
  tally.drain_threads = static_cast<uint32_t>(
      std::popcount(drain_thread_mask_.exchange(0, std::memory_order_relaxed)));
  return tally;
}

std::vector<pdms::Payload> TracingTransport::TakeCaptured() {
  std::lock_guard<std::mutex> lock(captured_mutex_);
  return std::move(captured_);
}

std::unique_ptr<pdms::Transport> MakeTracedSimTransport(
    size_t peer_count, const pdms::NetworkOptions& network,
    TracingTransport** out) {
  auto traced = std::make_unique<TracingTransport>(
      std::make_unique<pdms::SimTransport>(peer_count, network));
  *out = traced.get();
  return traced;
}

namespace {

/// The four boundaries inside a step, clamped so a missing call collapses
/// its phase to zero length.
struct Boundaries {
  int64_t first_drain = 0;
  int64_t last_drain = 0;
  int64_t first_send = 0;
  bool ordered = true;
};

Boundaries FindBoundaries(int64_t begin, int64_t end,
                          const TransportTally& tally) {
  Boundaries b;
  const bool drained = tally.first_drain_start != TransportTally::kNone;
  b.first_drain = drained ? tally.first_drain_start : begin;
  b.last_drain = drained ? tally.last_drain_end : b.first_drain;
  b.first_send = tally.first_send_start != TransportTally::kNone
                     ? tally.first_send_start
                     : end;
  b.ordered = begin <= b.first_drain && b.first_drain <= b.last_drain &&
              b.last_drain <= b.first_send && b.first_send <= end;
  return b;
}

}  // namespace

RoundPhases DerivePhases(int64_t step_begin, int64_t step_end,
                         const TransportTally& tally) {
  const Boundaries b = FindBoundaries(step_begin, step_end, tally);
  RoundPhases phases;
  phases.ordered = b.ordered;
  phases.step_ms = NsToMs(step_end - step_begin);
  phases.tick_ms = NsToMs(b.first_drain - step_begin);
  phases.deliver_ms = NsToMs(b.last_drain - b.first_drain);
  phases.compute_ms = NsToMs(b.first_send - b.last_drain);
  phases.send_ms = NsToMs(step_end - b.first_send);
  phases.drain_self_ms = NsToMs(static_cast<int64_t>(tally.drain_ns));
  phases.send_self_ms = NsToMs(static_cast<int64_t>(tally.send_ns));
  const double threads = std::max<uint32_t>(1, tally.drain_threads);
  phases.absorb_ms =
      std::max(0.0, phases.deliver_ms - phases.drain_self_ms / threads);
  phases.envelopes = tally.belief_envelopes;
  phases.updates = tally.belief_updates;
  return phases;
}

void RecordRoundSpans(SpanLog* log, int64_t step_begin, int64_t step_end,
                      const TransportTally& tally, int64_t parent) {
  const Boundaries b = FindBoundaries(step_begin, step_end, tally);
  const int64_t round = log->Add("round", step_begin, step_end, parent,
                                 tally.belief_envelopes);
  log->Add("round.tick", step_begin, b.first_drain, round, tally.ticks);
  log->Add("round.deliver", b.first_drain, b.last_drain, round,
           tally.drain_calls);
  log->Add("round.compute", b.last_drain, b.first_send, round);
  log->Add("round.send", b.first_send, step_end, round, tally.send_calls);
}

void RoundClock::Start() {
  if (tracer_ != nullptr) {
    traced_round_ = true;
    tracer_->SetEnabled(true);
    tracer_->Take();
  }
  last_ = NowNs();
}

void RoundClock::Stop() {
  if (tracer_ != nullptr) tracer_->SetEnabled(true);
}

void RoundClock::OnRound(size_t, const pdms::RoundReport&,
                         const pdms::Session&) {
  const int64_t now = NowNs();
  const double ms = NsToMs(now - last_);
  round_ms_.push_back(ms);
  if (tracer_ != nullptr) {
    if (traced_round_) {
      const TransportTally tally = tracer_->Take();
      phases_.push_back(DerivePhases(last_, now, tally));
      RecordRoundSpans(spans_, last_, now, tally, parent_);
    } else {
      untraced_round_ms_.push_back(ms);
    }
    traced_round_ = !traced_round_;
    tracer_->SetEnabled(traced_round_);
  }
  last_ = NowNs();
}

}  // namespace pdmsbench
