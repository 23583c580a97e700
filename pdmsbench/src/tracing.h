#ifndef PDMSBENCH_TRACING_H_
#define PDMSBENCH_TRACING_H_

// Tracing from outside the program: a `Transport` decorator that times every
// call the engine makes into its transport, and the round-phase arithmetic
// that turns those call boundaries into tick / deliver / absorb / compute /
// send intervals. Nothing here reaches into the library's internals; the
// decorator is installed through `PdmsBuilder::WithTransport`.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pdms/session.h"
#include "pdms/transport.h"

namespace pdmsbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// One timed interval. `parent` is the id of the span that caused it, -1
/// for a root.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Optional work count attached at the boundary (calls, envelopes, …).
  uint64_t count = 0;
};

/// Spans held in memory until the run ends, then written out as JSON lines.
/// Not thread-safe: call from the thread running the workload.
class SpanLog {
 public:
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, uint64_t count = 0);
  /// Writes one JSON object per line; times relative to the first span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Counters of the transport calls made since the last `TracingTransport::
/// Take`. Times are steady_clock nanoseconds.
struct TransportTally {
  static constexpr int64_t kNone = std::numeric_limits<int64_t>::min();

  uint64_t ticks = 0;
  uint64_t drain_calls = 0;
  uint64_t drain_ns = 0;
  uint64_t send_calls = 0;
  uint64_t send_ns = 0;
  uint64_t belief_envelopes = 0;
  uint64_t belief_updates = 0;
  int64_t first_drain_start = kNone;
  int64_t last_drain_end = kNone;
  int64_t first_send_start = kNone;
  /// Distinct threads that called Drain.
  uint32_t drain_threads = 0;
};

/// Transport decorator: forwards every call to the wrapped transport and
/// records, with relaxed atomics, how many calls of each kind were made,
/// their summed self time, and the first/last call boundaries. Safe under
/// the `Transport` thread-safety contract (concurrent Send, concurrent
/// Drain of distinct peers); `Take`, like `stats()`, must not overlap them.
class TracingTransport final : public pdms::Transport {
 public:
  explicit TracingTransport(std::unique_ptr<pdms::Transport> inner);

  std::string_view name() const override { return inner_->name(); }
  size_t peer_count() const override { return inner_->peer_count(); }
  uint64_t now() const override { return inner_->now(); }
  void AdvanceTick() override;
  void Send(pdms::PeerId from, pdms::PeerId to,
            std::optional<pdms::EdgeId> via, pdms::Payload payload) override;
  std::vector<pdms::Envelope> Drain(pdms::PeerId peer) override;
  bool HasPendingMessages() const override {
    return inner_->HasPendingMessages();
  }
  const pdms::TransportStats& stats() const override {
    return inner_->stats();
  }
  void ResetStats() override { inner_->ResetStats(); }

  /// Returns the counters accumulated since the previous call and resets
  /// them. Must not overlap Send/Drain.
  TransportTally Take();

  /// While off, calls are forwarded untimed and uncounted (the untraced
  /// rounds of an overhead comparison). On by default.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// While on, a copy of every belief payload sent is kept for
  /// `TakeCaptured` (codec timing input).
  void SetCapture(bool on) { capture_.store(on, std::memory_order_relaxed); }
  std::vector<pdms::Payload> TakeCaptured();

 private:
  std::unique_ptr<pdms::Transport> inner_;

  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> drain_calls_{0};
  std::atomic<uint64_t> drain_ns_{0};
  std::atomic<uint64_t> send_calls_{0};
  std::atomic<uint64_t> send_ns_{0};
  std::atomic<uint64_t> belief_envelopes_{0};
  std::atomic<uint64_t> belief_updates_{0};
  std::atomic<int64_t> first_drain_start_{TransportTally::kNone};
  std::atomic<int64_t> last_drain_end_{TransportTally::kNone};
  std::atomic<int64_t> first_send_start_{TransportTally::kNone};
  std::atomic<uint64_t> drain_thread_mask_{0};

  std::atomic<bool> enabled_{true};
  std::atomic<bool> capture_{false};
  std::mutex captured_mutex_;
  std::vector<pdms::Payload> captured_;
};

/// Builder transport factory wrapping a SimTransport in a TracingTransport;
/// `*out` receives the (engine-owned) decorator.
std::unique_ptr<pdms::Transport> MakeTracedSimTransport(
    size_t peer_count, const pdms::NetworkOptions& network,
    TracingTransport** out);

/// One round split at the transport-call boundaries:
///   tick    = Step entry            -> first Drain call
///   deliver = first Drain call      -> last Drain return
///   absorb  = deliver - Drain self time per draining thread
///   compute = last Drain return     -> first Send call
///   send    = first Send call       -> Step return
/// tick + deliver + compute + send == step.
struct RoundPhases {
  double step_ms = 0;
  double tick_ms = 0;
  double deliver_ms = 0;
  double absorb_ms = 0;
  double compute_ms = 0;
  double send_ms = 0;
  double drain_self_ms = 0;
  double send_self_ms = 0;
  uint64_t envelopes = 0;
  uint64_t updates = 0;
  /// False when the call boundaries were out of order (a Send before the
  /// last Drain, a call outside the step), which would make the split
  /// meaningless.
  bool ordered = true;
};

RoundPhases DerivePhases(int64_t step_begin, int64_t step_end,
                         const TransportTally& tally);

/// Adds a "round" span and its four phase children.
void RecordRoundSpans(SpanLog* log, int64_t step_begin, int64_t step_end,
                      const TransportTally& tally, int64_t parent);

/// Times every round a session drives (Step or each Converge iteration):
/// a round spans from the previous notification's return to this one. With
/// a tracer attached, tracing alternates round by round — on for the first
/// — so traced and untraced rounds of the same pass give the tracing
/// overhead; each traced round is split into its phases, with spans under
/// `parent`. The tracer is left enabled once the pass ends (`Stop`).
class RoundClock final : public pdms::RoundObserver {
 public:
  RoundClock(TracingTransport* tracer, SpanLog* spans, int64_t parent)
      : tracer_(tracer), spans_(spans), parent_(parent) {}

  /// Opens the first round's window; call right before Step/Converge.
  void Start();
  /// Re-enables the tracer after the pass.
  void Stop();

  void OnRound(size_t round, const pdms::RoundReport& report,
               const pdms::Session& session) override;

  /// Every round's wall time, in order.
  const std::vector<double>& round_ms() const { return round_ms_; }
  /// With a tracer: the traced rounds' phases and the untraced rounds'
  /// wall times.
  const std::vector<RoundPhases>& phases() const { return phases_; }
  const std::vector<double>& untraced_round_ms() const {
    return untraced_round_ms_;
  }

 private:
  TracingTransport* tracer_;
  SpanLog* spans_;
  int64_t parent_;
  int64_t last_ = 0;
  bool traced_round_ = true;
  std::vector<double> round_ms_;
  std::vector<RoundPhases> phases_;
  std::vector<double> untraced_round_ms_;
};

}  // namespace pdmsbench

#endif  // PDMSBENCH_TRACING_H_
