// Concurrency layer tests: the work-stealing ThreadPool the engine fans
// rounds out on, and the thread-safety contract of the bundled Transport
// implementations (sharded mailboxes, atomic stats), and the logger those
// threads share. The transport tests are written to run meaningfully under
// ThreadSanitizer — CI builds this binary with -fsanitize=thread and any
// lock misuse fails the job.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault_injection.h"
#include "net/network.h"
#include "net/socket_transport.h"
#include "pdms/transport.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace pdms {
namespace {

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kItems = 10000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(0, kItems, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesToDistinctSlotsNeedNoSynchronization) {
  // The engine's usage pattern: each index owns its output slot.
  ThreadPool pool(3);
  std::vector<size_t> out(5000, 0);
  pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(7, 8, [&](size_t i) {
    calls.fetch_add(1);
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  pool.ParallelFor(0, ran.size(), [&](size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
  bool submitted = false;
  pool.Submit([&] { submitted = true; });
  EXPECT_TRUE(submitted);  // inline execution, no thread to defer to
}

TEST(ThreadPoolTest, SubmitEventuallyRunsEveryTask) {
  ThreadPool pool(3);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyParallelFors) {
  ThreadPool pool(4);
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<int> values(257, 0);
    pool.ParallelFor(0, values.size(), [&](size_t i) { values[i] = 1; });
    EXPECT_EQ(std::accumulate(values.begin(), values.end(), 0),
              static_cast<int>(values.size()));
  }
}

// --- Transport thread-safety ---------------------------------------------------

struct TransportFactoryCase {
  const char* label;
  std::unique_ptr<Transport> (*make)(size_t peers);
};

class ConcurrentTransportTest
    : public ::testing::TestWithParam<TransportFactoryCase> {};

ProbeMessage SequencedProbe(PeerId from, uint32_t sequence) {
  ProbeMessage probe;
  probe.origin = from;
  probe.ttl = sequence;
  return probe;
}

TEST_P(ConcurrentTransportTest, ParallelSendersPreservePerSenderOrder) {
  constexpr size_t kPeers = 8;
  constexpr size_t kSenders = 4;
  constexpr uint32_t kPerSender = 500;
  auto transport = GetParam().make(kPeers);

  // Senders 0..3 concurrently fan sequenced probes out to all peers while
  // two drainer threads concurrently empty disjoint halves of the
  // mailboxes (allowed by the Transport contract). Every message must
  // come out exactly once, in per-sender order.
  std::vector<std::vector<std::vector<uint32_t>>> received(
      kPeers, std::vector<std::vector<uint32_t>>(kSenders));
  std::atomic<bool> stop{false};
  auto drain_range = [&](PeerId begin, PeerId end) {
    for (PeerId p = begin; p < end; ++p) {
      for (Envelope& envelope : transport->Drain(p)) {
        const auto& probe = std::get<ProbeMessage>(envelope.payload);
        received[p][probe.origin].push_back(probe.ttl);
      }
    }
  };
  std::thread drainer_low([&] {
    while (!stop.load(std::memory_order_acquire)) drain_range(0, kPeers / 2);
  });
  std::thread drainer_high([&] {
    while (!stop.load(std::memory_order_acquire)) {
      drain_range(kPeers / 2, kPeers);
    }
  });

  std::vector<std::thread> senders;
  for (size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (uint32_t i = 0; i < kPerSender; ++i) {
        transport->Send(static_cast<PeerId>(s),
                        static_cast<PeerId>(i % kPeers), std::nullopt,
                        SequencedProbe(static_cast<PeerId>(s), i));
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  stop.store(true, std::memory_order_release);
  drainer_low.join();
  drainer_high.join();

  // Quiescent cleanup: advance past any delivery delay and drain the rest.
  for (int tick = 0; tick < 4; ++tick) transport->AdvanceTick();
  drain_range(0, kPeers);
  EXPECT_FALSE(transport->HasPendingMessages());

  size_t total = 0;
  for (PeerId p = 0; p < kPeers; ++p) {
    for (size_t s = 0; s < kSenders; ++s) {
      const std::vector<uint32_t>& sequence = received[p][s];
      total += sequence.size();
      for (size_t i = 1; i < sequence.size(); ++i) {
        ASSERT_LT(sequence[i - 1], sequence[i])
            << "per-sender FIFO violated at peer " << p << " sender " << s;
      }
    }
  }
  EXPECT_EQ(total, kSenders * kPerSender);
  const size_t probe = static_cast<size_t>(MessageKind::kProbe);
  EXPECT_EQ(transport->stats().sent[probe], kSenders * kPerSender);
  EXPECT_EQ(transport->stats().delivered[probe], kSenders * kPerSender);
  EXPECT_GT(transport->stats().bytes_sent, 0u);
}

TEST_P(ConcurrentTransportTest, ConcurrentSendsAccountEveryMessage) {
  constexpr size_t kPeers = 4;
  constexpr size_t kSenders = 8;
  constexpr size_t kPerSender = 1000;
  auto transport = GetParam().make(kPeers);
  std::vector<std::thread> senders;
  for (size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (size_t i = 0; i < kPerSender; ++i) {
        BeliefMessage message;
        message.AddGroup(0, FactorId{0x1, 0x2}, {BeliefEntry{0, Belief::Unit()}});
        transport->Send(static_cast<PeerId>(s % kPeers),
                        static_cast<PeerId>((s + i) % kPeers), std::nullopt,
                        std::move(message));
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  for (int tick = 0; tick < 4; ++tick) transport->AdvanceTick();
  size_t drained = 0;
  for (PeerId p = 0; p < kPeers; ++p) drained += transport->Drain(p).size();
  EXPECT_FALSE(transport->HasPendingMessages());

  const size_t belief = static_cast<size_t>(MessageKind::kBelief);
  const TransportStats& stats = transport->stats();
  EXPECT_EQ(stats.sent[belief], kSenders * kPerSender);
  EXPECT_EQ(stats.delivered[belief] + stats.dropped[belief],
            kSenders * kPerSender);
  EXPECT_EQ(drained, stats.delivered[belief]);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ConcurrentTransportTest,
    ::testing::Values(
        TransportFactoryCase{"instant",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               return std::make_unique<InstantTransport>(peers);
                             }},
        TransportFactoryCase{"sim",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               return std::make_unique<SimTransport>(
                                   peers, NetworkOptions{});
                             }},
        TransportFactoryCase{"socket",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               auto transport =
                                   SocketTransport::CreateLoopback(peers);
                               EXPECT_NE(transport, nullptr);
                               return transport;
                             }}),
    [](const ::testing::TestParamInfo<TransportFactoryCase>& info) {
      return std::string(info.param.label);
    });

// --- Fault decorator under concurrent sends --------------------------------------

TEST(FaultInjectingTransportConcurrencyTest, ConcurrentSendsAccountEveryEvent) {
  // The decorator serializes its draws, reorder slot and delay queue
  // behind one mutex while drainers empty the inner transport
  // concurrently. Every event is accounted: what was not dropped is
  // delivered, duplicates twice, reordered and delayed ones late.
  constexpr size_t kPeers = 4;
  constexpr size_t kSenders = 8;
  constexpr size_t kPerSender = 1000;
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.1;
  plan.reorder_rate = 0.1;
  plan.delay_ticks_max = 2;
  FaultInjectingTransport transport(
      std::make_unique<SimTransport>(kPeers, NetworkOptions{}), plan);
  std::atomic<size_t> drained{0};
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (PeerId p = 0; p < kPeers; ++p) {
        drained.fetch_add(transport.Drain(p).size(),
                          std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> senders;
  for (size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (size_t i = 0; i < kPerSender; ++i) {
        BeliefMessage message;
        message.AddGroup(0, FactorId{0x1, 0x2},
                         {BeliefEntry{0, Belief::Unit()}});
        transport.Send(static_cast<PeerId>(s % kPeers),
                       static_cast<PeerId>((s + i) % kPeers), std::nullopt,
                       std::move(message));
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  stop.store(true, std::memory_order_release);
  drainer.join();
  // Quiescent cleanup: release held envelopes past the longest delay.
  for (int tick = 0; tick < 4; ++tick) {
    transport.AdvanceTick();
    for (PeerId p = 0; p < kPeers; ++p) drained += transport.Drain(p).size();
  }
  EXPECT_FALSE(transport.HasPendingMessages());

  const FaultStats faults = transport.fault_stats();
  EXPECT_EQ(faults.events, kSenders * kPerSender);
  EXPECT_GT(faults.dropped, 0u);
  EXPECT_GT(faults.duplicated, 0u);
  EXPECT_EQ(drained.load(), faults.events - faults.dropped + faults.duplicated);
  const size_t belief = static_cast<size_t>(MessageKind::kBelief);
  EXPECT_EQ(transport.stats().delivered[belief], drained.load());
}

// --- Logger -------------------------------------------------------------------

TEST(LoggerConcurrencyTest, ConcurrentLinesArriveIntact) {
  constexpr size_t kThreads = 8;
  constexpr size_t kLinesPerThread = 200;
  // Long lines, so a line written in pieces would interleave visibly.
  const std::string padding(120, '.');
  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &padding] {
      for (size_t i = 0; i < kLinesPerThread; ++i) {
        PDMS_LOG_ERROR << "thread " << t << " line " << i << " " << padding;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string captured = testing::internal::GetCapturedStderr();

  std::map<std::string, size_t> seen;
  std::istringstream lines(captured);
  for (std::string line; std::getline(lines, line);) ++seen[line];
  ASSERT_EQ(seen.size(), kThreads * kLinesPerThread);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kLinesPerThread; ++i) {
      const std::string expected =
          StrFormat("[ERROR] thread %zu line %zu %s", t, i, padding.c_str());
      EXPECT_EQ(seen[expected], 1u) << expected;
    }
  }
}

}  // namespace
}  // namespace pdms
