// Parking tests: the Wakeup helper every worker thread parks on, and
// Start/Stop soaks of the service ticker and the subscriber pool that
// park on it.
//
// The helper tests are deterministic. A test hook runs inside the wait
// once its condition has read false, just before the waiter blocks.
// From there a second thread calls RequestStop() or Notify(). A helper
// that wrote its flag outside its mutex would let that call finish,
// and its notify go unheard, before the waiter blocks; the waiter
// would then never return. The bounds are generous so that a slow
// sanitizer build passes; a lost wakeup misses them by forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "common/wakeup.h"
#include "net/fanout.h"
#include "service/metrics.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `wait` on its own thread. The first time that wait is about to
// block, a second thread calls `wake`. Returns whether `wait` returned
// within 5 s; a waiter that lost its wakeup is then released with a
// RequestStop() so the test can finish.
bool WaiterWokenFromInsideTheWait(Wakeup* wakeup,
                                  const std::function<void()>& wait,
                                  const std::function<void()>& wake) {
  std::atomic<bool> hooked{false};
  std::atomic<bool> wake_returned{false};
  std::thread waker;
  wakeup->SetWaitHookForTesting([&] {
    if (hooked.exchange(true)) return;
    waker = std::thread([&] {
      wake();
      wake_returned.store(true);
    });
    // Let the waker run as far as it can. A correct helper blocks it
    // on the mutex this hook runs under, so this times out.
    const auto until = Clock::now() + 200ms;
    while (!wake_returned.load() && Clock::now() < until) {
      std::this_thread::sleep_for(1ms);
    }
  });
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    wait();
    returned.store(true);
  });
  const auto deadline = Clock::now() + 5s;
  while (!returned.load() && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const bool in_time = returned.load();
  if (!in_time) wakeup->RequestStop();
  waiter.join();
  if (waker.joinable()) waker.join();
  wakeup->SetWaitHookForTesting(nullptr);
  EXPECT_TRUE(hooked.load()) << "the wait never reached its block";
  return in_time;
}

TEST(WakeupTest, StopRacingTheBlockIsNotLost) {
  Wakeup wakeup;
  std::uint64_t seen = 0;
  bool work = true;
  EXPECT_TRUE(WaiterWokenFromInsideTheWait(
      &wakeup, [&] { work = wakeup.Wait(&seen); },
      [&] { wakeup.RequestStop(); }));
  EXPECT_FALSE(work);
}

TEST(WakeupTest, NotifyRacingTheBlockIsNotLost) {
  Wakeup wakeup;
  std::uint64_t seen = 0;
  bool work = false;
  EXPECT_TRUE(WaiterWokenFromInsideTheWait(
      &wakeup, [&] { work = wakeup.Wait(&seen); },
      [&] { wakeup.Notify(); }));
  EXPECT_TRUE(work);
  EXPECT_EQ(seen, 1u);
}

TEST(WakeupTest, StopRacingASleepIsNotLost) {
  Wakeup wakeup;
  bool slept_out = true;
  const auto start = Clock::now();
  EXPECT_TRUE(WaiterWokenFromInsideTheWait(
      &wakeup, [&] { slept_out = wakeup.SleepFor(60.0); },
      [&] { wakeup.RequestStop(); }));
  EXPECT_FALSE(slept_out);
  EXPECT_LT(SecondsSince(start), 30.0);
}

TEST(WakeupTest, ResetClearsStopButKeepsTheEpoch) {
  Wakeup wakeup;
  std::uint64_t seen = 0;
  wakeup.Notify();
  wakeup.RequestStop();
  EXPECT_TRUE(wakeup.stop_requested());
  EXPECT_FALSE(wakeup.Wait(&seen));  // stop wins over pending work
  EXPECT_FALSE(wakeup.SleepFor(60.0));
  wakeup.Reset();
  EXPECT_FALSE(wakeup.stop_requested());
  seen = 0;
  // Work notified before the Reset is still pending after it.
  EXPECT_TRUE(wakeup.Wait(&seen));
  EXPECT_EQ(seen, 1u);
  EXPECT_TRUE(wakeup.SleepFor(0.001));  // a plain timeout is not a stop
}

TEST(WakeupTest, DeadlineWaitReturnsOnNotify) {
  Wakeup wakeup;
  std::uint64_t seen = 0;
  const auto start = Clock::now();
  std::thread notifier([&] {
    std::this_thread::sleep_for(20ms);
    wakeup.Notify();
  });
  EXPECT_TRUE(wakeup.WaitUntil(&seen, Wakeup::After(60.0)));
  notifier.join();
  EXPECT_EQ(seen, 1u);
  EXPECT_LT(SecondsSince(start), 30.0);
}

TEST(WakeupTest, DeadlineWaitReturnsOnStop) {
  Wakeup wakeup;
  std::uint64_t seen = 0;
  const auto start = Clock::now();
  std::thread stopper([&] {
    std::this_thread::sleep_for(20ms);
    wakeup.RequestStop();
  });
  EXPECT_FALSE(wakeup.WaitUntil(&seen, Wakeup::After(60.0)));
  stopper.join();
  EXPECT_EQ(seen, 0u);
  EXPECT_LT(SecondsSince(start), 30.0);
}

TEST(WakeupTest, DeadlineWaitReturnsAtTheDeadline) {
  Wakeup wakeup;
  std::uint64_t seen = 0;
  const auto start = Clock::now();
  EXPECT_TRUE(wakeup.WaitUntil(&seen, Wakeup::After(0.05)));
  EXPECT_GE(SecondsSince(start), 0.05);
  EXPECT_EQ(seen, 0u);
}

TEST(WakeupTest, NotifyRacingADeadlineWaitIsNotLost) {
  Wakeup wakeup;
  std::uint64_t seen = 0;
  bool work = false;
  EXPECT_TRUE(WaiterWokenFromInsideTheWait(
      &wakeup, [&] { work = wakeup.WaitUntil(&seen, Wakeup::After(60.0)); },
      [&] { wakeup.Notify(); }));
  EXPECT_TRUE(work);
  EXPECT_EQ(seen, 1u);
}

// ---- Start/Stop soaks ---------------------------------------------------------
//
// 10k cycles each. A lost stop wakeup in a wait without a timeout
// hangs Stop() forever; one in a timed wait shows as a slow Stop().
// The bounds: the whole soak under 30 s and no single Stop() over 1 s.

constexpr int kSoakCycles = 10000;
constexpr double kSoakBoundS = 30.0;
constexpr double kStopBoundS = 1.0;

// Cycles `start`/`stop` and returns the slowest stop, in seconds.
double SoakStartStop(const std::function<void()>& start,
                     const std::function<void()>& stop) {
  double worst_stop_s = 0.0;
  for (int cycle = 0; cycle < kSoakCycles; ++cycle) {
    start();
    // Alternate between stopping at once (racing the worker's first
    // check) and after it has had a chance to park or run.
    if (cycle % 2 == 1) std::this_thread::yield();
    const auto stop_start = Clock::now();
    stop();
    worst_stop_s = std::max(worst_stop_s, SecondsSince(stop_start));
  }
  return worst_stop_s;
}

service::PiServiceOptions TickerOptions() {
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 10.0;
  options.rdbms.quantum = 0.1;
  options.time_scale = 0.0;  // a busy ticker steps flat out
  return options;
}

TEST(PiServiceSoakTest, IdleParkedStartStop) {
  storage::Catalog catalog;
  service::PiService service(&catalog, TickerOptions());
  ASSERT_TRUE(service.Idle());
  const auto start = Clock::now();
  const double worst_stop_s = SoakStartStop([&] { service.Start(); },
                                            [&] { service.Stop(); });
  EXPECT_LT(SecondsSince(start), kSoakBoundS);
  EXPECT_LT(worst_stop_s, kStopBoundS);
  EXPECT_FALSE(service.ticking());
}

TEST(PiServiceSoakTest, BusyStartStop) {
  storage::Catalog catalog;
  service::PiService service(&catalog, TickerOptions());
  auto session = service.OpenSession();
  ASSERT_TRUE(session->Submit(engine::QuerySpec::Synthetic(1e12)).ok());
  const auto start = Clock::now();
  const double worst_stop_s = SoakStartStop([&] { service.Start(); },
                                            [&] { service.Stop(); });
  EXPECT_LT(SecondsSince(start), kSoakBoundS);
  EXPECT_LT(worst_stop_s, kStopBoundS);
  EXPECT_FALSE(service.Idle());
  EXPECT_GT(service.snapshot()->sequence, 0u);
  EXPECT_TRUE(session->Close().ok());
}

service::SnapshotPtr Snapshot(std::uint64_t sequence) {
  auto snapshot = std::make_shared<service::ProgressSnapshot>();
  snapshot->sequence = sequence;
  return snapshot;
}

TEST(SubscriberPoolSoakTest, IdleParkedStartStop) {
  service::MetricsRegistry registry;
  net::NetMetrics metrics(&registry);
  net::SnapshotFanout fanout;
  net::SubscriberPool pool(&fanout, &metrics);
  auto sub = pool.Subscribe();
  const auto start = Clock::now();
  const double worst_stop_s = SoakStartStop([&] { pool.Start(); },
                                            [&] { pool.Stop(); });
  EXPECT_LT(SecondsSince(start), kSoakBoundS);
  EXPECT_LT(worst_stop_s, kStopBoundS);
  pool.Unsubscribe(sub);
}

TEST(SubscriberPoolSoakTest, BusyStartStop) {
  service::MetricsRegistry registry;
  net::NetMetrics metrics(&registry);
  net::SnapshotFanout fanout;
  net::SubscriberPool pool(&fanout, &metrics);
  auto sub = pool.Subscribe();
  std::atomic<bool> publishing{true};
  std::thread publisher([&] {
    for (std::uint64_t seq = 1; publishing.load(); ++seq) {
      fanout.Publish(Snapshot(seq));
      std::this_thread::yield();
    }
  });
  const auto start = Clock::now();
  const double worst_stop_s = SoakStartStop([&] { pool.Start(); },
                                            [&] { pool.Stop(); });
  publishing.store(false);
  publisher.join();
  EXPECT_LT(SecondsSince(start), kSoakBoundS);
  EXPECT_LT(worst_stop_s, kStopBoundS);
  EXPECT_GT(pool.sweeps(), 0u);
  pool.Unsubscribe(sub);
}

}  // namespace
}  // namespace mqpi
