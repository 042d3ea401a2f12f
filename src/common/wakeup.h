// Wakeup: the one way a thread parks, waits and is stopped.
//
// A work epoch and a stop flag, both written and read only under one
// mutex that every wait checks them under before it blocks, so a
// Notify() or RequestStop() racing a parking waiter is never lost. The
// server's epoll loop is the one parked thread that does not use it: it
// must also wake on sockets, so it parks on an eventfd.
//
// A wait for a data condition ("the system is idle", "a drain
// finished") is a loop: check the condition, then WaitUntil() a
// deadline. Whoever changes the condition calls Notify() afterwards.
// The epoch the waiter passes in was read before its check, so a
// change landing between the check and the block still wakes it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>

namespace mqpi {

class Wakeup {
 public:
  using Clock = std::chrono::steady_clock;

  /// Bumps the work epoch and wakes every waiter.
  void Notify() { Update([this] { ++epoch_; }); }
  /// Sets the stop flag (until Reset()) and wakes every waiter.
  void RequestStop() { Update([this] { stop_ = true; }); }
  /// Clears the stop flag for a Start() after a Stop(); keeps the epoch.
  void Reset() { Update([this] { stop_ = false; }); }

  bool stop_requested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stop_;
  }

  /// Blocks until the epoch differs from `*seen_epoch` or stop is
  /// requested, then stores the current epoch in `*seen_epoch`.
  /// Returns false when stop was requested.
  bool Wait(std::uint64_t* seen_epoch) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return Ready(stop_ || epoch_ != *seen_epoch); });
    *seen_epoch = epoch_;
    return !stop_;
  }
  /// Wait() with a deadline: also returns at `deadline`, still
  /// storing the current epoch. Returns false when stop was requested.
  bool WaitUntil(std::uint64_t* seen_epoch, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline,
                   [&] { return Ready(stop_ || epoch_ != *seen_epoch); });
    *seen_epoch = epoch_;
    return !stop_;
  }
  /// Blocks until `deadline` or stop, ignoring Notify(). Returns false
  /// when stop was requested.
  bool SleepUntil(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [&] { return Ready(stop_); });
    return !stop_;
  }
  bool SleepFor(double seconds) { return SleepUntil(After(seconds)); }

  /// The time point `seconds` from now.
  static Clock::time_point After(double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  }

  /// Test seam: runs inside every wait, under the mutex, each time the
  /// wait's condition has read false and the waiter is about to block.
  /// It must not call back into this Wakeup.
  void SetWaitHookForTesting(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    wait_hook_ = std::move(hook);
  }

 private:
  template <typename Mutation>
  void Update(Mutation mutate) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      mutate();
    }
    cv_.notify_all();
  }
  bool Ready(bool ready) {  // requires mu_
    if (!ready && wait_hook_) wait_hook_();
    return ready;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;          // guarded by mu_
  bool stop_ = false;                // guarded by mu_
  std::function<void()> wait_hook_;  // guarded by mu_
};

}  // namespace mqpi
