#include "net/resilient_client.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "fault/fault_injector.h"
#include "service/metrics.h"

namespace mqpi::net {
namespace {

// Reconnect delays get a uniform jitter of +-this fraction on top.
constexpr double kBackoffJitter = 0.5;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 Options options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      rng_(options.seed) {
  if (options_.metrics != nullptr) {
    reconnects_counter_ = options_.metrics->counter("net.client.reconnects");
    resubscribes_counter_ =
        options_.metrics->counter("net.client.resubscribes");
    connect_fails_counter_ =
        options_.metrics->counter("net.client.connect_fails");
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

ResilientClient::~ResilientClient() { Stop(); }

void ResilientClient::Stop() {
  wake_.RequestStop();
  if (worker_.joinable()) worker_.join();
}

SnapshotView ResilientClient::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mirror_;
}

std::uint64_t ResilientClient::sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mirror_.sequence();
}

bool ResilientClient::WaitForSequence(std::uint64_t min_sequence,
                                      double timeout_s) {
  const auto deadline = Wakeup::After(timeout_s);
  std::uint64_t seen = 0;
  while (sequence() < min_sequence) {
    if (Wakeup::Clock::now() >= deadline ||
        !wake_.WaitUntil(&seen, deadline)) {
      return sequence() >= min_sequence;
    }
  }
  return true;
}

void ResilientClient::PublishMirror(const SnapshotView& view) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    mirror_ = view;
  }
  wake_.Notify();  // WaitForSequence() callers; the worker ignores it
}

bool ResilientClient::SleepBackoff(double* backoff_s) {
  // Jittered delay, then grow toward the cap for the next round.
  const double jitter = rng_.Uniform(-kBackoffJitter, kBackoffJitter);
  const double delay = std::max(0.0, *backoff_s * (1.0 + jitter));
  *backoff_s = std::min(*backoff_s * 2.0, options_.backoff_max_s);
  return wake_.SleepFor(delay);
}

void ResilientClient::WorkerLoop() {
  double backoff_s = options_.backoff_initial_s;
  while (!wake_.stop_requested()) {
    // Chaos hook: a fired net.client.connect_fail counts as a failed
    // dial without ever touching the socket.
    if (options_.fault != nullptr &&
        options_.fault->ShouldFire(fault::kNetClientConnectFail)) {
      if (connect_fails_counter_ != nullptr) {
        connect_fails_counter_->Increment();
      }
      if (!SleepBackoff(&backoff_s)) break;
      continue;
    }
    auto client = Client::Connect(host_, port_, options_.connect_timeout_s);
    if (!client.ok()) {
      if (connect_fails_counter_ != nullptr) {
        connect_fails_counter_->Increment();
      }
      if (!SleepBackoff(&backoff_s)) break;
      continue;
    }
    ++connects_total_;
    if (connects_total_ > 1) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (reconnects_counter_ != nullptr) reconnects_counter_->Increment();
    }
    backoff_s = options_.backoff_initial_s;
    connected_.store(true, std::memory_order_release);
    ServeConnection(client->get());
    connected_.store(false, std::memory_order_release);
    if (wake_.stop_requested()) break;
    if (!SleepBackoff(&backoff_s)) break;
  }
}

void ResilientClient::ServeConnection(Client* client) {
  const auto subscribe = [&]() -> bool {
    ++subscribes_total_;
    if (subscribes_total_ > 1) {
      resubscribes_.fetch_add(1, std::memory_order_relaxed);
      if (resubscribes_counter_ != nullptr) resubscribes_counter_->Increment();
    }
    return client->Subscribe(options_.subscribe_shard).ok();
  };
  std::uint64_t published = 0;
  const auto publish = [&] {
    published = client->view().sequence();
    PublishMirror(client->view());
  };
  if (!subscribe()) return;
  // Subscribe()'s round trip may already have applied the greeting
  // SNAPSHOT_FULL to the view.
  if (client->view().sequence() > 0) publish();

  double last_frame = NowSeconds();
  while (!wake_.stop_requested()) {
    auto pushed = client->PumpOne(
        std::min(0.05, std::max(0.001, options_.ping_interval_s / 4.0)));
    if (!pushed.ok()) {
      if (pushed.status().code() == StatusCode::kFailedPrecondition) {
        // Stream gap: frames were lost between deltas. Drop the stale
        // rows and resubscribe on the same connection; the server
        // answers with a fresh SNAPSHOT_FULL.
        gaps_healed_.fetch_add(1, std::memory_order_relaxed);
        client->mutable_view()->Reset();
        if (!subscribe()) return;
        if (client->view().sequence() > 0) publish();
        last_frame = NowSeconds();
        continue;
      }
      return;  // connection is dead; reconnect
    }
    if (*pushed) {
      publish();
      last_frame = NowSeconds();
      continue;
    }
    // Quiet stream: liveness-ping once the interval elapses. A pong
    // proves the path end to end; a timeout means the connection is
    // dead even though TCP has not said so.
    if (NowSeconds() - last_frame >= options_.ping_interval_s) {
      if (!client->Ping().ok()) return;
      // Call() folds any interleaved pushes into the view.
      if (client->view().sequence() > published) publish();
      last_frame = NowSeconds();
    }
  }
}

}  // namespace mqpi::net
