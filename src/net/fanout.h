// Snapshot fan-out: one published ProgressSnapshot reaching any number
// of subscribers with O(1) work on the publishing (ticker) thread and
// one encode per distinct stream position.
//
// The pieces, bottom-up:
//
//   SnapshotFanout — the publication hub. `Publish(snapshot)` swaps a
//   shared_ptr (snapshots are already immutable and ref-counted — the
//   service's PR 1 invariant), bumps an epoch, stamps the sequence's
//   wall-clock time into a lock-free ring (latency measurement), and
//   signals the registered *wakers*. A waker is one per event loop /
//   worker pool — never one per subscriber — so the publish path costs
//   1 pointer swap + #wakers signals regardless of how many clients
//   are subscribed. `publish_ops()` counts the exact work per publish
//   so the perfsmoke gate can assert O(1)-in-subscribers. The hub also
//   memoizes the wire frames for its latest snapshot, keyed by base
//   (`FrameFor`): encoded lazily by the first pool worker or loop
//   thread that asks, then shared as one immutable buffer by every
//   subscriber at that base.
//
//   DeltaEncoder::Encode — the one diff/encode function: SNAPSHOT_FULL
//   without a base, else a SNAPSHOT_DELTA with only the rows that
//   changed (state/priority/weight/degraded/queue position, or any
//   estimate field, compared bitwise). Snapshots are append-only by
//   query id and sorted, so the diff is one linear merge-walk.
//   Coalescing falls out naturally: a subscriber whose cursor missed k
//   snapshots gets one delta with the net change.
//
//   Subscription — one in-process subscriber endpoint: a cursor (the
//   snapshot it was last sent) plus a bounded queue of shared frames
//   (frames × bytes caps). Overflow = slow consumer: the queue is
//   cleared, a Status-coded ERROR frame (kResourceExhausted) is left
//   as the final message, and the subscription is shed — the service's
//   bounded-queue shedding discipline, applied at the network edge.
//
//   SubscriberPool — worker threads fanning published snapshots out to
//   sharded Subscription sets. Registers ONE waker with the fanout;
//   each worker wakes on publish, reads `Latest()` once, and walks its
//   shard queueing shared frames, off the ticker thread.
//
// TCP connections keep their cursor and write queue in the epoll loop
// instead (see net/conn.h / net/server.h), on the same frame memo.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/wakeup.h"
#include "service/metrics.h"
#include "service/snapshot.h"

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault
namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::net {

class SnapshotFanout;

/// An encoded wire frame shared by every subscriber it is queued for.
using SharedFrame = std::shared_ptr<const std::string>;

/// One sweep's deliveries, added to the (contended) counters at once.
struct DeliveryTally {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t full_frames = 0;
  std::uint64_t delta_frames = 0;
};

/// The net layer's instruments, resolved once against the service's
/// MetricsRegistry (all names pass the `lint` label check). Shared by
/// the TCP server, the subscriber pools, and the connections.
struct NetMetrics {
  service::Counter* frames_sent = nullptr;
  service::Counter* bytes_sent = nullptr;
  service::Counter* frames_received = nullptr;
  service::Counter* bytes_received = nullptr;
  service::Counter* delta_frames = nullptr;
  service::Counter* full_frames = nullptr;
  /// Frames encoded (memo misses), as opposed to delivered.
  service::Counter* frames_encoded = nullptr;
  service::Counter* slow_consumers_shed = nullptr;
  service::Counter* requests = nullptr;
  service::Counter* request_errors = nullptr;
  service::Counter* accepts = nullptr;
  service::Counter* accept_failures = nullptr;
  service::Counter* conns_dropped = nullptr;
  service::Counter* publish_wakeups = nullptr;
  service::Gauge* connections = nullptr;
  service::Gauge* subscriptions = nullptr;
  /// Publish -> socket/queue write latency per subscriber delivery,
  /// in nanoseconds (publish stamp from SnapshotFanout::PublishWallNs).
  service::Histogram* publish_to_write_ns = nullptr;

  /// Observes one delivery of `sequence` happening now against its
  /// publish stamp; no-op when the stamp was evicted from the ring.
  void ObservePublishToWrite(const SnapshotFanout& fanout,
                             std::uint64_t sequence);

  void Record(const DeliveryTally& tally);

  /// Live tallies behind the two gauges (gauges are last-write-wins;
  /// these atomics make concurrent add/remove safe).
  std::atomic<std::int64_t> connection_count{0};
  std::atomic<std::int64_t> subscription_count{0};

  explicit NetMetrics(service::MetricsRegistry* registry);

  void AddConnections(std::int64_t delta) {
    connections->Set(static_cast<double>(
        connection_count.fetch_add(delta, std::memory_order_relaxed) +
        delta));
  }
  void AddSubscriptions(std::int64_t delta) {
    subscriptions->Set(static_cast<double>(
        subscription_count.fetch_add(delta, std::memory_order_relaxed) +
        delta));
  }
};

// ---- diff + encode ----------------------------------------------------------

class DeltaEncoder {
 public:
  /// Encodes `next` as a push frame: SNAPSHOT_FULL when `base` is null
  /// or an id of `base` vanished from `next` (stream restart), else a
  /// SNAPSHOT_DELTA with only the new and changed rows. `*is_full`
  /// (optional) reports which. Never returns an empty string: an
  /// unchanged-rows publish still yields a header-only delta so the
  /// subscriber's sequence stays fresh.
  static std::string Encode(const service::ProgressSnapshot* base,
                            const service::ProgressSnapshot& next,
                            bool* is_full = nullptr);

  /// True when any delta-relevant field differs (bitwise on doubles, so
  /// inf/NaN compare sanely and "changed" means changed bits on the
  /// wire).
  static bool RowChanged(const service::QueryProgress& a,
                         const service::QueryProgress& b);
};

// ---- fan-out hub ------------------------------------------------------------

class SnapshotFanout {
 public:
  /// One signal target per event loop / worker pool. Signal() must be
  /// cheap and non-blocking (eventfd write, Wakeup::Notify).
  class Waker {
   public:
    virtual ~Waker() = default;
    virtual void Signal() = 0;
  };

  struct Frame {
    SharedFrame bytes;
    bool full = false;
  };

  /// `frames_encoded` (optional) counts memo misses.
  explicit SnapshotFanout(service::Counter* frames_encoded = nullptr);

  /// O(1) in subscribers: pointer swap + epoch bump + one Signal per
  /// registered waker. Safe from any thread; called by the service's
  /// publish hook on the ticker thread. Never encodes.
  void Publish(service::SnapshotPtr snapshot);

  /// Latest published snapshot (may be null before the first publish)
  /// and, optionally, the current epoch.
  service::SnapshotPtr Latest(std::uint64_t* epoch = nullptr) const;

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// The frame moving a subscriber from `base` (null = nothing yet) to
  /// `target`; memoized while `target` is the latest snapshot (an
  /// overtaken sweep's older target is encoded, not memoized).
  Frame FrameFor(const service::SnapshotPtr& base,
                 const service::SnapshotPtr& target);

  /// Wakers are per-loop, not per-subscriber; registration is rare.
  void RegisterWaker(Waker* waker);
  void UnregisterWaker(Waker* waker);

  /// Wall-clock stamp (steady_clock ns) recorded when `sequence` was
  /// published; 0 when the sequence has been evicted from the ring.
  /// Lock-free; used by subscribers to measure publish->read latency.
  std::int64_t PublishWallNs(std::uint64_t sequence) const;

  /// Publishes ever made, and total unit ops spent inside Publish
  /// (1 + wakers signaled per call). publish_ops()/publishes() is the
  /// perfsmoke invariant: constant in the subscriber count.
  std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  std::uint64_t publish_ops() const {
    return publish_ops_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStampRing = 4096;

  mutable std::mutex mu_;  // guards latest_, pointer ops only
  service::SnapshotPtr latest_;
  // Held while signaling, so no waker is signaled after Unregister
  // returns; apart from mu_, so a woken reader never waits on it.
  std::mutex wakers_mu_;
  std::vector<Waker*> wakers_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> publish_ops_{0};
  // seq -> wall ns, indexed seq % kStampRing; readers validate the seq.
  std::array<std::atomic<std::uint64_t>, kStampRing> stamp_seq_;
  std::array<std::atomic<std::int64_t>, kStampRing> stamp_ns_;

  // Frames to memo_target_, one per base, matched by owner: the weak
  // key pins the control block (never reused), not the rows. Encoding
  // runs under memo_mu_, taken before mu_, so concurrent requests for
  // one pair encode it once.
  std::mutex memo_mu_;
  service::SnapshotPtr memo_target_;
  std::vector<std::pair<std::weak_ptr<const service::ProgressSnapshot>, Frame>>
      memo_;
  service::Counter* const frames_encoded_;
};

/// One thread's view of a fanout's memo for one target snapshot. It
/// caches its last lookup, so a run of subscribers at one base (often
/// a whole pool shard) takes the memo lock once.
class FrameLookup {
 public:
  FrameLookup(SnapshotFanout* fanout, service::SnapshotPtr target)
      : fanout_(fanout), target_(std::move(target)) {}

  SnapshotFanout* fanout() const { return fanout_; }
  const service::SnapshotPtr& target() const { return target_; }
  const SnapshotFanout::Frame& For(const service::SnapshotPtr& base);

 private:
  SnapshotFanout* const fanout_;
  const service::SnapshotPtr target_;
  service::SnapshotPtr cached_base_;
  SnapshotFanout::Frame cached_frame_;  // bytes null until the first For
};

// ---- in-process subscriber endpoint -----------------------------------------

class Subscription {
 public:
  struct Options {
    std::size_t max_queued_frames = 64;
    std::size_t max_queued_bytes = std::size_t{4} << 20;
  };

  explicit Subscription(Options options) : options_(options) {}

  /// Producer side: queue the frame moving the cursor to
  /// `frames->target()` and count it in `*tally`; a no-op if the cursor
  /// is there already (one lock: it never moves backwards). False when
  /// dead or shed by this call (overflow, counted in `metrics`).
  bool Deliver(FrameLookup* frames, DeliveryTally* tally,
               NetMetrics* metrics);

  /// Consumer side: pops the next encoded wire frame; false when the
  /// queue is empty.
  bool TryPop(SharedFrame* frame);

  bool shed() const { return shed_.load(std::memory_order_acquire); }
  /// Marks the subscription dead without an error frame (unsubscribe,
  /// connection drop). Idempotent.
  void Cancel();
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Chaos hook (kNetSlowConsumer): the next `n` TryPop calls return
  /// empty, simulating a consumer that stopped draining; deliveries
  /// keep landing, so the bounded queue sheds the subscription.
  void StallPops(int n);
  /// Queue fully drained (shed subscriptions linger until their final
  /// error frame has been consumed).
  bool Drained() const;

  /// Sequence of the last snapshot queued (0 = none yet).
  std::uint64_t delivered_sequence() const;

 private:
  const Options options_;
  mutable std::mutex mu_;  // guards queue_, queued_bytes_, cursor_
  std::deque<SharedFrame> queue_;
  std::size_t queued_bytes_ = 0;
  service::SnapshotPtr cursor_;  // last snapshot queued; null = none
  std::atomic<bool> shed_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<int> stalled_pops_{0};
};

// ---- worker pool ------------------------------------------------------------

class SubscriberPool {
 public:
  struct Options {
    int threads = 2;
    Subscription::Options subscription;
    /// Optional chaos harness: kNetSlowConsumer / kNetConnDrop fire in
    /// the sweep loop. Not owned; must outlive the pool.
    fault::FaultInjector* fault = nullptr;
  };

  /// `fanout` and `metrics` must outlive the pool. Registers one waker
  /// with the fanout; Start() spawns the workers. (Two overloads
  /// because a nested aggregate's NSDMIs cannot feed a default
  /// argument inside the enclosing class.)
  SubscriberPool(SnapshotFanout* fanout, NetMetrics* metrics);
  SubscriberPool(SnapshotFanout* fanout, NetMetrics* metrics,
                 Options options);
  ~SubscriberPool();

  SubscriberPool(const SubscriberPool&) = delete;
  SubscriberPool& operator=(const SubscriberPool&) = delete;

  void Start();
  void Stop();

  /// Registers a subscriber; sharded round-robin across workers. The
  /// returned handle is the consumer endpoint; release it with
  /// Unsubscribe (or just Cancel() it — dead subscriptions are swept
  /// out lazily).
  std::shared_ptr<Subscription> Subscribe();
  void Unsubscribe(const std::shared_ptr<Subscription>& subscription);

  std::uint64_t sweeps() const {
    return sweeps_.load(std::memory_order_relaxed);
  }

 private:
  using Roster = std::vector<std::shared_ptr<Subscription>>;

  struct Shard {
    std::mutex mu;
    Roster subs;
    /// Copy-on-write snapshot of `subs` that sweeps walk unlocked;
    /// churn clears it and the next sweep rebuilds it.
    std::shared_ptr<const Roster> roster;
  };

  // Signaled under the fanout's waker mutex; safe, as the Wakeup's
  // mutex is a leaf lock (no worker holds it while touching Latest()).
  struct PoolWaker : SnapshotFanout::Waker {
    void Signal() override { wake.Notify(); }
    Wakeup wake;  // the workers park on it; Stop() stops it
  };

  void WorkerLoop(int worker_index);
  /// One pass over this worker's shard: deliver the latest snapshot to
  /// every live subscription that has not seen it yet.
  void SweepShard(Shard* shard, const service::SnapshotPtr& snapshot);

  SnapshotFanout* const fanout_;
  NetMetrics* const metrics_;
  obs::Tracer* const tracer_;
  const Options options_;
  PoolWaker waker_;

  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> next_shard_{0};

  std::vector<std::unique_ptr<Shard>> shards_;  // one per worker
  std::vector<std::thread> workers_;
};

}  // namespace mqpi::net
