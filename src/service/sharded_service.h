// ShardedPiService: N independent PiService shards behind one
// coordinator.
//
// The scaling problem: one PiService is one ticker thread stepping one
// Rdbms, and the per-quantum cost is linear in the number of live
// queries. Past a few thousand concurrent queries the single scheduler
// is the bottleneck no matter how fast each estimate is. The fix is
// the classic one — partition tenants across N shards, each a full
// PiService of its own (Rdbms + MultiQueryPi + ticker, optionally
// core-pinned; its own metrics, flight recorder, fault scope and
// journal), and aggregate. Shards never talk to each other: all
// cross-shard state lives here, and it only ever reads the shards'
// immutable latest-snapshot pointers.
//
// Coordinator contract (the part that must not serialize the hot
// path):
//   - Shards publish independently. There is no coordinator lock on
//     any tick path; each shard's publish is the same pointer-swap +
//     O(1) hook it always was.
//   - The coordinator assembles the global view ON DEMAND from the
//     shards' immutable latest-snapshot pointers. The merge is cached
//     keyed on the exact pointer tuple it was built from: while no
//     shard publishes, GlobalSnapshot() returns the identical
//     shared_ptr (byte-stable by construction — the acceptance test
//     re-merges and compares wire encodings).
//   - Merged sequence = sum of shard sequences (monotone: every shard
//     publish bumps exactly one addend by one). Merged sim_time = max;
//     run/queue counts and measured rate are sums; quiescent ETA is
//     the max over busy shards of their *absolute* quiesce times,
//     re-expressed relative to the merged sim_time (kUnknown from any
//     busy shard poisons the merge to kUnknown; else any infinite
//     forecast makes it kInfiniteTime).
//
// Identity: global query id = (shard << 48) | shard-local id, and the
// same encoding for session ids inside merged snapshots. Shard 0's ids
// are unchanged, so a single-shard deployment is bit-for-bit the
// unsharded service. Because each shard's rows are sorted by local id,
// concatenating shards in order yields a globally sorted row vector —
// the merge is one O(total rows) pass, never a sort.
//
// Routing: FNV-1a over the session/tenant name, mod N. Deterministic
// and stateless — a reconnecting tenant lands on the same shard, and
// recovery can re-route the journaled session names identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "pi/multi_query_pi.h"
#include "service/metrics.h"
#include "service/pi_service.h"
#include "service/snapshot.h"

namespace mqpi::service {

// ---- global id space --------------------------------------------------------

/// Shard index lives in the top 16 bits; 48 bits of local id is ~10^14
/// queries per shard before wrap, far past any journal's horizon.
inline constexpr int kShardIdShift = 48;
inline constexpr std::uint64_t kShardLocalMask =
    (std::uint64_t{1} << kShardIdShift) - 1;

constexpr std::uint64_t GlobalId(int shard, std::uint64_t local) {
  return (static_cast<std::uint64_t>(shard) << kShardIdShift) |
         (local & kShardLocalMask);
}
constexpr int ShardOfGlobalId(std::uint64_t global) {
  return static_cast<int>(global >> kShardIdShift);
}
constexpr std::uint64_t LocalIdOf(std::uint64_t global) {
  return global & kShardLocalMask;
}

/// FNV-1a, the routing hash. Exposed so tests and the wire edge can
/// predict placements.
constexpr std::uint64_t RouteHash(std::string_view name) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct ShardedPiServiceOptions {
  int num_shards = 1;
  /// Template for every shard's PiService. Copied per shard; the
  /// per-shard hook below then customizes the copy (fault injector,
  /// event sink, pin CPU).
  PiServiceOptions shard;
  /// Pin shard i's ticker to CPU (i % hardware_concurrency). Overrides
  /// `shard.pin_cpu`. Best-effort — a failed pin is a metric bump.
  bool pin_cpus = false;
  /// Called with each shard's options copy before construction, so the
  /// owner can scope fault injectors / journals per shard.
  std::function<void(int shard, PiServiceOptions*)> per_shard;
};

class ShardedPiService {
 public:
  /// Owning construction: builds `num_shards` fresh shards.
  ShardedPiService(const storage::Catalog* catalog,
                   ShardedPiServiceOptions options);
  /// Adopting construction (recovery): borrows already-recovered
  /// services, one per shard (at least one), which must outlive the
  /// coordinator.
  explicit ShardedPiService(std::vector<PiService*> recovered);
  ~ShardedPiService();

  ShardedPiService(const ShardedPiService&) = delete;
  ShardedPiService& operator=(const ShardedPiService&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  PiService* shard_service(int i) {
    return shards_[static_cast<std::size_t>(i)];
  }
  const PiService* shard_service(int i) const {
    return shards_[static_cast<std::size_t>(i)];
  }

  // ---- routing --------------------------------------------------------------

  /// Deterministic tenant → shard placement.
  int Route(std::string_view tenant) const {
    return static_cast<int>(RouteHash(tenant) %
                            static_cast<std::uint64_t>(shards_.size()));
  }

  /// Opens a session on the routed shard; `*shard_out` (optional)
  /// receives the shard index the name hashed to.
  std::unique_ptr<Session> OpenSession(std::string name,
                                       int* shard_out = nullptr);

  // ---- global view ----------------------------------------------------------

  /// The merged global snapshot, assembled from the shards' latest
  /// pointers. Cached: identical shard latests return the identical
  /// merged pointer; any shard publish invalidates. Never null.
  SnapshotPtr GlobalSnapshot();

  /// Unconditionally rebuilds the merge from the current latests,
  /// bypassing the cache — the byte-stability differential probe.
  /// (Same latests must wire-encode identically to GlobalSnapshot().)
  SnapshotPtr MergeNow();

  /// §3 what-if routed by global id: every id in `scenario` and
  /// `target` must decode to the same shard (the engines are
  /// independent — a cross-shard scenario has no single forecast to
  /// evaluate, and is rejected with InvalidArgument).
  Result<SimTime> EstimateWhatIf(const pi::MultiQueryPi::WhatIf& scenario,
                                 std::uint64_t global_target);

  // ---- lifecycle ------------------------------------------------------------

  void Start();
  void Stop();
  /// True when every shard reached idle within the wall budget.
  bool WaitUntilIdle(double timeout_seconds);

  /// Coordinated graceful drain. All shards drain CONCURRENTLY — wall
  /// time is the max of the per-shard drains, not the sum (the
  /// regression test pins this) — then `goodbye` runs exactly once.
  struct DrainHooks {
    /// Per-shard flush (journal + final checkpoint); runs on the
    /// shard's drain thread.
    std::function<void(int shard)> flush;
    /// Runs once after every shard has drained.
    std::function<void()> goodbye;
  };
  Status Drain(const DrainHooks& hooks = {});
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Fleet liveness: per-shard verdicts plus the aggregate the
  /// /healthz endpoint keys on (healthy = no shard stalled).
  struct GlobalLiveness {
    bool any_stalled = false;
    int busy_shards = 0;
    std::vector<PiService::Liveness> shards;
  };
  GlobalLiveness CheckLiveness() const;

  /// Coordinator-scope instruments: coord.shards, coord.merge_ns,
  /// coord.merges, coord.rebalance_hints. Shard-scope metrics stay in
  /// each shard's own registry (shard_service(i)->metrics()).
  MetricsRegistry* metrics() { return &metrics_; }

 private:
  // Builds the merged snapshot from `latests` (one per shard, in
  // shard order). Pure function of its inputs — determinism is what
  // the byte-stability test leans on.
  std::shared_ptr<ProgressSnapshot> Merge(
      const std::vector<SnapshotPtr>& latests) const;

  // Shard i's service is shards_[i]; owned_ holds them when this
  // coordinator built them and is empty when it adopted recovered ones.
  std::vector<std::unique_ptr<PiService>> owned_;
  std::vector<PiService*> shards_;
  std::atomic<bool> draining_{false};

  // Merge cache: the latests tuple the cached merge was built from.
  // merge_mu_ is only ever held for pointer compares and the (rare)
  // rebuild — never on any shard's tick path.
  mutable std::mutex merge_mu_;
  std::vector<SnapshotPtr> merge_key_;
  SnapshotPtr merged_;

  MetricsRegistry metrics_;
  Gauge* shards_gauge_ = metrics_.gauge("coord.shards");
  Counter* merges_ = metrics_.counter("coord.merges");
  Counter* rebalance_hints_ = metrics_.counter("coord.rebalance_hints");
  Histogram* merge_ns_ = metrics_.histogram("coord.merge_ns");
};

}  // namespace mqpi::service
