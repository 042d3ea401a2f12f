#include "service/sharded_service.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "service/session.h"

namespace mqpi::service {

namespace {

// A shard with work in flight contributes to the global quiescence
// forecast; an idle shard (fresh, or fully drained) does not — its
// construction-time kUnknown must not poison a busy fleet's merge.
bool ShardBusy(const ProgressSnapshot& snap) {
  return snap.num_running + snap.num_queued + snap.num_blocked > 0;
}

}  // namespace

ShardedPiService::ShardedPiService(const storage::Catalog* catalog,
                                   ShardedPiServiceOptions options) {
  const int n = options.num_shards < 1 ? 1 : options.num_shards;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  owned_.reserve(static_cast<std::size_t>(n));
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    PiServiceOptions shard_options = options.shard;
    if (options.pin_cpus) {
      shard_options.pin_cpu = static_cast<int>(static_cast<unsigned>(i) % hw);
    }
    if (options.per_shard) options.per_shard(i, &shard_options);
    owned_.push_back(
        std::make_unique<PiService>(catalog, std::move(shard_options)));
    shards_.push_back(owned_.back().get());
  }
  shards_gauge_->Set(static_cast<double>(shards_.size()));
}

ShardedPiService::ShardedPiService(std::vector<PiService*> recovered)
    : shards_(std::move(recovered)) {
  shards_gauge_->Set(static_cast<double>(shards_.size()));
}

ShardedPiService::~ShardedPiService() { Stop(); }

std::unique_ptr<Session> ShardedPiService::OpenSession(std::string name,
                                                       int* shard_out) {
  const int shard = Route(name);
  if (shard_out != nullptr) *shard_out = shard;
  return shard_service(shard)->OpenSession(std::move(name));
}

SnapshotPtr ShardedPiService::GlobalSnapshot() {
  std::vector<SnapshotPtr> latests;
  latests.reserve(shards_.size());
  for (PiService* shard : shards_) latests.push_back(shard->snapshot());

  std::lock_guard<std::mutex> lock(merge_mu_);
  // shared_ptr equality is pointer equality: the cache hits exactly
  // when no shard has published since the last merge.
  if (merged_ != nullptr && latests == merge_key_) return merged_;

  const auto t0 = std::chrono::steady_clock::now();
  merged_ = Merge(latests);
  merge_key_ = std::move(latests);
  merges_->Increment();
  merge_ns_->Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));

  // Load-skew hint: a shard carrying more than double the mean live
  // load (with a +1 deadband so tiny fleets don't flap) suggests the
  // router's tenant mix has gone lopsided. The counter is the signal a
  // future rebalancer (ROADMAP) would consume.
  int total = 0;
  int busiest = 0;
  for (const ShardLoad& load : merged_->shard_loads) {
    const int busy = load.num_running + load.num_queued;
    total += busy;
    if (busy > busiest) busiest = busy;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_.size());
  if (shards_.size() > 1 && busiest > 2.0 * mean + 1.0) {
    rebalance_hints_->Increment();
  }
  return merged_;
}

SnapshotPtr ShardedPiService::MergeNow() {
  std::vector<SnapshotPtr> latests;
  latests.reserve(shards_.size());
  for (PiService* shard : shards_) latests.push_back(shard->snapshot());
  return Merge(latests);
}

std::shared_ptr<ProgressSnapshot> ShardedPiService::Merge(
    const std::vector<SnapshotPtr>& latests) const {
  auto out = std::make_shared<ProgressSnapshot>();
  std::size_t total_rows = 0;
  for (const SnapshotPtr& snap : latests) total_rows += snap->queries.size();
  out->queries.reserve(total_rows);
  out->shard_loads.reserve(latests.size());

  SimTime quiesce_abs = 0.0;
  bool quiesce_unknown = false;
  bool quiesce_infinite = false;
  bool any_busy = false;

  for (std::size_t i = 0; i < latests.size(); ++i) {
    const ProgressSnapshot& snap = *latests[i];
    const int shard = static_cast<int>(i);
    out->sequence += snap.sequence;
    if (snap.sim_time > out->sim_time) out->sim_time = snap.sim_time;
    out->num_running += snap.num_running;
    out->num_queued += snap.num_queued;
    out->num_blocked += snap.num_blocked;
    out->measured_rate += snap.measured_rate;
    if (snap.age_quanta > out->age_quanta) out->age_quanta = snap.age_quanta;
    out->degraded = out->degraded || snap.degraded;

    if (ShardBusy(snap)) {
      any_busy = true;
      if (snap.quiescent_eta < 0.0) {
        quiesce_unknown = true;  // kUnknown sentinel
      } else if (std::isinf(snap.quiescent_eta)) {
        quiesce_infinite = true;
      } else {
        const SimTime abs_eta = snap.sim_time + snap.quiescent_eta;
        if (abs_eta > quiesce_abs) quiesce_abs = abs_eta;
      }
    }

    for (const QueryProgress& q : snap.queries) {
      out->queries.push_back(q);
      QueryProgress& row = out->queries.back();
      row.id = GlobalId(shard, q.id);
      row.session_id = GlobalId(shard, q.session_id);
    }

    ShardLoad load;
    load.shard = shard;
    load.sequence = snap.sequence;
    load.sim_time = snap.sim_time;
    load.num_running = snap.num_running;
    load.num_queued = snap.num_queued;
    load.measured_rate = snap.measured_rate;
    load.quiescent_eta = snap.quiescent_eta;
    load.degraded = snap.degraded;
    out->shard_loads.push_back(load);
  }

  if (!any_busy) {
    out->quiescent_eta = 0.0;
  } else if (quiesce_unknown) {
    out->quiescent_eta = kUnknown;
  } else if (quiesce_infinite) {
    out->quiescent_eta = kInfiniteTime;
  } else {
    const SimTime rel = quiesce_abs - out->sim_time;
    out->quiescent_eta = rel > 0.0 ? rel : 0.0;
  }
  return out;
}

Result<SimTime> ShardedPiService::EstimateWhatIf(
    const pi::MultiQueryPi::WhatIf& scenario, std::uint64_t global_target) {
  const int shard = ShardOfGlobalId(global_target);
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("what-if target id names shard " +
                                   std::to_string(shard) + " of " +
                                   std::to_string(num_shards()));
  }
  pi::MultiQueryPi::WhatIf local;
  local.blocked.reserve(scenario.blocked.size());
  local.aborted.reserve(scenario.aborted.size());
  local.reweighted.reserve(scenario.reweighted.size());
  for (QueryId id : scenario.blocked) {
    if (ShardOfGlobalId(id) != shard) {
      return Status::InvalidArgument(
          "cross-shard what-if: blocked id on another shard");
    }
    local.blocked.push_back(LocalIdOf(id));
  }
  for (QueryId id : scenario.aborted) {
    if (ShardOfGlobalId(id) != shard) {
      return Status::InvalidArgument(
          "cross-shard what-if: aborted id on another shard");
    }
    local.aborted.push_back(LocalIdOf(id));
  }
  for (const auto& [id, weight] : scenario.reweighted) {
    if (ShardOfGlobalId(id) != shard) {
      return Status::InvalidArgument(
          "cross-shard what-if: reweighted id on another shard");
    }
    local.reweighted.emplace_back(LocalIdOf(id), weight);
  }
  return shard_service(shard)->EstimateWhatIf(local, LocalIdOf(global_target));
}

void ShardedPiService::Start() {
  for (PiService* shard : shards_) shard->Start();
}

void ShardedPiService::Stop() {
  for (PiService* shard : shards_) shard->Stop();
}

bool ShardedPiService::WaitUntilIdle(double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (PiService* shard : shards_) {
    const double remaining =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0.0) return false;
    if (!shard->WaitUntilIdle(remaining)) return false;
  }
  return true;
}

Status ShardedPiService::Drain(const DrainHooks& hooks) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("drain already in progress");
  }
  // One thread per shard: each shard's drain closes its own
  // admissions, flushes its own journal, and stops its own ticker.
  // Wall time is max(shard drains), which the regression test asserts.
  std::vector<Status> statuses(shards_.size());
  std::vector<std::thread> drains;
  drains.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    drains.emplace_back([this, &hooks, &statuses, i] {
      PiService::DrainHooks shard_hooks;
      if (hooks.flush) {
        const int shard = static_cast<int>(i);
        shard_hooks.flush = [&hooks, shard] { hooks.flush(shard); };
      }
      statuses[i] = shard_service(static_cast<int>(i))->Drain(shard_hooks);
    });
  }
  for (std::thread& t : drains) t.join();
  // Goodbye once, after every shard has flushed and stopped — the
  // network edge broadcasts it to all connections regardless of which
  // shard they were scoped to.
  if (hooks.goodbye) hooks.goodbye();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

ShardedPiService::GlobalLiveness ShardedPiService::CheckLiveness() const {
  GlobalLiveness global;
  global.shards.reserve(shards_.size());
  for (const PiService* shard : shards_) {
    global.shards.push_back(shard->CheckLiveness());
    const PiService::Liveness& live = global.shards.back();
    global.any_stalled = global.any_stalled || live.stalled();
    if (live.busy) ++global.busy_shards;
  }
  return global;
}

}  // namespace mqpi::service
