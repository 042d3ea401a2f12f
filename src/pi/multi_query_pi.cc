#include "pi/multi_query_pi.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/tracer.h"

namespace mqpi::pi {

namespace {
// Drift-repair tolerance: an engine-mirrored remaining cost may differ
// from the Rdbms's authoritative estimate by accumulated rounding of
// the proportional-progress bumps; anything beyond a few hundred ULP
// (operator-granularity overshoot, speed-multiplier perturbations,
// multi-quantum steps) is re-anchored with an O(log n) Update so fast-
// path estimates stay within float rounding of the simulator's.
constexpr double kDriftRelTolerance = 1e-9;

// Rate guardrail: the effective estimation rate never drops below
// this fraction of the configured rate. A measured rate at/below the
// floor (a collapse, a corrupted window, a denormal EWMA tail) would
// otherwise divide estimates toward infinity; the floor keeps every
// forecast finite and counts the clamp in rate_floor_hits().
constexpr double kMinRateFraction = 1e-3;
}  // namespace

MultiQueryPi::MultiQueryPi(const sched::Rdbms* db,
                           MultiQueryPiOptions options,
                           FutureWorkloadModel* future)
    : db_(db),
      options_(options),
      future_(future),
      tracer_(obs::GlobalTracer()),
      rate_(options.rate_alpha),
      last_observed_now_(db->now()),
      // Queries already in the system are current load, not
      // "arrivals"; only later submissions feed the future model.
      last_seen_id_(db->last_query_id()) {}

void MultiQueryPi::AttachLifecycleEvents(sched::Rdbms* db) {
  if (!MQPI_DCHECK(db == db_)) return;
  db->AddEventListener(
      [this](const sched::QueryEvent& event) { OnQueryEvent(event); });
}

void MultiQueryPi::OnQueryEvent(const sched::QueryEvent& event) {
  if (!options_.enable_incremental || !engine_synced_) return;
  const std::uint64_t db_structural = db_->structural_epoch();
  const std::uint64_t db_load = db_->load_epoch();
  // Continuity proof: this event's Emit bumped the structural epoch by
  // one, so the engine may absorb it as a delta only if it already
  // reflected everything before it. A gap means a masked structural
  // change (e.g. a surviving fast-forward, which re-anchors a cost
  // without emitting an event) — resync instead of guessing.
  if (engine_structural_epoch_ + 1 != db_structural) {
    engine_synced_ = false;
    return;
  }
  // The event also bumped the load epoch; if the engine was current on
  // that axis too, it stays current after the delta. Mid-quantum
  // events (a finish inside StepOnce, before ObserveStep applied the
  // quantum's progress bump) leave the load epoch stale on purpose so
  // estimates fall back until the bump lands.
  const bool was_current = engine_load_epoch_ + 1 == db_load;

  const sched::QueryInfo& info = event.info;
  Status applied = Status::OK();
  switch (event.kind) {
    case sched::QueryEventKind::kSubmitted:
      break;  // queued queries are not modelled; the gate handles them
    case sched::QueryEventKind::kStarted:
    case sched::QueryEventKind::kResumed:
      applied = engine_.Insert(info.id, info.estimated_remaining_cost,
                               info.weight);
      break;
    case sched::QueryEventKind::kBlocked:
    case sched::QueryEventKind::kFinished:
    case sched::QueryEventKind::kAborted:
      // Aborts/finishes can target queued queries the engine never
      // held; absence is not an error.
      if (engine_.Contains(info.id)) applied = engine_.Remove(info.id);
      break;
    case sched::QueryEventKind::kPriorityChanged:
      if (engine_.Contains(info.id)) {
        applied = engine_.Update(info.id, info.estimated_remaining_cost,
                                 info.weight);
      }
      break;
  }
  if (!applied.ok()) {
    engine_synced_ = false;  // impossible delta — let ObserveStep rebuild
    return;
  }
  engine_structural_epoch_ = db_structural;
  if (was_current) engine_load_epoch_ = db_load;
}

void MultiQueryPi::RebuildEngine(
    const std::vector<sched::QueryInfo>& running) {
  engine_.Clear();
  for (const auto& info : running) {
    const Status inserted = engine_.Insert(
        info.id, info.estimated_remaining_cost, info.weight);
    if (!inserted.ok()) {
      // Degenerate load (e.g. a non-positive weight) cannot be
      // mirrored; estimates stay on the simulator path, which reports
      // the condition properly.
      engine_.Clear();
      engine_synced_ = false;
      return;
    }
  }
  ++incremental_resyncs_;
  engine_synced_ = true;
  engine_structural_epoch_ = db_->structural_epoch();
  engine_load_epoch_ = db_->load_epoch();
}

void MultiQueryPi::SyncEngine(
    const std::vector<sched::QueryInfo>& running) {
  const std::uint64_t db_structural = db_->structural_epoch();
  const std::uint64_t db_load = db_->load_epoch();
  if (!engine_synced_ || engine_structural_epoch_ != db_structural ||
      engine_.size() != running.size()) {
    RebuildEngine(running);
    return;
  }
  if (engine_load_epoch_ == db_load) return;  // nothing moved

  // Progress-only epoch gap: every running query consumed w_i * dx of
  // work, so the whole quantum is one offset bump at
  // dx = total consumed / total weight.
  WorkUnits consumed = 0.0;
  double total_weight = 0.0;
  for (const auto& info : running) {
    consumed += info.consumed_last_step;
    total_weight += info.weight;
  }
  if (consumed > 0.0 && total_weight > 0.0) {
    engine_.Advance(consumed / total_weight);
  }

  // Drift repair: operator-granularity overshoot, perturbed per-query
  // speeds, or multi-quantum steps make the proportional bump inexact;
  // re-anchor any query whose mirrored cost left the tolerance band.
  // A negative mirror is always re-anchored: a query can stay running
  // for quanta at refined cost 0 (a debtor served last), the bump
  // carries it past its threshold, and a negative remainder would
  // shorten every later query's prefix sum. O(n) compares, O(log n)
  // per repaired query.
  for (const auto& info : running) {
    auto mirrored = engine_.CostOf(info.id);
    if (!mirrored.ok()) {
      RebuildEngine(running);  // membership mismatch — stale mirror
      return;
    }
    const WorkUnits authoritative = info.estimated_remaining_cost;
    const double scale = std::max(1.0, std::abs(authoritative));
    if (*mirrored < 0.0 ||
        std::abs(*mirrored - authoritative) > kDriftRelTolerance * scale) {
      const Status updated =
          engine_.Update(info.id, authoritative, info.weight);
      if (!updated.ok()) {
        engine_synced_ = false;
        return;
      }
    }
  }
  engine_load_epoch_ = db_load;
}

void MultiQueryPi::ObserveStep(
    const std::vector<sched::QueryInfo>& running) {
  const SimTime now = db_->now();
  const SimTime since = std::max(0.0, now - last_observed_now_);
  last_observed_now_ = now;

  if (fault_ != nullptr && fault_->enabled()) {
    if (fault_->ShouldFire(fault::kPiCacheInvalidate)) {
      // Forced invalidation is a correctness no-op by construction:
      // the next estimate recomputes from the same inputs and must be
      // byte-identical (the chaos soak cross-checks this).
      cache_valid_ = false;
      base_valid_ = false;
      cache_forecast_.reset();
    }
    const auto corrupt = fault_->Evaluate(fault::kPiWindowCorrupt);
    if (corrupt.fired) window_consumed_ = corrupt.value;
  }

  // Accumulate consumption across running queries; emit one rate
  // sample per full window (per-quantum totals are too noisy because
  // operators overshoot their budget by up to one probe).
  WorkUnits consumed = 0.0;
  SimTime dt = 0.0;
  for (const auto& info : running) {
    consumed += info.consumed_last_step;
    dt = std::max(dt, info.last_step_duration);
  }
  if (dt > 0.0 && !running.empty()) {
    idle_elapsed_ = 0.0;
    window_consumed_ += consumed;
    window_elapsed_ += dt;
    if (window_elapsed_ + kTimeEpsilon >= options_.rate_window) {
      const double sample = window_consumed_ / window_elapsed_;
      // Guardrail: a corrupted accumulator (NaN, negative) or a fully
      // stalled window (zero consumption while queries nominally ran)
      // must not poison the EWMA — division by a ~zero smoothed rate
      // is how inf estimates are born. Reject the sample and keep the
      // last credible measurement instead.
      if (std::isfinite(sample) && sample > 0.0) {
        rate_.Observe(sample);
      } else {
        ++corrupt_rate_samples_;
      }
      window_consumed_ = 0.0;
      window_elapsed_ = 0.0;
    }
  } else {
    // Idle (or blocked-only) quantum. Drop the partial window — the
    // pre-gap fragment would otherwise be silently concatenated with
    // post-gap consumption into one "window" spanning the gap — and
    // once the system has been idle for at least a full rate window,
    // flush the smoothed rate too: whatever speed was measured before
    // the gap describes a workload that no longer exists.
    window_consumed_ = 0.0;
    window_elapsed_ = 0.0;
    idle_elapsed_ += since;
    if (rate_.has_value() &&
        idle_elapsed_ + kTimeEpsilon >= options_.rate_window) {
      rate_.Reset();
    }
  }

  // Primary engine sync point: structural drift rebuilds, a plain
  // quantum is one O(1) virtual-time bump (+ drift repair). Reuses the
  // `running` infos already fetched for the rate measurement.
  if (options_.enable_incremental) SyncEngine(running);

  // Arrivals for the future model: the ids issued since the watermark
  // (dense, so no walk over the query history).
  if (future_ != nullptr) {
    for (; last_seen_id_ < db_->last_query_id(); ++last_seen_id_) {
      auto info = db_->info(last_seen_id_ + 1);
      if (!MQPI_DCHECK(info.ok())) continue;
      future_->ObserveArrival(info->arrival_time, info->optimizer_cost,
                              info->weight);
    }
    future_->ObserveElapsed(now);
  }
}

double MultiQueryPi::estimated_rate() const {
  const double configured = db_->options().processing_rate;
  // The floor keeps the estimation rate strictly positive and finite
  // even when the measured rate collapses to zero/denormal or the
  // configured rate itself is degenerate.
  const double floor = std::max(configured * kMinRateFraction, 1e-12);
  const double rate = rate_.has_value() ? rate_.value() : configured;
  if (!std::isfinite(rate) || rate < floor) {
    ++rate_floor_hits_;
    return floor;
  }
  return rate;
}

SimTime MultiQueryPi::SanitizeEta(SimTime eta) const {
  if (std::isnan(eta) || (eta < 0.0 && eta != kUnknown)) {
    ++degraded_estimates_;
    return kUnknown;
  }
  return eta;
}

MultiQueryPi::CacheKey MultiQueryPi::CurrentKey() const {
  CacheKey key;
  key.load_epoch = db_->load_epoch();
  key.rate = estimated_rate();
  if (future_ != nullptr) key.future = future_->Current();
  return key;
}

const MultiQueryPi::BaseLoad& MultiQueryPi::SnapshotBaseLoad() const {
  const std::uint64_t epoch = db_->load_epoch();
  if (base_valid_ && base_epoch_ == epoch) return base_;
  base_.running.clear();
  base_.queued.clear();
  for (const auto& info : db_->RunningQueries()) {
    base_.running.push_back(
        QueryLoad{info.id, info.estimated_remaining_cost, info.weight});
  }
  for (const auto& info : db_->QueuedQueries()) {
    base_.queued.push_back(
        QueryLoad{info.id, info.estimated_remaining_cost, info.weight});
  }
  base_epoch_ = epoch;
  base_valid_ = true;
  return base_;
}

AnalyticModelOptions MultiQueryPi::ModelOptions() const {
  AnalyticModelOptions model;
  model.rate = estimated_rate();
  model.max_concurrent = db_->options().max_concurrent;
  model.horizon = options_.horizon;
  model.max_events = options_.max_events;
  if (future_ != nullptr) {
    const FutureWorkloadEstimate est = future_->Current();
    if (est.lambda > 0.0 && est.avg_cost > 0.0) {
      model.virtual_interval = 1.0 / est.lambda;
      model.virtual_cost = est.avg_cost;
      model.virtual_weight = est.avg_weight;
    }
  }
  return model;
}

Result<std::shared_ptr<const ForecastResult>>
MultiQueryPi::ComputeBaseForecast() const {
  const BaseLoad& base = SnapshotBaseLoad();
  ++cache_misses_;
  obs::TraceSpan span(tracer_, "pi", "forecast");
  span.arg("n", static_cast<double>(base.running.size() +
                                    base.queued.size()));
  span.arg("epoch", static_cast<double>(base_epoch_));
  auto forecast =
      AnalyticSimulator::Forecast(base.running, base.queued, {},
                                  ModelOptions());
  if (!forecast.ok()) return forecast.status();
  return std::make_shared<const ForecastResult>(*std::move(forecast));
}

Result<std::shared_ptr<const ForecastResult>> MultiQueryPi::ForecastShared()
    const {
  if (!options_.enable_forecast_cache) return ComputeBaseForecast();
  const CacheKey key = CurrentKey();
  if (cache_valid_ && key == cache_key_) {
    ++cache_hits_;
    if (!cache_status_.ok()) return cache_status_;
    return cache_forecast_;
  }
  auto forecast = ComputeBaseForecast();
  cache_key_ = key;
  cache_valid_ = true;
  if (forecast.ok()) {
    cache_status_ = Status::OK();
    cache_forecast_ = *forecast;
  } else {
    cache_status_ = forecast.status();
    cache_forecast_.reset();
  }
  return forecast;
}

Result<ForecastResult> MultiQueryPi::ForecastAll() const {
  auto forecast = ForecastShared();
  if (!forecast.ok()) return forecast.status();
  return **forecast;
}

Result<ForecastResult> MultiQueryPi::ForecastWhatIf(
    const WhatIf& scenario) const {
  if (scenario.blocked.empty() && scenario.aborted.empty() &&
      scenario.reweighted.empty()) {
    // The empty scenario IS the base forecast — share the cache.
    return ForecastAll();
  }

  // Lookup structures built once per scenario, not scanned per query.
  std::unordered_set<QueryId> removed;
  removed.reserve(scenario.blocked.size() + scenario.aborted.size());
  removed.insert(scenario.blocked.begin(), scenario.blocked.end());
  removed.insert(scenario.aborted.begin(), scenario.aborted.end());
  std::unordered_map<QueryId, double> reweighted(
      scenario.reweighted.begin(), scenario.reweighted.end());

  auto apply = [&](const std::vector<QueryLoad>& loads,
                   std::vector<QueryLoad>* out) {
    out->reserve(loads.size());
    for (const QueryLoad& load : loads) {
      if (removed.count(load.id) != 0) continue;
      auto weight = reweighted.find(load.id);
      out->push_back(weight == reweighted.end()
                         ? load
                         : QueryLoad{load.id, load.remaining_cost,
                                     weight->second});
    }
  };

  const BaseLoad& base = SnapshotBaseLoad();
  std::vector<QueryLoad> running;
  std::vector<QueryLoad> queued;
  apply(base.running, &running);
  apply(base.queued, &queued);

  ++whatif_forecasts_;
  obs::TraceSpan span(tracer_, "pi", "forecast_whatif");
  span.arg("n", static_cast<double>(running.size() + queued.size()));
  return AnalyticSimulator::Forecast(running, queued, {}, ModelOptions());
}

bool MultiQueryPi::FastPathReady() const {
  if (!options_.enable_incremental || !engine_synced_) return false;
  // The engine must mirror the Rdbms exactly: structural epoch for the
  // membership/weights, load epoch for the quantum's progress bump.
  if (engine_structural_epoch_ != db_->structural_epoch() ||
      engine_load_epoch_ != db_->load_epoch()) {
    return false;
  }
  // A non-empty admission queue means future admissions the closed
  // form does not model (the simulator replays them instead).
  if (db_->num_queued() > 0) return false;
  // The simulator truncates at max_events / horizon; stay on its
  // exact regime so both paths agree bit-for-bit (modulo rounding).
  if (engine_.size() > options_.max_events) return false;
  const SimTime quiescent = engine_.QuiescentTime(estimated_rate());
  if (quiescent > options_.horizon) return false;
  // A virtual (Section 2.4) arrival due before the system quiesces
  // would join the modelled load mid-forecast — simulator territory.
  if (future_ != nullptr) {
    const FutureWorkloadEstimate est = future_->Current();
    if (est.lambda > 0.0 && est.avg_cost > 0.0 &&
        quiescent + kTimeEpsilon >= 1.0 / est.lambda) {
      return false;
    }
  }
  return true;
}

Result<SimTime> MultiQueryPi::EstimateRemainingTime(
    const sched::QueryInfo& info) const {
  switch (info.state) {
    case sched::QueryState::kFinished:
      return 0.0;
    case sched::QueryState::kAborted:
      return 0.0;
    case sched::QueryState::kBlocked:
      return kInfiniteTime;  // no progress while blocked
    case sched::QueryState::kQueued:
      break;
    case sched::QueryState::kRunning:
      if (FastPathReady()) {
        auto eta = engine_.RemainingTime(info.id, estimated_rate());
        if (eta.ok()) {
          ++incremental_fast_path_;
          return SanitizeEta(*eta);
        }
        // Unknown to the mirror (shouldn't happen while synced) —
        // the simulator path below reports it authoritatively.
      }
      break;
  }
  if (options_.enable_incremental) ++incremental_fallback_;
  auto forecast = ForecastShared();
  if (!forecast.ok()) return forecast.status();
  auto eta = (*forecast)->FinishTimeOf(info.id);
  if (!eta.ok()) return eta.status();
  return SanitizeEta(*eta);
}

Result<MultiQueryPi::BatchEstimates> MultiQueryPi::EstimateAllRunning()
    const {
  if (!FastPathReady()) {
    return Status::FailedPrecondition(
        "incremental fast path not ready; estimate per row");
  }
  const BatchEstimateKernel::Batch batch =
      kernel_.EstimateAll(engine_, estimated_rate());
  // Every row is an engine-served estimate, same as n fast-path point
  // queries would have been. No per-row SanitizeEta pass: the sweep
  // clamps at zero and its inputs are finite (the engine validates
  // cost/weight, estimated_rate() is floored), so sanitization would
  // be a no-op on every row.
  incremental_fast_path_ += batch.size;
  return BatchEstimates{batch.ids, batch.etas, batch.size};
}

Result<SimTime> MultiQueryPi::QuiescentEta() const {
  if (FastPathReady()) {
    ++incremental_fast_path_;
    return SanitizeEta(engine_.QuiescentTime(estimated_rate()));
  }
  if (options_.enable_incremental) ++incremental_fallback_;
  auto forecast = ForecastShared();
  if (!forecast.ok()) return forecast.status();
  return SanitizeEta((*forecast)->quiescent_time());
}

Result<SimTime> MultiQueryPi::EstimateWhatIf(const WhatIf& scenario,
                                             QueryId target) const {
  // Pure-removal scenarios compose from exactly additive point
  // queries: removing victims never changes the survivors' finish
  // thresholds, so r' = r - sum of per-victim benefits (§3.1).
  // Reweights would reorder thresholds — those run the simulator.
  if (scenario.reweighted.empty() && FastPathReady()) {
    std::unordered_set<QueryId> removed;
    removed.reserve(scenario.blocked.size() + scenario.aborted.size());
    removed.insert(scenario.blocked.begin(), scenario.blocked.end());
    removed.insert(scenario.aborted.begin(), scenario.aborted.end());
    if (removed.count(target) == 0) {
      const double rate = estimated_rate();
      auto eta = engine_.RemainingTime(target, rate);
      if (eta.ok()) {
        SimTime remaining = *eta;
        bool composed = true;
        for (QueryId victim : removed) {
          if (!engine_.Contains(victim)) continue;  // like ForecastWhatIf
          auto benefit = engine_.RemovalBenefit(target, victim, rate);
          if (!benefit.ok()) {
            composed = false;
            break;
          }
          remaining -= *benefit;
        }
        if (composed) {
          ++incremental_fast_path_;
          return SanitizeEta(std::max(0.0, remaining));
        }
      }
      // Target or a victim eluded the mirror — simulate instead.
    } else {
      return Status::NotFound("query " + std::to_string(target) +
                              " not in forecast");
    }
  }
  if (options_.enable_incremental) ++incremental_fallback_;
  auto forecast = ForecastWhatIf(scenario);
  if (!forecast.ok()) return forecast.status();
  auto eta = forecast->FinishTimeOf(target);
  if (!eta.ok()) return eta.status();
  return SanitizeEta(*eta);
}

Result<SimTime> MultiQueryPi::EstimateRemainingTime(QueryId id) const {
  auto info = db_->info(id);
  if (!info.ok()) return info.status();
  return EstimateRemainingTime(*info);
}

}  // namespace mqpi::pi
