// MultiQueryPi: the paper's contribution.
//
// When estimating the remaining execution time of a query, the
// multi-query PI explicitly models
//   (1) every other running query — their remaining costs and priority
//       weights, via the staged execution model of Section 2.2,
//   (2) queries waiting in the admission queue — known future load
//       (Section 2.3), and
//   (3) predicted future arrivals — a virtual query of average cost and
//       priority every 1/lambda seconds (Section 2.4).
//
// The PI consumes only legal observables from the Rdbms: per-query
// refined remaining-cost estimates, priority weights, the admission
// queue contents, and the processing rate it measures itself from
// per-step consumption (so perturbations that violate Assumption 1 are
// felt through the measurement, exactly as a deployed PI would).
//
// Estimation cost: the paper computes all n remaining times in one
// O(n log n) simulation (Section 2.2). To keep per-query estimate
// calls at that aggregate cost, the PI memoizes the last full
// ForecastResult keyed on {Rdbms load epoch, measured rate,
// future-model estimate} and reuses it until the key changes — so the
// n per-query calls a sampler or dashboard issues within one quantum
// collapse to a single simulation, and the what-if forecaster builds
// its scenarios from the same cached base load snapshot. The cache is
// exact, never heuristic: any load-relevant transition bumps the epoch
// (see sched::Rdbms::load_epoch) and forces a fresh simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "pi/analytic_simulator.h"
#include "pi/batch_kernel.h"
#include "pi/future_model.h"
#include "pi/incremental_forecast.h"
#include "sched/rdbms.h"

namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault

namespace mqpi::pi {

struct MultiQueryPiOptions {
  /// Fold the admission queue into the forecast (Section 2.3). Off
  /// reproduces the "multi-query estimate without considering admission
  /// queue" curve of Figure 5.
  bool consider_admission_queue = true;
  /// EWMA weight for the measured aggregate rate.
  double rate_alpha = 0.2;
  /// Span of simulated seconds per aggregate-rate sample. Operator
  /// granularity makes per-quantum totals noisy (budget overshoot), so
  /// the rate is measured over whole windows before smoothing.
  SimTime rate_window = 5.0;
  /// Memoize the last full forecast (see the header comment). Disable
  /// only to cross-check cache coherence in tests and benches; the
  /// cached and uncached estimates are identical by construction.
  bool enable_forecast_cache = true;
  /// Serve steady-state estimates from the incremental virtual-time
  /// engine (O(log n) per estimate, no event replay) whenever the
  /// fast-path preconditions hold — see EstimateRemainingTime. The
  /// fallback is the analytic simulator above; both paths agree within
  /// float rounding (chaos-verified). Disable only to pin the
  /// simulator path in tests and benches.
  bool enable_incremental = true;
  /// Analytic-model safety limits (rate and virtual stream are filled
  /// in per forecast).
  SimTime horizon = 1e7;
  std::size_t max_events = 4'000'000;
};

class MultiQueryPi {
 public:
  /// `db` must outlive the PI. `future` is optional (Section 2.4);
  /// nullptr means no arrival forecasting. The model is not owned.
  MultiQueryPi(const sched::Rdbms* db, MultiQueryPiOptions options = {},
               FutureWorkloadModel* future = nullptr);

  /// Subscribes the PI to `db`'s lifecycle event stream (must be the
  /// same Rdbms the PI was constructed over) so the incremental engine
  /// absorbs arrivals/finishes/aborts/reweights as O(log n) deltas
  /// instead of resynchronizing each quantum. Optional: without it the
  /// engine still resyncs from ObserveStep whenever the structural
  /// epoch moves. The PI must outlive any stepping of `db` once
  /// attached.
  void AttachLifecycleEvents(sched::Rdbms* db);

  /// Samples the system after each scheduler step: measures the
  /// aggregate processing rate and feeds the queries submitted since
  /// the last call to the future-workload model. Idle quanta reset the
  /// partially filled rate window (a pre-gap partial window must not
  /// be concatenated with post-gap samples), and an idle stretch of at
  /// least one full rate window flushes the smoothed rate entirely so
  /// post-idle forecasts restart from the configured rate instead of
  /// a stale pre-idle measurement. `running` must be this quantum's
  /// db->RunningQueries(); PiManager fetches it once for both PIs.
  void ObserveStep(const std::vector<sched::QueryInfo>& running);
  void ObserveStep() { ObserveStep(db_->RunningQueries()); }

  /// Predicted remaining execution time of `id` (0 if finished,
  /// kInfiniteTime if blocked or unbounded).
  Result<SimTime> EstimateRemainingTime(QueryId id) const;

  /// Same, for a caller that already holds the query's info — the
  /// batched path used by snapshot builds and trace sampling (no
  /// per-call Rdbms::info lookup). When the incremental fast path is
  /// available — engine synchronized with the Rdbms epochs, admission
  /// queue empty (or ignored), no virtual arrival due before the
  /// system quiesces, everything inside the horizon — a running
  /// query's estimate is an O(log n) closed-form point query with no
  /// simulation at all; otherwise it falls back to the (cached)
  /// analytic simulator. The split is observable via
  /// incremental_fast_path() / incremental_fallback().
  Result<SimTime> EstimateRemainingTime(const sched::QueryInfo& info) const;

  /// Estimated time until the system quiesces (last tracked query
  /// finishes; Section 3.3). O(1) on the fast path.
  Result<SimTime> QuiescentEta() const;

  /// Batch estimate: the remaining time of EVERY running query in one
  /// O(n) flat-SoA sweep (batch_kernel.h) instead of n O(log n) treap
  /// probes — the snapshot builder's per-quantum hot path. Available
  /// only when the incremental fast path is up (same preconditions as
  /// EstimateRemainingTime's engine route; FailedPrecondition
  /// otherwise, and the caller falls back to per-row estimates). The
  /// returned views are sorted by ascending id and remain valid until
  /// the next PI call — consume them under the same external lock.
  /// Counted per call in batch_kernel_hits()/batch_kernel_regens()
  /// and per row in incremental_fast_path().
  struct BatchEstimates {
    const QueryId* ids = nullptr;
    const SimTime* etas = nullptr;
    std::size_t size = 0;
  };
  Result<BatchEstimates> EstimateAllRunning() const;

  /// Full forecast for all running + queued queries.
  Result<ForecastResult> ForecastAll() const;

  /// ForecastAll without copying the result out: the cached (or
  /// freshly computed) forecast, shared. Snapshot builders that probe
  /// many ids against one forecast use this.
  Result<std::shared_ptr<const ForecastResult>> ForecastShared() const;

  /// What-if analysis: hypothetical workload-management actions applied
  /// to the forecast without touching the system. Queries in `blocked`
  /// or `aborted` are removed from the modelled load; `reweighted`
  /// entries (id -> new weight) model priority changes. The PI data
  /// this uses is identical to ForecastAll's: scenarios are built from
  /// the cached base load snapshot, so a WLM fan-out evaluating many
  /// scenarios walks the Rdbms query tables once per epoch, not once
  /// per scenario.
  struct WhatIf {
    std::vector<QueryId> blocked;
    std::vector<QueryId> aborted;
    std::vector<std::pair<QueryId, double>> reweighted;
  };
  Result<ForecastResult> ForecastWhatIf(const WhatIf& scenario) const;

  /// Point what-if: `target`'s remaining time under `scenario`,
  /// without materializing a full forecast. On the fast path a
  /// pure-removal scenario is answered from the engine's exactly
  /// additive O(log n) removal-benefit queries — a WLM fan-out over n
  /// candidate victims costs O(n log n) instead of n full simulations
  /// (O(n^2 log n)). Scenarios that reweight queries (or any
  /// fallback) run one simulator what-if. Ids absent from the
  /// modelled load are ignored, like ForecastWhatIf; NotFound if
  /// `target` itself is removed or absent.
  Result<SimTime> EstimateWhatIf(const WhatIf& scenario,
                                 QueryId target) const;

  /// The measured aggregate rate C (falls back to the configured rate
  /// until a measurement exists).
  double estimated_rate() const;

  FutureWorkloadModel* future_model() { return future_; }

  const MultiQueryPiOptions& options() const { return options_; }

  /// Forecast-cache statistics: a hit is an estimate served from the
  /// memoized forecast, a miss is a full analytic simulation (the
  /// steady state is <= 1 miss per quantum). What-if scenario
  /// simulations are counted separately.
  std::uint64_t forecast_cache_hits() const { return cache_hits_; }
  std::uint64_t forecast_cache_misses() const { return cache_misses_; }
  std::uint64_t whatif_forecasts() const { return whatif_forecasts_; }

  /// Incremental-engine statistics: estimates served by the O(log n)
  /// closed form,
  std::uint64_t incremental_fast_path() const {
    return incremental_fast_path_;
  }
  /// engine-eligible estimates that had to fall back to the analytic
  /// simulator (preconditions not met or engine out of sync),
  std::uint64_t incremental_fallback() const {
    return incremental_fallback_;
  }
  /// and full O(n log n) engine rebuilds (structural resyncs).
  std::uint64_t incremental_resyncs() const {
    return incremental_resyncs_;
  }

  /// Batch-kernel statistics: estimate-all sweeps served from a
  /// current SoA mirror (progress-only quanta),
  std::uint64_t batch_kernel_hits() const { return kernel_.hits(); }
  /// and mirror regenerations (structural epochs). In the steady
  /// state hits grow once per snapshot and regens not at all.
  std::uint64_t batch_kernel_regens() const { return kernel_.regens(); }

  /// Attaches a chaos harness (nullptr detaches; not owned). Armed
  /// `pi.*` points fire inside ObserveStep: forced cache invalidation
  /// and measurement-window corruption.
  void SetFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Degradation accounting, for the service's `pi.*` metrics:
  /// times the rate floor (0.1% of the configured rate) had to clamp
  /// the measured rate,
  std::uint64_t rate_floor_hits() const { return rate_floor_hits_; }
  /// rate-window samples rejected as non-finite or non-positive
  /// (injected corruption, stalled windows),
  std::uint64_t corrupt_rate_samples() const {
    return corrupt_rate_samples_;
  }
  /// and estimates that came back NaN/negative from the model and were
  /// degraded to kUnknown instead of being propagated.
  std::uint64_t degraded_estimates() const { return degraded_estimates_; }

 private:
  /// The base (no-scenario) load vectors, rebuilt only when the Rdbms
  /// load epoch moves.
  struct BaseLoad {
    std::vector<QueryLoad> running;
    std::vector<QueryLoad> queued;
  };

  /// Everything a cached forecast's validity depends on beyond the
  /// load vectors themselves.
  struct CacheKey {
    std::uint64_t load_epoch = 0;
    double rate = 0.0;
    FutureWorkloadEstimate future;

    bool operator==(const CacheKey& other) const {
      return load_epoch == other.load_epoch && rate == other.rate &&
             future.lambda == other.future.lambda &&
             future.avg_cost == other.future.avg_cost &&
             future.avg_weight == other.future.avg_weight;
    }
  };

  CacheKey CurrentKey() const;
  /// Lifecycle-event hook: absorbs one Rdbms event into the engine as
  /// an O(log n) delta when epoch continuity proves the engine was
  /// current up to this event; otherwise marks it for resync.
  void OnQueryEvent(const sched::QueryEvent& event);
  /// ObserveStep's engine maintenance: rebuilds on structural drift,
  /// else applies the quantum's progress as one O(1) virtual-time bump
  /// plus targeted drift repair against the authoritative infos.
  void SyncEngine(const std::vector<sched::QueryInfo>& running);
  /// Full O(n log n) rebuild from the running set.
  void RebuildEngine(const std::vector<sched::QueryInfo>& running);
  /// Whether a running query's estimate may be served from the engine
  /// right now (see EstimateRemainingTime).
  bool FastPathReady() const;
  /// Estimate guardrail: NaN or negative model output degrades to
  /// kUnknown (counted); finite non-negative values and the legitimate
  /// kInfiniteTime sentinel pass through.
  SimTime SanitizeEta(SimTime eta) const;
  /// Refreshes `base_` if the load epoch moved, then returns it.
  const BaseLoad& SnapshotBaseLoad() const;
  /// Model options with the measured rate and virtual stream filled in.
  AnalyticModelOptions ModelOptions() const;
  /// Runs one full simulation over the cached base load.
  Result<std::shared_ptr<const ForecastResult>> ComputeBaseForecast() const;

  const sched::Rdbms* db_;
  MultiQueryPiOptions options_;
  FutureWorkloadModel* future_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  fault::FaultInjector* fault_ = nullptr;  // optional chaos harness
  Ewma rate_;
  WorkUnits window_consumed_ = 0.0;
  SimTime window_elapsed_ = 0.0;
  SimTime idle_elapsed_ = 0.0;  // consecutive idle time observed
  SimTime last_observed_now_ = 0.0;
  QueryId last_seen_id_;  // newest id already fed to the future model

  // Memoization state. Mutable: estimate entry points are logically
  // const reads. The PI shares the Rdbms's external-synchronization
  // contract (PiService serializes both under one lock), so no
  // internal locking is needed.
  mutable std::uint64_t base_epoch_ = 0;
  mutable bool base_valid_ = false;
  mutable BaseLoad base_;
  mutable bool cache_valid_ = false;
  mutable CacheKey cache_key_;
  mutable Status cache_status_;
  mutable std::shared_ptr<const ForecastResult> cache_forecast_;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
  mutable std::uint64_t whatif_forecasts_ = 0;
  mutable std::uint64_t rate_floor_hits_ = 0;
  mutable std::uint64_t degraded_estimates_ = 0;
  std::uint64_t corrupt_rate_samples_ = 0;

  // Incremental engine state. The engine mirrors the *running* set
  // (queued queries gate the fast path instead of being modelled);
  // engine_*_epoch_ record the Rdbms epochs the mirror reflects, and
  // engine_synced_ goes false whenever continuity is lost (repaired by
  // the next ObserveStep's rebuild). Mutable: estimates are logically
  // const reads; same external-synchronization contract as the cache.
  mutable IncrementalForecast engine_;
  // Flat SoA mirror of engine_ for estimate-all sweeps; keyed on the
  // engine's structure_version, regenerated lazily inside
  // EstimateAllRunning. Same synchronization contract as the engine.
  mutable BatchEstimateKernel kernel_;
  bool engine_synced_ = false;
  std::uint64_t engine_structural_epoch_ = 0;
  std::uint64_t engine_load_epoch_ = 0;
  mutable std::uint64_t incremental_fast_path_ = 0;
  mutable std::uint64_t incremental_fallback_ = 0;
  mutable std::uint64_t incremental_resyncs_ = 0;
};

}  // namespace mqpi::pi
