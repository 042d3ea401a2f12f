// Shared driver for the Stream Concurrent Query (SCQ) experiments
// (Section 5.2.3, Figures 6-10).
//
// Setup per run: ten queries with N_i ~ Zipf(a=2.2) are running, each
// at a random point of its execution; new queries arrive as a Poisson
// process with rate lambda, drawn from the same mix. The run proceeds
// until all ten initial queries finish; their actual finish times are
// the ground truth for the estimates taken at time 0.
//
// The multi-query PI is admission-queue aware and uses a future model
// with rate lambda_used (which Figures 8-10 deliberately set != lambda)
// and the workload's exact average cost.
#pragma once

#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "pi/multi_query_pi.h"
#include "sim/runner.h"
#include "workload/arrival_schedule.h"

namespace mqpi::bench {

struct ScqConfig {
  double lambda = 0.0;        // true arrival rate
  double lambda_used = 0.0;   // rate the multi-query PI believes
  std::uint64_t seed = 1;
  /// Aggregate rate C; pick ~0.07 * avg_cost so the paper's stability
  /// knee at lambda ~= 0.07 lands inside the swept range.
  double rate = 55.0;
  int max_concurrent = 10;
  double quantum = 0.5;
  double noise_sigma = 0.25;
};

struct ScqRunResult {
  /// Relative errors of the time-0 estimates, one entry per initial
  /// query. `multi` is the full queue-aware PI; `blind` ignores the
  /// admission queue (sim::QueueBlindEta over the same PI; closest to
  /// the paper's setup, which had no admission limit and hence no queue
  /// to exploit).
  std::vector<double> single_errors;
  std::vector<double> multi_errors;
  std::vector<double> blind_errors;
  double last_single_error = 0.0;
  double last_multi_error = 0.0;
  double last_blind_error = 0.0;
};

/// Runs one SCQ instance. `fixture` must hold a Zipf(2.2) workload.
inline ScqRunResult RunScqOnce(WorkloadFixture* fixture,
                               const ScqConfig& config) {
  Rng rng(config.seed);

  sched::RdbmsOptions options;
  options.processing_rate = config.rate;
  options.max_concurrent = config.max_concurrent;
  options.quantum = config.quantum;
  options.cost_model.noise_sigma = config.noise_sigma;
  options.cost_model.noise_seed = rng.Next();
  sched::Rdbms db(&fixture->catalog, options);
  sim::SimulationRunner runner(&db);

  storage::BufferManager scratch;
  engine::Planner probe(&fixture->catalog, &scratch, {.noise_sigma = 0.0});

  // Ten initial queries at random execution points.
  std::vector<QueryId> initial;
  std::vector<double> true_remaining;
  QueryId last_finisher = kInvalidQueryId;
  double largest_remaining = -1.0;
  for (int i = 0; i < 10; ++i) {
    const int rank = fixture->workload->SampleRank(&rng);
    const double cost = *fixture->workload->TrueCostOfRank(&probe, rank);
    auto id = runner.SubmitNow(fixture->workload->SpecForRank(rank));
    const double fraction = rng.Uniform(0.0, 0.95);
    db.FastForward(*id, fraction * cost);
    initial.push_back(*id);
    true_remaining.push_back(cost * (1.0 - fraction));
    if (true_remaining.back() > largest_remaining) {
      largest_remaining = true_remaining.back();
      last_finisher = *id;
    }
  }

  // Poisson arrivals from the same mix, far beyond any plausible
  // completion horizon for the initial ten.
  const double horizon =
      40.0 * largest_remaining * 10.0 / options.processing_rate + 1000.0;
  for (const auto& arrival : workload::GeneratePoissonArrivals(
           *fixture->workload, config.lambda, horizon, &rng)) {
    runner.ScheduleArrival(arrival.time,
                           fixture->workload->SpecForRank(arrival.rank));
  }

  // Future model: believed rate lambda_used, exact average cost.
  const double avg_cost =
      *fixture->workload->AverageTrueCost(&probe);
  pi::FutureWorkloadModel future({.lambda = config.lambda_used,
                                  .avg_cost = avg_cost,
                                  .avg_weight = options.weights.WeightOf(
                                      Priority::kNormal)});
  pi::MultiQueryPi multi(&db, {}, &future);

  // Warm a short window so speeds and the measured rate exist, then
  // record the "time 0" estimates. Single-query speed is measured over
  // the whole warm window (per-quantum consumption is lumpy at operator
  // granularity). A query whose fair share is below one probe's cost
  // can legitimately show zero progress in the window — a real PI at
  // page granularity would still see its fair share, so fall back to
  // the per-query share of the measured aggregate rate.
  std::vector<double> warm_start_work;
  WorkUnits warm_start_total = 0.0;
  for (QueryId id : initial) {
    const double done = db.info(id)->completed_work;
    warm_start_work.push_back(done);
    warm_start_total += done;
  }
  const int warm_quanta = 24;
  const SimTime warm_span = warm_quanta * options.quantum;
  for (int i = 0; i < warm_quanta; ++i) {
    runner.StepFor(options.quantum);
    multi.ObserveStep();
  }
  const SimTime estimate_time = db.now();
  WorkUnits warm_end_total = 0.0;
  int still_running = 0;
  for (QueryId id : initial) {
    const auto info = *db.info(id);
    warm_end_total += info.completed_work;
    if (info.state == sched::QueryState::kRunning) ++still_running;
  }
  const double fair_share =
      still_running > 0
          ? (warm_end_total - warm_start_total) / warm_span /
                static_cast<double>(db.num_running())
          : 0.0;
  std::vector<double> single_est, multi_est, blind_est;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    const auto info = *db.info(initial[i]);
    if (info.state == sched::QueryState::kFinished) {
      single_est.push_back(0.0);
    } else {
      double speed = (info.completed_work - warm_start_work[i]) / warm_span;
      if (speed <= 0.0) speed = fair_share;
      single_est.push_back(speed > 0.0
                               ? info.estimated_remaining_cost / speed
                               : kInfiniteTime);
    }
    auto m = multi.EstimateRemainingTime(info);
    multi_est.push_back(m.ok() ? *m : kInfiniteTime);
    auto b = sim::QueueBlindEta(db, multi, info);
    blind_est.push_back(b.ok() ? *b : kInfiniteTime);
  }

  // Run to ground truth.
  runner.RunUntilFinished(initial);

  ScqRunResult result;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    const double actual =
        db.info(initial[i])->finish_time - estimate_time;
    if (actual <= 0.0) continue;  // finished before the estimate instant
    const double se = RelativeError(single_est[i], actual);
    const double me = RelativeError(multi_est[i], actual);
    const double be = RelativeError(blind_est[i], actual);
    result.single_errors.push_back(se);
    result.multi_errors.push_back(me);
    result.blind_errors.push_back(be);
    if (initial[i] == last_finisher) {
      result.last_single_error = se;
      result.last_multi_error = me;
      result.last_blind_error = be;
    }
  }
  return result;
}

}  // namespace mqpi::bench
