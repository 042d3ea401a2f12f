// SimulationRunner: drives one Rdbms scenario — submits scheduled
// arrivals on time, steps the clock quantum by quantum, feeds an
// optional PiManager after every quantum, and records when each query
// finishes. Ground-truth remaining times for accuracy experiments come
// from these recorded finish times.
//
// With a PiManager attached it also records estimate traces for the
// queries passed to Track() — the instrumentation behind Figures 3-5
// (estimated remaining time / observed speed as functions of time) —
// optionally beside a queue-blind multi-query PI (Figure 5's middle
// curve). Traces are experiment output; the serving PI keeps none.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "engine/planner.h"
#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "workload/zipf_workload.h"

namespace mqpi::sim {

struct EstimateSample {
  SimTime time = 0.0;
  /// Single-query PI estimate (t = c/s).
  SimTime single = kUnknown;
  /// Multi-query PI estimate (queue-aware if configured).
  SimTime multi = kUnknown;
  /// Multi-query estimate ignoring the admission queue (Figure 5's
  /// middle curve); kUnknown unless the variant is enabled.
  SimTime multi_no_queue = kUnknown;
  /// Smoothed observed execution speed of the query (U/s) — Figure 4.
  double speed = 0.0;
};

struct RecordingOptions {
  /// Gap between recorded samples (simulated seconds).
  SimTime sample_interval = 1.0;
  /// Also maintain a queue-blind multi-query PI for comparison.
  bool record_queue_blind_variant = false;
};

struct PendingArrival {
  SimTime time = 0.0;
  engine::QuerySpec spec;
  Priority priority = Priority::kNormal;
};

class SimulationRunner {
 public:
  /// `db` required; `pis` optional (may be nullptr). Both must outlive
  /// the runner, and the runner must outlive any stepping of `db` once
  /// the queue-blind variant is on (it listens to `db`'s events).
  /// `recording` applies only when `pis` is set.
  SimulationRunner(sched::Rdbms* db, pi::PiManager* pis = nullptr,
                   RecordingOptions recording = {});

  /// Registers a future arrival; must not be in the past.
  void ScheduleArrival(SimTime time, engine::QuerySpec spec,
                       Priority priority = Priority::kNormal);

  /// Submits a query right now (bypassing the schedule).
  Result<QueryId> SubmitNow(const engine::QuerySpec& spec,
                            Priority priority = Priority::kNormal);

  /// Steps for `dt` simulated seconds (quantum granularity), submitting
  /// due arrivals, feeding the PIs and recording due trace samples.
  void StepFor(SimTime dt);

  /// Starts recording the trace of `id` (a PiManager is required;
  /// it already observes every query). Samples due before the first
  /// Track() call are absent from the trace.
  void Track(QueryId id);

  /// The recorded trace of a tracked query (empty if never sampled).
  /// Each trace ends at its query's completion.
  const std::vector<EstimateSample>& Trace(QueryId id) const;

  /// Steps until every query in `watch` reaches a terminal state or
  /// `deadline` passes. Returns the final simulated time.
  SimTime RunUntilFinished(const std::vector<QueryId>& watch,
                           SimTime deadline = kInfiniteTime);

  /// Steps until the whole system is idle (no running or queued work
  /// and no pending scheduled arrivals), or `deadline`.
  SimTime RunUntilIdle(SimTime deadline = kInfiniteTime);

  /// Finish (or abort) time of a query, kUnknown if still live.
  SimTime FinishTimeOf(QueryId id) const;

  /// All ids submitted through this runner, in submission order.
  const std::vector<QueryId>& submitted() const { return submitted_; }

  sched::Rdbms* db() { return db_; }

 private:
  void SubmitDueArrivals();
  /// Feeds the PIs after one quantum and appends due samples.
  void AfterStep();
  bool AllTerminal(const std::vector<QueryId>& ids) const;

  sched::Rdbms* db_;
  pi::PiManager* pis_;
  RecordingOptions recording_;
  // Queue-blind comparison PI: the primary's options without the
  // admission queue, sharing its future model. It stays un-faulted: a
  // second PI drawing from the same fault-point streams would entangle
  // both PIs' fire sequences with their evaluation interleaving.
  std::unique_ptr<pi::MultiQueryPi> multi_blind_;
  std::map<QueryId, std::vector<EstimateSample>> traces_;
  SimTime next_sample_ = 0.0;
  std::vector<PendingArrival> schedule_;  // kept sorted by time
  std::size_t next_arrival_ = 0;
  std::vector<QueryId> submitted_;
};

}  // namespace mqpi::sim
