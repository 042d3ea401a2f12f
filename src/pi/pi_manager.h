// PiManager: the serving progress indicator of one Rdbms — one
// MultiQueryPi plus a single-query speed EWMA per tracked query. It
// answers current estimates only; estimate traces over time (Figures
// 3-5) are recorded by the experiment harness, sim::SimulationRunner.
//
// Call AfterStep() once after every Rdbms::Step quantum; it feeds the
// multi-query PI and every tracked single-query PI.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "pi/multi_query_pi.h"
#include "pi/single_query_pi.h"
#include "sched/rdbms.h"

namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::pi {

struct PiManagerOptions {
  /// Configuration of the multi-query PI.
  MultiQueryPiOptions multi;
  /// Sliding-window span for single-query speed samples (seconds).
  SimTime single_speed_window = 2.0;
  /// Automatically Track() every query submitted after the manager
  /// attaches (uses the Rdbms event stream).
  bool auto_track = false;
};

class PiManager {
 public:
  /// `db` and `future` (optional) must outlive the manager. The
  /// manager registers an event listener on `db` when auto_track is
  /// set, so it must also outlive any stepping of `db`.
  PiManager(sched::Rdbms* db, PiManagerOptions options = {},
            FutureWorkloadModel* future = nullptr);

  /// Starts observing a query's speed for its single-query PI.
  /// Idempotent; re-tracking an already tracked query keeps its
  /// observation history.
  void Track(QueryId id);

  /// Feeds the PIs; call after every Step quantum.
  void AfterStep();

  /// Current single-query estimate. Untracked or finished ids are not
  /// an error: they report kUnknown (no observation history), so
  /// concurrent callers — e.g. service sessions polling arbitrary
  /// ids — need no Track()-before-sample ordering.
  Result<SimTime> EstimateSingle(QueryId id) const;

  /// Smoothed observed speed of a tracked query (U/s); 0 if untracked
  /// or not yet observed.
  double SpeedOf(QueryId id) const;

  /// Current multi-query estimate.
  Result<SimTime> EstimateMulti(QueryId id) const {
    return multi_.EstimateRemainingTime(id);
  }

  MultiQueryPi* multi() { return &multi_; }
  const MultiQueryPi* multi() const { return &multi_; }

  /// Forwards a chaos harness to the multi-query PI.
  void SetFaultInjector(fault::FaultInjector* injector) {
    multi_.SetFaultInjector(injector);
  }

  /// One dashboard row per live query — the classic progress-indicator
  /// GUI payload (percent done + ETA), with both estimators side by
  /// side. Covers every non-terminal query in the system, tracked or
  /// not (untracked queries report kUnknown for the single-query ETA,
  /// which needs an observation history).
  struct ProgressRow {
    QueryId id = kInvalidQueryId;
    std::string label;
    sched::QueryState state = sched::QueryState::kQueued;
    /// completed / (completed + estimated remaining), in [0, 1].
    double fraction_done = 0.0;
    double speed = 0.0;            // smoothed U/s (tracked queries)
    SimTime eta_single = kUnknown;
    SimTime eta_multi = kUnknown;
  };
  std::vector<ProgressRow> Report() const;

 private:
  const sched::Rdbms* db_;
  PiManagerOptions options_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  MultiQueryPi multi_;
  std::map<QueryId, SingleQueryPi> singles_;
};

}  // namespace mqpi::pi
