// PiManager: the serving progress indicator of one Rdbms — one
// MultiQueryPi plus a single-query speed EWMA per query. It answers
// current estimates only; estimate traces over time (Figures 3-5) are
// recorded by the experiment harness, sim::SimulationRunner.
//
// Its inputs are the Rdbms lifecycle events and the queries holding a
// slot: every query submitted after the manager attaches gets its
// single-query PI at submission, AfterStep() observes the running and
// blocked queries, and a query's finish or abort event delivers its
// final observation. No per-quantum work touches finished queries.
#pragma once

#include <unordered_map>

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
};

class PiManager {
 public:
  /// `db` and `future` (optional) must outlive the manager. The
  /// manager listens to `db`'s events, so it must also outlive any
  /// stepping of `db`.
  PiManager(sched::Rdbms* db, PiManagerOptions options = {},
            FutureWorkloadModel* future = nullptr);

  /// Feeds the PIs; call after every Step quantum.
  void AfterStep();

  /// Current single-query estimate. Ids the manager never saw
  /// submitted are not an error: they report kUnknown (no observation
  /// history), so concurrent callers — e.g. service sessions polling
  /// arbitrary ids — need no ordering against submission.
  Result<SimTime> EstimateSingle(QueryId id) const;

  /// Smoothed observed speed of a query (U/s); 0 if unknown or not yet
  /// observed.
  double SpeedOf(QueryId id) const;

  MultiQueryPi* multi() { return &multi_; }
  const MultiQueryPi* multi() const { return &multi_; }

  /// Forwards a chaos harness to the multi-query PI.
  void SetFaultInjector(fault::FaultInjector* injector) {
    multi_.SetFaultInjector(injector);
  }

 private:
  void OnQueryEvent(const sched::QueryEvent& event);

  const sched::Rdbms* db_;
  PiManagerOptions options_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  MultiQueryPi multi_;
  std::unordered_map<QueryId, SingleQueryPi> singles_;
};

}  // namespace mqpi::pi
