#include "pi/pi_manager.h"

#include "obs/profiler.h"
#include "obs/tracer.h"

namespace mqpi::pi {

namespace {
// Speed-EWMA weight of the single-query PIs.
constexpr double kSingleSpeedAlpha = 0.3;
}  // namespace

PiManager::PiManager(sched::Rdbms* db, PiManagerOptions options,
                     FutureWorkloadModel* future)
    : db_(db),
      options_(options),
      tracer_(obs::GlobalTracer()),
      multi_(db, options.multi, future) {
  // Lifecycle subscription keeps the incremental engines in O(log n)
  // lockstep with the scheduler (the manager already demands it
  // outlives any stepping of `db`).
  multi_.AttachLifecycleEvents(db);
  db->AddEventListener(
      [this](const sched::QueryEvent& event) { OnQueryEvent(event); });
}

void PiManager::OnQueryEvent(const sched::QueryEvent& event) {
  switch (event.kind) {
    case sched::QueryEventKind::kSubmitted: {
      const std::size_t slot = db_->SlotOf(event.info.id);
      if (slot >= singles_.size()) singles_.resize(slot + 1);
      singles_[slot]
          .emplace(event.info.id, kSingleSpeedAlpha,
                   options_.single_speed_window)
          .Observe(event.info, event.time);
      break;
    }
    case sched::QueryEventKind::kFinished:
    case sched::QueryEventKind::kAborted:
      // The final observation: the query leaves the slot holders
      // AfterStep observes.
      if (SingleQueryPi* single = Single(event.info.id)) {
        single->Observe(event.info, event.time);
      }
      break;
    default:
      // Block/resume/priority changes are seen by the next AfterStep,
      // like any other state between two quanta.
      break;
  }
}

SingleQueryPi* PiManager::Single(QueryId id) {
  const std::size_t slot = db_->SlotOf(id);
  if (slot >= singles_.size() || !singles_[slot].has_value()) return nullptr;
  return &*singles_[slot];
}

const SingleQueryPi* PiManager::Single(QueryId id) const {
  return const_cast<PiManager*>(this)->Single(id);
}

Result<SimTime> PiManager::EstimateSingle(QueryId id) const {
  const SingleQueryPi* single = Single(id);
  if (single == nullptr) return kUnknown;  // never seen: no history
  return single->EstimateRemainingTime();
}

double PiManager::SpeedOf(QueryId id) const {
  const SingleQueryPi* single = Single(id);
  return single == nullptr ? 0.0 : single->speed();
}

void PiManager::AfterStep() {
  MQPI_PROF_SITE(prof, "pi.after_step");
  obs::TraceSpan span(tracer_, "pi", "after_step");
  const SimTime now = db_->now();
  const auto running = db_->RunningQueries();
  const auto blocked = db_->BlockedQueries();
  span.arg("t", now);
  span.arg("observed", static_cast<double>(running.size() + blocked.size()));
  multi_.ObserveStep(running);

  for (const auto* slot_holders : {&running, &blocked}) {
    for (const auto& info : *slot_holders) {
      if (SingleQueryPi* single = Single(info.id)) single->Observe(info, now);
    }
  }
}

}  // namespace mqpi::pi
