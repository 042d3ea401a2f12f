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
  if (options_.auto_track) {
    db->AddEventListener([this](const sched::QueryEvent& event) {
      if (event.kind == sched::QueryEventKind::kSubmitted) {
        Track(event.info.id);
      }
    });
  }
}

void PiManager::Track(QueryId id) {
  singles_.emplace(id, SingleQueryPi(id, kSingleSpeedAlpha,
                                     options_.single_speed_window));
}

Result<SimTime> PiManager::EstimateSingle(QueryId id) const {
  auto it = singles_.find(id);
  if (it == singles_.end()) return kUnknown;  // never tracked: no history
  return it->second.EstimateRemainingTime();
}

double PiManager::SpeedOf(QueryId id) const {
  auto it = singles_.find(id);
  return it == singles_.end() ? 0.0 : it->second.speed();
}

std::vector<PiManager::ProgressRow> PiManager::Report() const {
  std::vector<ProgressRow> rows;
  for (const auto& info : db_->AllQueries()) {
    if (info.state == sched::QueryState::kFinished ||
        info.state == sched::QueryState::kAborted) {
      continue;
    }
    ProgressRow row;
    row.id = info.id;
    row.label = info.label;
    row.state = info.state;
    const double total =
        info.completed_work + info.estimated_remaining_cost;
    row.fraction_done = total > 0.0 ? info.completed_work / total : 0.0;
    auto it = singles_.find(info.id);
    if (it != singles_.end()) {
      row.speed = it->second.speed();
      row.eta_single = it->second.EstimateRemainingTime();
    }
    // Batched path: all rows probe one shared (cached) forecast.
    auto multi_eta = multi_.EstimateRemainingTime(info);
    if (multi_eta.ok()) row.eta_multi = *multi_eta;
    rows.push_back(std::move(row));
  }
  return rows;
}

void PiManager::AfterStep() {
  MQPI_PROF_SITE(prof, "pi.after_step");
  obs::TraceSpan span(tracer_, "pi", "after_step");
  span.arg("t", db_->now());
  span.arg("tracked", static_cast<double>(singles_.size()));
  multi_.ObserveStep();

  const SimTime now = db_->now();
  for (auto& [id, single] : singles_) {
    auto info = db_->info(id);
    if (info.ok()) single.Observe(*info, now);
  }
}

}  // namespace mqpi::pi
