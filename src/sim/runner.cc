#include "sim/runner.h"

#include <algorithm>

namespace mqpi::sim {

SimulationRunner::SimulationRunner(sched::Rdbms* db, pi::PiManager* pis,
                                   RecordingOptions recording)
    : db_(db), pis_(pis), recording_(recording) {
  if (pis_ != nullptr && recording_.record_queue_blind_variant) {
    pi::MultiQueryPiOptions blind = pis_->multi()->options();
    blind.consider_admission_queue = false;
    multi_blind_ = std::make_unique<pi::MultiQueryPi>(
        db, blind, pis_->multi()->future_model());
    multi_blind_->AttachLifecycleEvents(db);
  }
}

void SimulationRunner::ScheduleArrival(SimTime time, engine::QuerySpec spec,
                                       Priority priority) {
  PendingArrival arrival{time, std::move(spec), priority};
  // Insert keeping [next_arrival_, end) sorted by time.
  auto it = std::lower_bound(
      schedule_.begin() + static_cast<std::ptrdiff_t>(next_arrival_),
      schedule_.end(), arrival.time,
      [](const PendingArrival& a, SimTime t) { return a.time < t; });
  schedule_.insert(it, std::move(arrival));
}

Result<QueryId> SimulationRunner::SubmitNow(const engine::QuerySpec& spec,
                                            Priority priority) {
  auto id = db_->Submit(spec, priority);
  if (id.ok()) submitted_.push_back(*id);
  return id;
}

void SimulationRunner::SubmitDueArrivals() {
  while (next_arrival_ < schedule_.size() &&
         schedule_[next_arrival_].time <= db_->now() + kTimeEpsilon) {
    const PendingArrival& arrival = schedule_[next_arrival_++];
    auto id = db_->Submit(arrival.spec, arrival.priority);
    if (id.ok()) submitted_.push_back(*id);
  }
}

void SimulationRunner::StepFor(SimTime dt) {
  const SimTime quantum = db_->options().quantum;
  SimTime remaining = dt;
  while (remaining > kTimeEpsilon) {
    SubmitDueArrivals();
    const SimTime step = std::min(remaining, quantum);
    db_->Step(step);
    if (pis_ != nullptr) AfterStep();
    remaining -= step;
  }
  SubmitDueArrivals();
}

void SimulationRunner::Track(QueryId id) {
  traces_[id];  // create an empty trace
}

const std::vector<EstimateSample>& SimulationRunner::Trace(QueryId id) const {
  static const std::vector<EstimateSample> kEmpty;
  auto it = traces_.find(id);
  return it == traces_.end() ? kEmpty : it->second;
}

void SimulationRunner::AfterStep() {
  pis_->AfterStep();
  // The blind PI must observe every quantum, not only sampled ones: its
  // rate window accumulates per-quantum consumption.
  if (multi_blind_) multi_blind_->ObserveStep();

  const SimTime now = db_->now();
  if (now + kTimeEpsilon < next_sample_) return;
  // Advance from the *scheduled* time, not from `now`: a quantum that
  // overshoots the grid point would otherwise shift every later sample
  // by the overshoot, and the drift compounds for the whole run. If the
  // grid fell more than one interval behind (coarse quanta), jump to
  // the next grid point after `now` instead of replaying a backlog of
  // due samples.
  do {
    next_sample_ += recording_.sample_interval;
  } while (next_sample_ <= now + kTimeEpsilon);

  for (auto& [id, trace] : traces_) {
    auto info = db_->info(id);
    if (!info.ok()) continue;
    if (info->state == sched::QueryState::kFinished ||
        info->state == sched::QueryState::kAborted) {
      continue;  // trace ends at completion
    }
    EstimateSample sample;
    sample.time = now;
    const auto single = pis_->EstimateSingle(id);
    sample.single = single.ok() ? *single : kUnknown;
    sample.speed = pis_->SpeedOf(id);
    // Batched path: every tracked query probes the same cached
    // forecast, so the whole sampling loop costs one simulation.
    auto m = pis_->multi()->EstimateRemainingTime(*info);
    sample.multi = m.ok() ? *m : kUnknown;
    if (multi_blind_) {
      auto mb = multi_blind_->EstimateRemainingTime(*info);
      sample.multi_no_queue = mb.ok() ? *mb : kUnknown;
    }
    trace.push_back(sample);
  }
}

bool SimulationRunner::AllTerminal(const std::vector<QueryId>& ids) const {
  for (QueryId id : ids) {
    auto info = db_->info(id);
    if (!info.ok()) return false;
    if (info->state != sched::QueryState::kFinished &&
        info->state != sched::QueryState::kAborted) {
      return false;
    }
  }
  return true;
}

SimTime SimulationRunner::RunUntilFinished(const std::vector<QueryId>& watch,
                                           SimTime deadline) {
  while (!AllTerminal(watch) && db_->now() < deadline - kTimeEpsilon) {
    StepFor(db_->options().quantum);
  }
  return db_->now();
}

SimTime SimulationRunner::RunUntilIdle(SimTime deadline) {
  while ((!db_->Idle() || next_arrival_ < schedule_.size()) &&
         db_->now() < deadline - kTimeEpsilon) {
    StepFor(db_->options().quantum);
  }
  return db_->now();
}

SimTime SimulationRunner::FinishTimeOf(QueryId id) const {
  auto info = db_->info(id);
  if (!info.ok()) return kUnknown;
  return info->finish_time;
}

}  // namespace mqpi::sim
