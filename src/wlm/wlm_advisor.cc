#include "wlm/wlm_advisor.h"

#include <algorithm>

#include "obs/tracer.h"

namespace mqpi::wlm {

std::vector<pi::QueryLoad> WlmAdvisor::RunningLoads() const {
  std::vector<pi::QueryLoad> loads;
  for (const auto& info : db_->RunningQueries()) {
    loads.push_back(
        pi::QueryLoad{info.id, info.estimated_remaining_cost, info.weight});
  }
  return loads;
}

Result<SpeedupChoice> WlmAdvisor::SpeedUpQuery(QueryId target, int h) {
  obs::TraceSpan span(obs::GlobalTracer(), "wlm", "speed_up_query", target);
  span.arg("h", h);
  const auto loads = RunningLoads();
  SpeedupChoice choice;
  const bool uniform =
      !loads.empty() &&
      std::all_of(loads.begin(), loads.end(), [&](const pi::QueryLoad& q) {
        return q.weight == loads.front().weight;
      });
  if (h == 1 && uniform) {
    auto victim = SingleQuerySpeedup::ChooseVictimEqualPriority(loads, target);
    if (!victim.ok()) return victim.status();
    auto benefit = SingleQuerySpeedup::ExactBenefit(
        loads, target, *victim, db_->EffectiveRate());
    choice.victims.push_back(*victim);
    choice.time_saved = benefit.ok() ? *benefit : 0.0;
  } else {
    auto chosen = SingleQuerySpeedup::ChooseVictims(loads, target, h,
                                                    db_->EffectiveRate());
    if (!chosen.ok()) return chosen.status();
    choice = std::move(*chosen);
  }
  for (QueryId victim : choice.victims) {
    MQPI_RETURN_NOT_OK(db_->Block(victim));
  }
  return choice;
}

Result<MultiSpeedupChoice> WlmAdvisor::SpeedUpOthers() {
  obs::TraceSpan span(obs::GlobalTracer(), "wlm", "speed_up_others");
  auto choice =
      MultiQuerySpeedup::ChooseVictim(RunningLoads(), db_->EffectiveRate());
  if (!choice.ok()) return choice.status();
  MQPI_RETURN_NOT_OK(db_->Block(choice->victim));
  return choice;
}

Result<PriorityRaiseAdvice> WlmAdvisor::SpeedUpByPriority(QueryId target,
                                                          Priority priority) {
  auto info = db_->info(target);
  if (!info.ok()) return info.status();
  if (info->state != sched::QueryState::kRunning) {
    return Status::FailedPrecondition("target is not running");
  }
  const double new_weight = db_->options().weights.WeightOf(priority);
  auto advice = SingleQuerySpeedup::EvaluateWeightChange(
      RunningLoads(), target, new_weight, db_->EffectiveRate());
  if (!advice.ok()) return advice.status();
  MQPI_RETURN_NOT_OK(db_->SetPriority(target, priority));
  return advice;
}

Result<MaintenancePlan> WlmAdvisor::PrepareMaintenance(
    SimTime deadline, LossMetric metric, MaintenanceMethod method,
    const pi::PiManager* pis) {
  obs::TraceSpan span(obs::GlobalTracer(), "wlm", "prepare_maintenance");
  span.arg("deadline", deadline);
  span.arg("method", static_cast<double>(method));
  db_->SetAdmissionOpen(false);  // operation O1

  switch (method) {
    case MaintenanceMethod::kNoPi: {
      // O2: let everything run; the deadline abort happens later.
      return MaintenancePlan{};
    }

    case MaintenanceMethod::kSinglePi: {
      if (pis == nullptr) {
        return Status::InvalidArgument(
            "kSinglePi needs a PiManager for the per-query estimates");
      }
      // Abort, largest estimated remaining cost first, every query the
      // single-query PI predicts cannot finish by the deadline.
      struct Hopeless {
        QueryId id;
        WorkUnits remaining;
        double loss;
      };
      std::vector<Hopeless> hopeless;
      for (const auto& info : db_->RunningQueries()) {
        // A query submitted before `pis` attached has no single-query
        // PI; its kUnknown never exceeds the deadline, so it stays.
        const SimTime estimate =
            pis->EstimateSingle(info.id).value_or(kUnknown);
        if (estimate > deadline) {
          hopeless.push_back(Hopeless{
              info.id, info.estimated_remaining_cost,
              metric == LossMetric::kCompletedWork
                  ? info.completed_work
                  : info.completed_work + info.estimated_remaining_cost});
        }
      }
      std::sort(hopeless.begin(), hopeless.end(),
                [](const Hopeless& a, const Hopeless& b) {
                  return a.remaining > b.remaining;
                });
      MaintenancePlan plan;
      for (const Hopeless& h : hopeless) {
        MQPI_RETURN_NOT_OK(db_->Abort(h.id));
        plan.abort_now.push_back(h.id);
        plan.lost_work += h.loss;
      }
      WorkUnits surviving = 0.0;
      for (const auto& info : db_->RunningQueries()) {
        surviving += info.estimated_remaining_cost;
      }
      plan.quiescent_time = surviving / db_->EffectiveRate();
      return plan;
    }

    case MaintenanceMethod::kMultiPi: {
      std::vector<MaintenanceQuery> queries;
      for (const auto& info : db_->RunningQueries()) {
        queries.push_back(MaintenanceQuery{
            info.id, info.completed_work, info.estimated_remaining_cost});
      }
      auto plan = MaintenancePlanner::PlanGreedy(
          queries, deadline, db_->EffectiveRate(), metric);
      if (!plan.ok()) return plan.status();
      for (QueryId id : plan->abort_now) {
        MQPI_RETURN_NOT_OK(db_->Abort(id));
      }
      return plan;
    }
  }
  return Status::Internal("unreachable maintenance method");
}

Result<MaintenancePlan> WlmAdvisor::ReviseMaintenance(
    SimTime remaining_deadline, LossMetric metric) {
  return PrepareMaintenance(remaining_deadline, metric,
                            MaintenanceMethod::kMultiPi, nullptr);
}

std::vector<sched::QueryInfo> WlmAdvisor::AbortAllUnfinished() {
  obs::TraceSpan span(obs::GlobalTracer(), "wlm", "abort_all_unfinished");
  // Snapshot first: aborting a running query admits queued queries into
  // the freed slot, so sweeping live views would miss them.
  std::vector<sched::QueryInfo> victims;
  for (const auto& info : db_->AllQueries()) {
    if (info.state == sched::QueryState::kRunning ||
        info.state == sched::QueryState::kBlocked ||
        info.state == sched::QueryState::kQueued) {
      victims.push_back(info);
    }
  }
  std::vector<sched::QueryInfo> aborted;
  for (const auto& info : victims) {
    if (db_->Abort(info.id).ok()) aborted.push_back(info);
  }
  return aborted;
}

}  // namespace mqpi::wlm
