// Scheduled-maintenance walkthrough (paper Section 3.3 / 5.3).
//
// A DBA must take the system down for maintenance in a fixed number of
// seconds. This example runs a mixed workload, then compares what each
// policy would do at the decision instant — no PI, single-query PI,
// multi-query PI, and the exact-information optimum — and executes the
// multi-query plan, verifying the system quiesces in time.

#include <cstdio>
#include <string>
#include <vector>

#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "sim/runner.h"
#include "storage/tpcr_gen.h"
#include "wlm/maintenance.h"
#include "wlm/wlm_advisor.h"

using namespace mqpi;

namespace {

void Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  // Data: lineitem plus a spread of part tables.
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 3000, .matches_per_key = 30, .seed = 7});
  if (auto s = generator.BuildLineitem(&catalog); !s.ok()) Fail(s);
  for (int n : {5, 10, 20, 40, 80}) {
    if (auto s = generator.BuildPartTable(
            &catalog, "part_n" + std::to_string(n), n);
        !s.ok()) {
      Fail(s);
    }
  }

  sched::RdbmsOptions options;
  options.processing_rate = 500.0;
  options.quantum = 0.1;
  options.cost_model.noise_sigma = 0.15;
  sched::Rdbms db(&catalog, options);
  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis);

  // Submit a mix and let it run for a while so queries are at varied
  // stages when the maintenance request lands.
  for (int n : {80, 40, 20, 10, 5, 40, 20}) {
    auto id = runner.SubmitNow(
        engine::QuerySpec::TpcrPartPrice("part_n" + std::to_string(n)));
    if (!id.ok()) Fail(id.status());
  }
  runner.StepFor(20.0);

  std::printf("t=%.1f s: maintenance must start in 30 s. System state:\n",
              db.now());
  std::printf("  %-4s %-10s %-12s %-12s %-14s\n", "id", "state",
              "done (U)", "est rem (U)", "multi-PI ETA (s)");
  for (const auto& info : db.RunningQueries()) {
    auto eta = pis.multi()->EstimateRemainingTime(info);
    std::printf("  %-4llu %-10s %-12.0f %-12.0f %-14.1f\n",
                static_cast<unsigned long long>(info.id),
                std::string(sched::QueryStateName(info.state)).c_str(),
                info.completed_work, info.estimated_remaining_cost,
                eta.ok() ? *eta : -1.0);
  }

  // What would each policy abort?
  const double deadline = 30.0;
  std::vector<wlm::MaintenanceQuery> snapshot;
  for (const auto& info : db.RunningQueries()) {
    snapshot.push_back(wlm::MaintenanceQuery{
        info.id, info.completed_work, info.estimated_remaining_cost});
  }
  auto greedy = wlm::MaintenancePlanner::PlanGreedy(
      snapshot, deadline, db.EffectiveRate(), wlm::LossMetric::kTotalCost);
  auto optimal = wlm::MaintenancePlanner::PlanOptimal(
      snapshot, deadline, db.EffectiveRate(), wlm::LossMetric::kTotalCost);
  if (!greedy.ok()) Fail(greedy.status());
  if (!optimal.ok()) Fail(optimal.status());

  auto describe = [](const char* name, const wlm::MaintenancePlan& plan) {
    std::printf("\n%s: abort {", name);
    for (std::size_t i = 0; i < plan.abort_now.size(); ++i) {
      std::printf("%s%llu", i ? ", " : "",
                  static_cast<unsigned long long>(plan.abort_now[i]));
    }
    std::printf("}  lost work %.0f U, predicted quiescent in %.1f s",
                plan.lost_work, plan.quiescent_time);
  };
  describe("Section 3.3 greedy (multi-query PI)", *greedy);
  describe("Exact knapsack (oracle)", *optimal);
  std::printf("\n");

  // Execute the multi-query-PI plan for real.
  wlm::WlmAdvisor advisor(&db);
  auto applied = advisor.PrepareMaintenance(deadline,
                                            wlm::LossMetric::kTotalCost,
                                            wlm::MaintenanceMethod::kMultiPi,
                                            &pis);
  if (!applied.ok()) Fail(applied.status());
  const SimTime decision_time = db.now();
  runner.StepFor(deadline);
  const auto leftovers = advisor.AbortAllUnfinished();

  std::printf("\nExecuted the multi-query plan at t=%.1f s:\n",
              decision_time);
  std::printf("  aborted at decision time: %zu queries\n",
              applied->abort_now.size());
  std::printf("  still unfinished at the deadline: %zu queries\n",
              leftovers.size());
  int finished = 0;
  for (const auto& info : db.AllQueries()) {
    if (info.state == sched::QueryState::kFinished &&
        info.finish_time > decision_time) {
      ++finished;
    }
  }
  std::printf("  queries that finished inside the window: %d\n", finished);
  std::printf("  system idle and ready for maintenance at t=%.1f s\n",
              db.now());
  return 0;
}
