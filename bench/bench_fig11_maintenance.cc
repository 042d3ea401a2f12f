// Figure 11: the scheduled maintenance problem (Section 5.3),
// Case 2 — unfinished work = total cost of every aborted query.
//
// Steady state: ten Zipf(2.2) queries are always running (a finished
// query is immediately replaced). At a random instant rt the DBA
// schedules maintenance t seconds later and one of three policies runs:
//   no PI      - O1+O2: stop admissions, abort whatever is unfinished
//                at the deadline;
//   single PI  - O1+O2'+O3: also abort, at rt, every query whose
//                c/s estimate says it cannot finish in time;
//   multi PI   - O1+O2'+O3 with the Section 3.3 greedy knapsack.
// A fourth curve is the theoretical limit: the exact knapsack computed
// from true (run-to-completion) costs.
//
// Paper shape: multi-PI has the least unfinished work for all
// t < t_finish and reaches zero at t = t_finish; the single-PI method
// aborts ~2/3 of the work unnecessarily even at t = t_finish; no-PI is
// between them except at very small t; multi-PI tracks the theoretical
// limit within a few percent on average.

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "pi/pi_manager.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "wlm/maintenance.h"
#include "wlm/wlm_advisor.h"

using namespace mqpi;

namespace {

struct SteadyState {
  std::unique_ptr<sched::Rdbms> db;
  std::unique_ptr<pi::PiManager> pis;
  std::map<QueryId, int> rank_of;
  std::vector<sched::QueryInfo> running;  // snapshot at rt
  double total_work = 0.0;                // TW: sum of true total costs
  SimTime t_finish = 0.0;                 // no-interruption quiescent span
  SimTime rt = 0.0;
  // Listener state: must live as long as the Rdbms, which keeps the
  // completion listener registered past WarmUp's return.
  std::vector<int> stream;
  std::size_t next_rank = 0;
  bool replacing = true;
  int completions = 0;
  bench::WorkloadFixture* fixture = nullptr;
};

/// Replays the deterministic warmup for one run seed and stops at rt.
std::unique_ptr<SteadyState> WarmUp(bench::WorkloadFixture* fixture,
                                    engine::Planner* probe, double rate,
                                    std::uint64_t seed) {
  auto state = std::make_unique<SteadyState>();
  SteadyState* s = state.get();
  s->fixture = fixture;
  Rng rng(seed);

  sched::RdbmsOptions options;
  options.processing_rate = rate;
  options.max_concurrent = 10;
  options.quantum = 0.5;
  options.cost_model.noise_sigma = 0.10;
  options.cost_model.noise_seed = rng.Next();
  s->db = std::make_unique<sched::Rdbms>(&fixture->catalog, options);
  s->pis = std::make_unique<pi::PiManager>(s->db.get());

  // Replacement stream: when a query finishes, the next rank arrives.
  for (int i = 0; i < 60; ++i) {
    s->stream.push_back(fixture->workload->SampleRank(&rng));
  }
  s->db->AddCompletionListener([s](const sched::QueryInfo&) {
    ++s->completions;
    if (!s->replacing || s->next_rank >= s->stream.size()) return;
    const int rank = s->stream[s->next_rank++];
    auto id = s->db->Submit(s->fixture->workload->SpecForRank(rank));
    if (id.ok()) s->rank_of[*id] = rank;
  });

  for (int i = 0; i < 10; ++i) {
    const int rank = s->stream[s->next_rank++];
    auto id = s->db->Submit(fixture->workload->SpecForRank(rank));
    s->rank_of[*id] = rank;
    // Random initial execution points, as in Section 5.2.
    const double cost = *fixture->workload->TrueCostOfRank(probe, rank);
    s->db->FastForward(*id, rng.Uniform(0.0, 0.9) * cost);
  }

  // Run until a "random" number of completions has occurred: this is rt.
  const int target = 6 + static_cast<int>(rng.UniformInt(0, 6));
  while (s->completions < target) {
    s->db->Step(options.quantum);
    s->pis->AfterStep();
  }
  s->replacing = false;
  s->rt = s->db->now();

  s->running = s->db->RunningQueries();
  for (const auto& info : s->running) {
    const double total =
        *fixture->workload->TrueCostOfRank(probe, s->rank_of[info.id]);
    s->total_work += total;
    s->t_finish += (total - info.completed_work) / rate;
  }
  return state;
}

}  // namespace

int main() {
  bench::Banner(
      "Figure 11: unfinished work UW/TW vs t/t_finish (maintenance, "
      "Case 2)",
      "multi-PI lowest and 0 at t=t_finish; single-PI ~0.67 even at "
      "t=t_finish; no-PI in between; multi-PI near the theoretical limit");

  auto fixture = bench::MakeWorkload(
      {.max_rank = 100, .a = 2.2, .n_scale = 1});
  storage::BufferManager scratch;
  engine::Planner probe(&fixture->catalog, &scratch, {.noise_sigma = 0.0});
  const double avg_cost = *fixture->workload->AverageTrueCost(&probe);
  const double rate = 0.07 * avg_cost;
  const int runs = bench::NumRuns(10);
  std::printf("C = %.1f U/s, %d runs, seed=%llu\n\n", rate, runs,
              static_cast<unsigned long long>(bench::BaseSeed()));

  const std::vector<double> fractions{0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9, 1.0};
  sim::SeriesTable fig11(
      "Figure 11: UW/TW for the three methods + theoretical limit",
      "t_over_tfinish",
      {"no_pi", "single_pi", "multi_pi", "theoretical_limit"});

  std::vector<RunningStats> stats(4 * fractions.size());
  std::vector<RunningStats> case1_stats(fractions.size());
  for (int run = 0; run < runs; ++run) {
    const std::uint64_t seed =
        bench::BaseSeed() + 104729ull * static_cast<std::uint64_t>(run);

    // t_finish is *measured*, as the paper defines it: the remaining
    // execution time of the 10 queries under the no-interruption
    // condition. One dedicated replay per run; the replay also provides
    // the exact (e_i, c_i) state at rt for the theoretical limit.
    double t_finish = 0.0;
    std::vector<wlm::MaintenanceQuery> truth;
    double total_work = 0.0;
    {
      auto state_ptr = WarmUp(fixture.get(), &probe, rate, seed);
      auto& state = *state_ptr;
      for (const auto& info : state.running) {
        const double total = *fixture->workload->TrueCostOfRank(
            &probe, state.rank_of[info.id]);
        truth.push_back(wlm::MaintenanceQuery{
            info.id, info.completed_work, total - info.completed_work});
      }
      total_work = state.total_work;
      state.db->SetAdmissionOpen(false);
      state.db->RunUntilIdle();
      t_finish = state.db->now() - state.rt;
    }

    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      const double deadline = fractions[fi] * t_finish;
      // Theoretical limit: exact knapsack on true run-to-completion
      // figures.
      {
        auto plan = wlm::MaintenancePlanner::PlanOptimal(
            truth, deadline, rate, wlm::LossMetric::kTotalCost);
        stats[4 * fi + 3].Observe(plan.ok()
                                      ? plan->lost_work / total_work
                                      : 1.0);
        // Case 1 oracle alongside (lost work = completed work only).
        auto plan1 = wlm::MaintenancePlanner::PlanOptimal(
            truth, deadline, rate, wlm::LossMetric::kCompletedWork);
        double completed_total = 0.0;
        for (const auto& q : truth) completed_total += q.completed;
        case1_stats[fi].Observe(
            plan1.ok() && completed_total > 0.0
                ? plan1->lost_work / completed_total
                : 0.0);
      }
      // The three live methods.
      const wlm::MaintenanceMethod methods[] = {
          wlm::MaintenanceMethod::kNoPi, wlm::MaintenanceMethod::kSinglePi,
          wlm::MaintenanceMethod::kMultiPi};
      for (int mi = 0; mi < 3; ++mi) {
        auto state_ptr = WarmUp(fixture.get(), &probe, rate, seed);
        auto& state = *state_ptr;
        wlm::WlmAdvisor advisor(state.db.get());
        auto plan = advisor.PrepareMaintenance(
            deadline, wlm::LossMetric::kTotalCost, methods[mi],
            state.pis.get());
        if (!plan.ok()) {
          std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
          return 1;
        }
        // Let survivors run until the maintenance instant, then abort
        // whatever has not finished (O2/O3 deadline action).
        state.db->RunUntilIdle(state.rt + deadline);
        auto late = advisor.AbortAllUnfinished();
        double unfinished = 0.0;
        for (QueryId id : plan->abort_now) {
          unfinished +=
              *fixture->workload->TrueCostOfRank(&probe, state.rank_of[id]);
        }
        for (const auto& info : late) {
          unfinished +=
              *fixture->workload->TrueCostOfRank(&probe,
                                                 state.rank_of[info.id]);
        }
        stats[4 * fi + static_cast<std::size_t>(mi)].Observe(
            unfinished / state.total_work);
      }
    }
    std::printf("run %d/%d done\n", run + 1, runs);
  }

  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    fig11.AddRow(fractions[fi],
                 {stats[4 * fi + 0].mean(), stats[4 * fi + 1].mean(),
                  stats[4 * fi + 2].mean(), stats[4 * fi + 3].mean()});
  }
  std::printf("\n");
  bench::PrintTable(fig11);

  // Case 1 (lost completed work) — the paper discusses it alongside
  // Case 2 but only plots Case 2; we report the oracle curve so both
  // loss metrics are covered.
  sim::SeriesTable case1(
      "Case 1 (lost completed work / total completed), exact-information "
      "planner",
      "t_over_tfinish", {"lost_completed_frac"});
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    case1.AddRow(fractions[fi], {case1_stats[fi].mean()});
  }
  std::printf("\n");
  case1.PrintText();

  std::printf(
      "\nReduction vs no-PI at t=0.5*t_finish: %.0f%%; vs single-PI: "
      "%.0f%% (paper: 18-44%% and 15-67%%)\n",
      100.0 * (1.0 - stats[4 * 4 + 2].mean() /
                         std::max(1e-9, stats[4 * 4 + 0].mean())),
      100.0 * (1.0 - stats[4 * 4 + 2].mean() /
                         std::max(1e-9, stats[4 * 4 + 1].mean())));
  return 0;
}
