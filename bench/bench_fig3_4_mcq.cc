// Figures 3 and 4: the Multiple Concurrent Query (MCQ) experiment
// (Section 5.2.1).
//
// Ten queries Q_i with N_i ~ Zipf(a=1.2) run concurrently; at time 0
// each is at a random point of its execution, and no new queries
// arrive. For a typical large query Q:
//   Figure 3 - remaining execution time estimated over time by the
//              single-query and multi-query PIs vs the actual value;
//   Figure 4 - the execution speed of Q monitored over time.
//
// Paper shape: the multi-query estimate hugs the actual line; the
// single-query estimate starts ~3x too high; Q's speed rises by almost
// a factor of five as the other queries finish.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "pi/pi_manager.h"
#include "sim/report.h"
#include "sim/runner.h"

using namespace mqpi;

int main() {
  bench::Banner(
      "Figures 3-4: MCQ experiment (10 Zipf(1.2) queries, no arrivals)",
      "multi-query estimate tracks the actual remaining time; "
      "single-query estimate ~3x too high at the start; speed rises ~5x");

  auto fixture = bench::MakeWorkload(
      {.max_rank = 10, .a = 1.2, .n_scale = 15});
  Rng rng(bench::BaseSeed());

  // Sample the ten queries and measure their exact costs (used only
  // for calibration and the actual-remaining-time line).
  storage::BufferManager scratch;
  engine::Planner probe(&fixture->catalog, &scratch, {.noise_sigma = 0.0});
  std::vector<int> ranks;
  std::vector<double> costs;
  double total_work = 0.0;
  for (int i = 0; i < 10; ++i) {
    const int rank = fixture->workload->SampleRank(&rng);
    ranks.push_back(rank);
    const double cost =
        *fixture->workload->TrueCostOfRank(&probe, rank);
    costs.push_back(cost);
    total_work += cost;
  }
  // Random execution points at time 0 (fractions drawn up front so the
  // calibration below can account for them).
  std::vector<double> done_fraction;
  double remaining_work = 0.0;
  for (int i = 0; i < 10; ++i) {
    done_fraction.push_back(rng.Uniform(0.0, 0.9));
    remaining_work += costs[static_cast<std::size_t>(i)] *
                      (1.0 - done_fraction[static_cast<std::size_t>(i)]);
  }

  // Calibrate C so the experiment spans ~450 simulated seconds, the
  // paper's x-axis.
  sched::RdbmsOptions options;
  options.processing_rate = remaining_work / 450.0;
  options.quantum = 0.25;
  options.cost_model.noise_sigma = 0.15;
  sched::Rdbms db(&fixture->catalog, options);

  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis, {.sample_interval = 10.0});

  std::vector<QueryId> ids;
  for (int i = 0; i < 10; ++i) {
    auto id = runner.SubmitNow(
        fixture->workload->SpecForRank(ranks[static_cast<std::size_t>(i)]));
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
    db.FastForward(*id, done_fraction[static_cast<std::size_t>(i)] *
                            costs[static_cast<std::size_t>(i)]);
    ids.push_back(*id);
  }

  // "We focus on a typical large query Q": the one with the largest
  // remaining work at time 0.
  QueryId q = ids[0];
  double largest_remaining = -1.0;
  for (int i = 0; i < 10; ++i) {
    const double rem = costs[static_cast<std::size_t>(i)] *
                       (1.0 - done_fraction[static_cast<std::size_t>(i)]);
    if (rem > largest_remaining) {
      largest_remaining = rem;
      q = ids[static_cast<std::size_t>(i)];
    }
  }
  runner.Track(q);

  runner.RunUntilFinished({q});
  const SimTime finish = db.info(q)->finish_time;

  sim::SeriesTable fig3(
      "Figure 3: remaining execution time estimated over time for Q",
      "time_s", {"actual_s", "single_query_est_s", "multi_query_est_s"});
  sim::SeriesTable fig4("Figure 4: query execution speed monitored for Q",
                        "time_s", {"speed_U_per_s"});
  double first_single = kUnknown, first_actual = kUnknown;
  double min_speed = 1e18, max_speed = 0.0;
  for (const auto& sample : runner.Trace(q)) {
    const double actual = finish - sample.time;
    fig3.AddRow(sample.time, {actual, sample.single, sample.multi});
    fig4.AddRow(sample.time, {sample.speed});
    if (first_single == kUnknown && sample.single != kUnknown &&
        sample.single < kInfiniteTime) {
      first_single = sample.single;
      first_actual = actual;
    }
    if (sample.speed > 0.0) {
      min_speed = std::min(min_speed, sample.speed);
      max_speed = std::max(max_speed, sample.speed);
    }
  }
  bench::PrintTable(fig3);
  std::printf("\n");
  bench::PrintTable(fig4);

  std::printf("\nSummary: Q finished at %.1f s; initial single-query "
              "overestimate factor %.2fx (paper: ~3x); speed rose %.2fx "
              "from %.1f to %.1f U/s (paper: ~5x)\n",
              finish, first_single / first_actual, max_speed / min_speed,
              min_speed, max_speed);
  std::printf("seed=%llu C=%.1f U/s\n",
              static_cast<unsigned long long>(bench::BaseSeed()),
              options.processing_rate);
  return 0;
}
