// Figure 5: the Non-empty Admission Queue (NAQ) experiment
// (Section 5.2.2).
//
// Three queries with N1=50, N2=10, N3=20 enter the admission queue at
// time 0 under a policy of at most two concurrent queries: Q1 and Q2
// start, Q3 waits until Q2 finishes. For Q1, three estimators are
// traced: the single-query PI, a multi-query PI that ignores the
// admission queue, and the full queue-aware multi-query PI.
//
// Paper shape (with their data, Q2 finishes at ~97 s, Q3 at ~291 s,
// Q1 at ~390 s): only the queue-aware estimate is accurate from time 0;
// the queue-blind multi-query estimate under-estimates until Q3 starts;
// the single-query estimate stays too high until Q3 finishes.

#include <cstdio>

#include "bench_util.h"
#include "pi/pi_manager.h"
#include "sim/report.h"
#include "sim/runner.h"

using namespace mqpi;

int main() {
  bench::Banner(
      "Figure 5: NAQ experiment (N1=50, N2=10, N3=20, max 2 concurrent)",
      "queue-aware multi-query estimate accurate from time 0; queue-blind "
      "multi-query underestimates before Q3 starts; single-query worst");

  // Build the three part tables exactly as the paper sizes them.
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 5000, .matches_per_key = 30, .seed = 42});
  auto check = [](const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  };
  check(generator.BuildLineitem(&catalog));
  check(generator.BuildPartTable(&catalog, "part_q1", 50));
  check(generator.BuildPartTable(&catalog, "part_q2", 10));
  check(generator.BuildPartTable(&catalog, "part_q3", 20));

  // Measure true costs for calibration: C is set so Q1's total
  // execution spans ~390 simulated seconds as in the paper's figure.
  storage::BufferManager scratch;
  engine::Planner probe(&catalog, &scratch, {.noise_sigma = 0.0});
  const double c1 = *probe.MeasureTrueCost(
      engine::QuerySpec::TpcrPartPrice("part_q1"));
  const double c2 = *probe.MeasureTrueCost(
      engine::QuerySpec::TpcrPartPrice("part_q2"));
  const double c3 = *probe.MeasureTrueCost(
      engine::QuerySpec::TpcrPartPrice("part_q3"));

  sched::RdbmsOptions options;
  options.processing_rate = (c1 + c2 + c3) / 390.0;
  options.max_concurrent = 2;
  options.quantum = 0.25;
  options.cost_model.noise_sigma = 0.1;
  sched::Rdbms db(&catalog, options);

  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis,
                               {.sample_interval = 10.0,
                                .record_queue_blind_variant = true});

  auto q1 = runner.SubmitNow(engine::QuerySpec::TpcrPartPrice("part_q1"));
  auto q2 = runner.SubmitNow(engine::QuerySpec::TpcrPartPrice("part_q2"));
  auto q3 = runner.SubmitNow(engine::QuerySpec::TpcrPartPrice("part_q3"));
  check(q1.status());
  check(q2.status());
  check(q3.status());
  runner.Track(*q1);

  if (db.info(*q3)->state != sched::QueryState::kQueued) {
    std::fprintf(stderr, "expected Q3 to wait in the admission queue\n");
    return 1;
  }

  runner.RunUntilFinished({*q1, *q2, *q3});
  const SimTime q1_finish = db.info(*q1)->finish_time;

  sim::SeriesTable fig5(
      "Figure 5: remaining execution time estimated over time for Q1",
      "time_s", {"actual_s", "single_query_s", "multi_no_queue_s",
                 "multi_queue_aware_s"});
  for (const auto& sample : runner.Trace(*q1)) {
    fig5.AddRow(sample.time, {q1_finish - sample.time, sample.single,
                              sample.multi_no_queue, sample.multi});
  }
  bench::PrintTable(fig5);

  std::printf("\nTimeline: Q2 finished at %.1f s (paper: 97 s), Q3 started "
              "at %.1f and finished at %.1f s (paper: 291 s), Q1 finished "
              "at %.1f s (paper: ~390 s)\n",
              db.info(*q2)->finish_time, db.info(*q3)->start_time,
              db.info(*q3)->finish_time, q1_finish);

  // Quantify estimator quality over Q1's lifetime.
  double err_single = 0.0, err_blind = 0.0, err_aware = 0.0;
  int count = 0;
  for (const auto& sample : runner.Trace(*q1)) {
    const double actual = q1_finish - sample.time;
    if (actual <= 0.0 || sample.single >= kInfiniteTime) continue;
    err_single += RelativeError(sample.single, actual);
    err_blind += RelativeError(sample.multi_no_queue, actual);
    err_aware += RelativeError(sample.multi, actual);
    ++count;
  }
  std::printf("\nMean relative error over Q1's run: single-query %.1f%%, "
              "multi-query w/o queue %.1f%%, multi-query with queue %.1f%%\n",
              100.0 * err_single / count, 100.0 * err_blind / count,
              100.0 * err_aware / count);
  return 0;
}
