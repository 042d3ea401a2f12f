// End-to-end integration tests: miniature versions of the paper's
// experiments with assertions on the qualitative outcomes every figure
// depends on. These run the full stack — generator, engine, scheduler,
// PIs, workload management — on small data so they stay fast.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "sim/runner.h"
#include "storage/tpcr_gen.h"
#include "wlm/wlm_advisor.h"
#include "workload/arrival_schedule.h"
#include "workload/zipf_workload.h"

namespace mqpi {
namespace {

using engine::QuerySpec;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture();
    fixture_->generator = std::make_unique<storage::TpcrGenerator>(
        storage::TpcrConfig{.num_part_keys = 1500,
                            .matches_per_key = 12,
                            .seed = 55});
    fixture_->workload = std::make_unique<workload::ZipfWorkload>(
        &fixture_->catalog, fixture_->generator.get(),
        workload::ZipfWorkloadOptions{.max_rank = 8, .a = 1.5,
                                      .n_scale = 4});
    ASSERT_TRUE(fixture_->workload->MaterializeTables().ok());
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  struct Fixture {
    storage::Catalog catalog;
    std::unique_ptr<storage::TpcrGenerator> generator;
    std::unique_ptr<workload::ZipfWorkload> workload;
  };
  static Fixture* fixture_;

  sched::RdbmsOptions Options(double rate) {
    sched::RdbmsOptions options;
    options.processing_rate = rate;
    options.quantum = 0.2;
    options.cost_model.noise_sigma = 0.1;
    return options;
  }
};

IntegrationTest::Fixture* IntegrationTest::fixture_ = nullptr;

TEST_F(IntegrationTest, McqMultiBeatsSingleOnSharedWorkload) {
  // MCQ miniature: the multi-query PI's average trace error for the
  // largest query must beat the single-query PI's by a wide margin.
  sched::Rdbms db(&fixture_->catalog, Options(300.0));
  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis, {.sample_interval = 2.0});
  Rng rng(1);
  std::vector<QueryId> ids;
  QueryId big = kInvalidQueryId;
  for (int i = 0; i < 6; ++i) {
    const int rank = (i == 0) ? 8 : fixture_->workload->SampleRank(&rng);
    auto id = runner.SubmitNow(fixture_->workload->SpecForRank(rank));
    ASSERT_TRUE(id.ok());
    if (i == 0) big = *id;
    ids.push_back(*id);
    runner.Track(*id);
  }
  runner.RunUntilFinished(ids);
  const SimTime finish = db.info(big)->finish_time;
  double single_err = 0.0, multi_err = 0.0;
  int count = 0;
  for (const auto& sample : runner.Trace(big)) {
    const double actual = finish - sample.time;
    if (actual <= 1.0 || sample.single >= kInfiniteTime) continue;
    single_err += RelativeError(sample.single, actual);
    multi_err += RelativeError(sample.multi, actual);
    ++count;
  }
  ASSERT_GT(count, 5);
  EXPECT_LT(multi_err, 0.6 * single_err)
      << "multi=" << multi_err / count << " single=" << single_err / count;
}

TEST_F(IntegrationTest, NaqQueueAwareSeesFurther) {
  // NAQ miniature: with an admission limit, the queue-aware estimate
  // for the long query beats both the queue-blind and the single PI.
  auto options = Options(200.0);
  options.max_concurrent = 2;
  sched::Rdbms db(&fixture_->catalog, options);
  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis,
                               {.sample_interval = 2.0,
                                .record_queue_blind_variant = true});
  auto q1 = runner.SubmitNow(fixture_->workload->SpecForRank(8));
  auto q2 = runner.SubmitNow(fixture_->workload->SpecForRank(2));
  auto q3 = runner.SubmitNow(fixture_->workload->SpecForRank(4));
  ASSERT_TRUE(q3.ok());
  runner.Track(*q1);
  EXPECT_EQ(db.info(*q3)->state, sched::QueryState::kQueued);
  runner.RunUntilFinished({*q1, *q2, *q3});
  const SimTime finish = db.info(*q1)->finish_time;

  // Focus on samples before q3 starts (while it waits in the queue).
  const SimTime q3_start = db.info(*q3)->start_time;
  double aware = 0.0, blind = 0.0;
  int count = 0;
  for (const auto& sample : runner.Trace(*q1)) {
    if (sample.time >= q3_start) break;
    const double actual = finish - sample.time;
    aware += RelativeError(sample.multi, actual);
    blind += RelativeError(sample.multi_no_queue, actual);
    ++count;
  }
  ASSERT_GT(count, 2);
  EXPECT_LT(aware, blind)
      << "aware=" << aware / count << " blind=" << blind / count;
}

TEST_F(IntegrationTest, QueueBlindVariantMatchesAwareOnceQueueDrains) {
  // NAQ miniature sampled far more coarsely than it steps. Once the
  // admission queue is empty the two multi-query PIs model the same
  // load, so they agree — but only if the blind PI measured the rate
  // over every quantum, not just the sampled ones (operators overshoot
  // their budget, so per-quantum consumption varies).
  auto options = Options(200.0);
  options.max_concurrent = 2;
  sched::Rdbms db(&fixture_->catalog, options);
  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis,
                               {.sample_interval = 25 * options.quantum,
                                .record_queue_blind_variant = true});
  auto q1 = runner.SubmitNow(fixture_->workload->SpecForRank(8));
  auto q2 = runner.SubmitNow(fixture_->workload->SpecForRank(2));
  auto q3 = runner.SubmitNow(fixture_->workload->SpecForRank(4));
  ASSERT_TRUE(q3.ok());
  runner.Track(*q1);
  ASSERT_EQ(db.info(*q3)->state, sched::QueryState::kQueued);
  runner.RunUntilFinished({*q1, *q2, *q3});

  const SimTime q3_start = db.info(*q3)->start_time;
  int compared = 0;
  for (const auto& sample : runner.Trace(*q1)) {
    if (sample.time < q3_start) continue;  // queue not yet drained
    ASSERT_NE(sample.multi, kUnknown);
    EXPECT_NEAR(sample.multi_no_queue, sample.multi,
                1e-9 * std::abs(sample.multi))
        << "at t=" << sample.time;
    ++compared;
  }
  EXPECT_GE(compared, 3);
}

TEST_F(IntegrationTest, ScqArrivalsSlowEverythingAndPiSeesIt) {
  // Arrivals must lengthen actual executions, and the future-aware PI
  // must predict longer times than a future-blind one.
  auto run_with_lambda = [&](double lambda) {
    auto options = Options(150.0);
    options.max_concurrent = 5;
    sched::Rdbms db(&fixture_->catalog, options);
    sim::SimulationRunner runner(&db);
    Rng rng(9);
    auto target = runner.SubmitNow(fixture_->workload->SpecForRank(8));
    for (const auto& arrival : workload::GeneratePoissonArrivals(
             *fixture_->workload, lambda, 500.0, &rng)) {
      runner.ScheduleArrival(arrival.time,
                             fixture_->workload->SpecForRank(arrival.rank));
    }
    runner.RunUntilFinished({*target});
    return db.info(*target)->finish_time;
  };
  const double alone = run_with_lambda(0.0);
  const double busy = run_with_lambda(0.3);
  EXPECT_GT(busy, 1.5 * alone);

  // Future model raises the estimate.
  sched::Rdbms db(&fixture_->catalog, Options(150.0));
  auto target = db.Submit(fixture_->workload->SpecForRank(8));
  ASSERT_TRUE(target.ok());
  pi::FutureWorkloadModel future(
      {.lambda = 0.3, .avg_cost = 500.0, .avg_weight = 2.0});
  pi::MultiQueryPi with_future(&db, {}, &future);
  pi::MultiQueryPi without_future(&db, {});
  EXPECT_GT(*with_future.EstimateRemainingTime(*target),
            *without_future.EstimateRemainingTime(*target) * 1.2);
}

TEST_F(IntegrationTest, MaintenanceMultiPiBeatsSinglePi) {
  // Maintenance miniature, Case 2. Same warmup (deterministic), two
  // methods; multi-PI must lose no more work than single-PI.
  auto make_db = [&] {
    auto options = Options(150.0);
    auto db = std::make_unique<sched::Rdbms>(&fixture_->catalog, options);
    return db;
  };
  auto warm = [&](sched::Rdbms* db, pi::PiManager* pis,
                  std::vector<QueryId>* ids) {
    Rng rng(13);
    for (int i = 0; i < 5; ++i) {
      const int rank = 2 + (i % 4) * 2;
      auto id = db->Submit(fixture_->workload->SpecForRank(rank));
      ASSERT_TRUE(id.ok());
      ids->push_back(*id);
    }
    for (int step = 0; step < 40; ++step) {
      db->Step(0.2);
      pis->AfterStep();
    }
  };

  double unfinished[2] = {0.0, 0.0};
  const wlm::MaintenanceMethod methods[2] = {
      wlm::MaintenanceMethod::kSinglePi, wlm::MaintenanceMethod::kMultiPi};
  for (int m = 0; m < 2; ++m) {
    auto db = make_db();
    pi::PiManager pis(db.get());
    std::vector<QueryId> ids;
    warm(db.get(), &pis, &ids);
    wlm::WlmAdvisor advisor(db.get());
    const double deadline = 30.0;
    auto plan = advisor.PrepareMaintenance(
        deadline, wlm::LossMetric::kTotalCost, methods[m], &pis);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const SimTime decision = db->now();
    db->RunUntilIdle(decision + deadline);
    auto late = advisor.AbortAllUnfinished();
    for (QueryId id : plan->abort_now) {
      const auto info = *db->info(id);
      unfinished[m] += info.completed_work + info.estimated_remaining_cost;
    }
    for (const auto& info : late) {
      unfinished[m] += info.completed_work + info.estimated_remaining_cost;
    }
  }
  EXPECT_LE(unfinished[1], unfinished[0] + 1e-9)
      << "multi=" << unfinished[1] << " single=" << unfinished[0];
}

TEST_F(IntegrationTest, SpeedupEndToEndOnRealQueries) {
  // Section 3.1 on real TPC-R queries: blocking the advisor's victim
  // must make the target finish earlier than the unmanaged baseline.
  double baseline = 0.0;
  {
    sched::Rdbms db(&fixture_->catalog, Options(200.0));
    std::vector<QueryId> ids;
    for (int rank : {6, 4, 8, 5}) {
      ids.push_back(*db.Submit(fixture_->workload->SpecForRank(rank)));
    }
    db.RunUntilIdle();
    baseline = db.info(ids[0])->finish_time;
  }
  sched::Rdbms db(&fixture_->catalog, Options(200.0));
  std::vector<QueryId> ids;
  for (int rank : {6, 4, 8, 5}) {
    ids.push_back(*db.Submit(fixture_->workload->SpecForRank(rank)));
  }
  wlm::WlmAdvisor advisor(&db);
  auto choice = advisor.SpeedUpQuery(ids[0], 1);
  ASSERT_TRUE(choice.ok());
  db.RunUntilIdle();
  EXPECT_LT(db.info(ids[0])->finish_time, baseline - 1.0);
  // Victims stay blocked; resume and drain them.
  for (QueryId victim : choice->victims) {
    EXPECT_TRUE(db.Resume(victim).ok());
  }
  db.RunUntilIdle();
  for (QueryId id : ids) {
    EXPECT_EQ(db.info(id)->state, sched::QueryState::kFinished);
  }
}

TEST_F(IntegrationTest, AdaptiveMaintenanceRevision) {
  // Section 4: periodically revising the multi-PI decision aborts
  // late-detected hopeless queries so survivors still meet the deadline.
  auto options = Options(100.0);
  sched::Rdbms db(&fixture_->catalog, options);
  std::vector<QueryId> ids;
  for (int rank : {8, 8, 2, 2, 1}) {
    ids.push_back(*db.Submit(fixture_->workload->SpecForRank(rank)));
  }
  db.Step(2.0);
  wlm::WlmAdvisor advisor(&db);
  const double deadline = 40.0;
  const SimTime decision = db.now();
  auto plan = advisor.PrepareMaintenance(deadline,
                                         wlm::LossMetric::kTotalCost,
                                         wlm::MaintenanceMethod::kMultiPi,
                                         nullptr);
  ASSERT_TRUE(plan.ok());
  // Revise midway with the remaining time.
  db.RunUntilIdle(decision + deadline / 2);
  auto revised = advisor.ReviseMaintenance(
      deadline / 2, wlm::LossMetric::kTotalCost);
  ASSERT_TRUE(revised.ok());
  db.RunUntilIdle(decision + deadline);
  // Whatever survived both decisions must have finished.
  int missed = 0;
  for (QueryId id : ids) {
    if (db.info(id)->state == sched::QueryState::kRunning) ++missed;
  }
  EXPECT_LE(missed, 1);  // estimates are noisy; at most one borderline miss
}

}  // namespace
}  // namespace mqpi
