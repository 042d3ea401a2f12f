#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>

#include "pi/future_model.h"
#include "pi/multi_query_pi.h"
#include "pi/pi_manager.h"
#include "pi/single_query_pi.h"
#include "pi/stage_profile.h"
#include "sched/rdbms.h"
#include "sim/runner.h"
#include "storage/catalog.h"

namespace mqpi::pi {
namespace {

using engine::QuerySpec;

sched::RdbmsOptions CleanOptions() {
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.05;
  options.cost_model.noise_sigma = 0.0;  // perfect statistics
  return options;
}

// ---- SingleQueryPi -----------------------------------------------------------

TEST(SingleQueryPiTest, UnobservedIsInfinite) {
  SingleQueryPi pi(1);
  EXPECT_EQ(pi.EstimateRemainingTime(), kInfiniteTime);
}

TEST(SingleQueryPiTest, EstimateIsCostOverSpeed) {
  SingleQueryPi pi(1, /*speed_alpha=*/1.0, /*window=*/2.0);
  sched::QueryInfo info;
  info.id = 1;
  info.state = sched::QueryState::kRunning;
  info.estimated_remaining_cost = 200.0;
  info.completed_work = 0.0;
  pi.Observe(info, 0.0);
  // Window not yet full: still no speed.
  EXPECT_EQ(pi.EstimateRemainingTime(), kInfiniteTime);
  info.completed_work = 100.0;  // 100 U over 2 s -> 50 U/s
  info.estimated_remaining_cost = 100.0;
  pi.Observe(info, 2.0);
  EXPECT_DOUBLE_EQ(pi.speed(), 50.0);
  EXPECT_DOUBLE_EQ(pi.EstimateRemainingTime(), 2.0);
}

TEST(SingleQueryPiTest, FinishedIsZero) {
  SingleQueryPi pi(1);
  sched::QueryInfo info;
  info.id = 1;
  info.state = sched::QueryState::kFinished;
  pi.Observe(info, 1.0);
  EXPECT_DOUBLE_EQ(pi.EstimateRemainingTime(), 0.0);
  EXPECT_TRUE(pi.finished());
}

TEST(SingleQueryPiTest, ExtrapolatesCurrentSpeedOnly) {
  // The defining weakness: it assumes the current speed persists.
  // Feed a speed that corresponds to 4-way sharing; the estimate must
  // be cost / shared-speed even though peers will finish soon.
  SingleQueryPi pi(1, 1.0, 2.0);
  sched::QueryInfo info;
  info.id = 1;
  info.state = sched::QueryState::kRunning;
  info.estimated_remaining_cost = 100.0;
  info.completed_work = 0.0;
  pi.Observe(info, 0.0);
  info.completed_work = 50.0;  // 25 U/s: quarter of C=100
  pi.Observe(info, 2.0);
  EXPECT_DOUBLE_EQ(pi.EstimateRemainingTime(), 4.0);
}

TEST(SingleQueryPiTest, BlockedStretchResetsWindow) {
  SingleQueryPi pi(1, 1.0, 2.0);
  sched::QueryInfo info;
  info.id = 1;
  info.state = sched::QueryState::kRunning;
  info.estimated_remaining_cost = 100.0;
  info.completed_work = 0.0;
  pi.Observe(info, 0.0);
  info.state = sched::QueryState::kBlocked;
  pi.Observe(info, 5.0);  // long blocked stretch must not count
  info.state = sched::QueryState::kRunning;
  info.completed_work = 10.0;
  pi.Observe(info, 6.0);   // window restarts here
  info.completed_work = 110.0;
  pi.Observe(info, 8.0);   // 100 U over 2 s
  EXPECT_DOUBLE_EQ(pi.speed(), 50.0);
}

// ---- FutureWorkloadModel -------------------------------------------------------

TEST(FutureModelTest, StaticModelNeverMoves) {
  FutureWorkloadModel model({.lambda = 0.1, .avg_cost = 50.0,
                             .avg_weight = 2.0});
  model.ObserveArrival(1.0, 500.0, 8.0);
  model.ObserveElapsed(100.0);
  const auto est = model.Current();
  EXPECT_DOUBLE_EQ(est.lambda, 0.1);
  EXPECT_DOUBLE_EQ(est.avg_cost, 50.0);
  EXPECT_DOUBLE_EQ(est.avg_weight, 2.0);
}

TEST(FutureModelTest, AdaptiveConvergesTowardObservations) {
  // Prior lambda' = 0.15 but true arrivals come at 0.03: after many
  // observations the estimate must approach the truth.
  FutureWorkloadModel model({.lambda = 0.15, .avg_cost = 100.0,
                             .avg_weight = 1.0},
                            /*prior_strength=*/10.0);
  SimTime t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += 1.0 / 0.03;
    model.ObserveArrival(t, 40.0, 1.0);
  }
  const auto est = model.Current();
  EXPECT_NEAR(est.lambda, 0.03, 0.005);
  EXPECT_NEAR(est.avg_cost, 40.0, 5.0);
}

TEST(FutureModelTest, QuietPeriodDecaysLambda) {
  FutureWorkloadModel model({.lambda = 0.5, .avg_cost = 100.0,
                             .avg_weight = 1.0},
                            /*prior_strength=*/5.0);
  model.ObserveElapsed(1000.0);  // long silence
  EXPECT_LT(model.Current().lambda, 0.05);
}

TEST(FutureModelTest, PriorStrengthControlsInertia) {
  FutureWorkloadModel weak({.lambda = 0.2, .avg_cost = 100.0,
                            .avg_weight = 1.0},
                           1.0);
  FutureWorkloadModel strong({.lambda = 0.2, .avg_cost = 100.0,
                              .avg_weight = 1.0},
                             100.0);
  for (SimTime t = 10.0; t <= 100.0; t += 10.0) {
    weak.ObserveArrival(t, 100.0, 1.0);    // observed rate 0.1
    strong.ObserveArrival(t, 100.0, 1.0);
  }
  // The weak prior should have moved much closer to 0.1.
  EXPECT_LT(std::fabs(weak.Current().lambda - 0.1),
            std::fabs(strong.Current().lambda - 0.1));
}

// ---- MultiQueryPi ---------------------------------------------------------------

TEST(MultiQueryPiTest, ExactUnderCleanAssumptions) {
  // With perfect statistics and no perturbations the multi-query PI's
  // time-0 estimates equal the standard-case closed form.
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  MultiQueryPi pi(&db);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(300.0));
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(*pi.EstimateRemainingTime(*a), 2.0, 1e-9);
  EXPECT_NEAR(*pi.EstimateRemainingTime(*b), 4.0, 1e-9);
}

TEST(MultiQueryPiTest, QueueAwareSeesQueuedQueries) {
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.max_concurrent = 1;
  sched::Rdbms db(&catalog, options);
  MultiQueryPi aware(&db);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(b.ok());
  // Aware: b runs after a -> 2 s. Blind: cannot see b at all.
  EXPECT_NEAR(*aware.EstimateRemainingTime(*b), 2.0, 1e-9);
  EXPECT_EQ(*sim::QueueBlindEta(db, aware, *db.info(*b)), kInfiniteTime);
  // And a is unaffected by the queue in either view.
  EXPECT_NEAR(*aware.EstimateRemainingTime(*a), 1.0, 1e-9);
  EXPECT_NEAR(*sim::QueueBlindEta(db, aware, *db.info(*a)), 1.0, 1e-9);
}

TEST(MultiQueryPiTest, QueueBlindEtaIsTheClosedFormOverTheRunningSet) {
  // a (100 U) and b (300 U) run at C = 100 U/s; c (100 U) waits behind
  // the admission limit. §2.2 over {a, b} alone: a at 2 s, b at 4 s.
  // The queue-aware PI admits c when a finishes, which pushes b to 5 s;
  // the queue-blind estimate must not.
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.max_concurrent = 2;
  sched::Rdbms db(&catalog, options);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(300.0));
  auto c = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(db.num_queued(), 1);
  const double w = options.weights.WeightOf(Priority::kNormal);
  auto closed = StageProfile::Compute({{*a, 100.0, w}, {*b, 300.0, w}},
                                      options.processing_rate);
  ASSERT_TRUE(closed.ok());
  const SimTime closed_a = *closed->RemainingTimeOf(*a);
  const SimTime closed_b = *closed->RemainingTimeOf(*b);
  ASSERT_NEAR(closed_a, 2.0, 1e-9);
  ASSERT_NEAR(closed_b, 4.0, 1e-9);

  // No future model: the estimate is exactly the closed form.
  {
    MultiQueryPi multi(&db);
    EXPECT_NEAR(*multi.EstimateRemainingTime(*b), 5.0, 1e-9);
    EXPECT_NEAR(*sim::QueueBlindEta(db, multi, *db.info(*a)), closed_a,
                1e-9);
    EXPECT_NEAR(*sim::QueueBlindEta(db, multi, *db.info(*b)), closed_b,
                1e-9);
  }
  // A virtual arrival (300 U every 3 s) is due before the running set
  // quiesces at 4 s. It lands after a finishes, so a keeps its closed
  // form; b has 100 U left at 3 s and shares C with the arrival: 5 s.
  {
    FutureWorkloadModel future(
        {.lambda = 1.0 / 3.0, .avg_cost = 300.0, .avg_weight = w});
    MultiQueryPi multi(&db, {}, &future);
    EXPECT_NEAR(*sim::QueueBlindEta(db, multi, *db.info(*a)), closed_a,
                1e-9);
    EXPECT_NEAR(*sim::QueueBlindEta(db, multi, *db.info(*b)), 5.0, 1e-9);
  }
}

TEST(MultiQueryPiTest, MeasuresEffectiveRate) {
  // Under a thrashing perturbation the configured C is wrong; the PI's
  // measured rate corrects it after a few steps.
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.perturbation.thrash_threshold = 1;
  options.perturbation.thrash_factor = 0.25;
  sched::Rdbms db(&catalog, options);
  MultiQueryPi pi(&db, {.rate_alpha = 1.0, .rate_window = 0.1});
  auto a = db.Submit(QuerySpec::Synthetic(1000.0));
  auto b = db.Submit(QuerySpec::Synthetic(1000.0));
  ASSERT_TRUE(b.ok());
  (void)a;
  for (int i = 0; i < 4; ++i) {
    db.Step(options.quantum);
    pi.ObserveStep();
  }
  // 2 running, threshold 1, factor 0.25 -> effective rate 75.
  EXPECT_NEAR(pi.estimated_rate(), 75.0, 1.0);
}

TEST(MultiQueryPiTest, FutureModelRaisesEstimates) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  FutureWorkloadModel future({.lambda = 0.5, .avg_cost = 100.0,
                              .avg_weight = 2.0});
  MultiQueryPi with(&db, {}, &future);
  MultiQueryPi without(&db, {}, nullptr);
  auto id = db.Submit(QuerySpec::Synthetic(400.0));
  ASSERT_TRUE(id.ok());
  EXPECT_GT(*with.EstimateRemainingTime(*id),
            *without.EstimateRemainingTime(*id) + 1.0);
}

TEST(MultiQueryPiTest, TerminalAndBlockedStates) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  MultiQueryPi pi(&db);
  auto a = db.Submit(QuerySpec::Synthetic(10.0));
  auto b = db.Submit(QuerySpec::Synthetic(500.0));
  ASSERT_TRUE(db.Block(*b).ok());
  EXPECT_EQ(*pi.EstimateRemainingTime(*b), kInfiniteTime);
  db.RunUntilIdle();
  EXPECT_DOUBLE_EQ(*pi.EstimateRemainingTime(*a), 0.0);
  EXPECT_TRUE(pi.EstimateRemainingTime(12345).status().IsNotFound());
}

TEST(MultiQueryPiTest, EstimateTracksActualOverLife) {
  // Run ten synthetic queries; at every second compare the multi-query
  // estimate for the longest query against its eventual actual
  // remaining time. Clean assumptions -> error stays tiny.
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis, {.sample_interval = 1.0});
  std::vector<QueryId> ids;
  for (int i = 1; i <= 10; ++i) {
    auto id = runner.SubmitNow(QuerySpec::Synthetic(60.0 * i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const QueryId longest = ids.back();
  runner.Track(longest);
  runner.RunUntilIdle();
  const SimTime finish = db.info(longest)->finish_time;
  ASSERT_GT(finish, 10.0);
  int checked = 0;
  for (const auto& sample : runner.Trace(longest)) {
    const SimTime actual = finish - sample.time;
    ASSERT_NE(sample.multi, kUnknown);
    EXPECT_NEAR(sample.multi, actual, 0.05 * actual + 0.5)
        << "at t=" << sample.time;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

// ---- PiManager and trace recording (sim::SimulationRunner) -----------------------

TEST(PiManagerTest, TracksTracesAtInterval) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis, {.sample_interval = 0.5});
  auto id = runner.SubmitNow(QuerySpec::Synthetic(200.0));
  ASSERT_TRUE(id.ok());
  runner.Track(*id);
  runner.StepFor(1.0);
  const auto& trace = runner.Trace(*id);
  ASSERT_GE(trace.size(), 2u);
  EXPECT_LE(trace.front().time, 0.5 + 1e-9);
  // Single and multi estimates populated.
  EXPECT_GT(trace.back().multi, 0.0);
  EXPECT_GT(trace.back().single, 0.0);
}

TEST(PiManagerTest, UntrackedQueryHasEmptyTrace) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis);
  auto id = runner.SubmitNow(QuerySpec::Synthetic(200.0));
  ASSERT_TRUE(id.ok());
  runner.StepFor(1.0);  // a sample is due, but nothing is tracked
  EXPECT_TRUE(runner.Trace(*id).empty());
  EXPECT_TRUE(runner.Trace(77).empty());
}

TEST(PiManagerTest, UntrackedQueryReportsUnknown) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  PiManager pis(&db);
  // Ids never submitted are not an error — they report "unknown" so
  // callers need no ordering against submission (service sessions poll
  // arbitrary ids).
  auto untracked = pis.EstimateSingle(77);
  ASSERT_TRUE(untracked.ok());
  EXPECT_EQ(*untracked, kUnknown);
  EXPECT_EQ(pis.SpeedOf(77), 0.0);
}

TEST(PiManagerTest, QueriesSubmittedBeforeAttachReportUnknown) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  auto early = db.Submit(QuerySpec::Synthetic(500.0));
  ASSERT_TRUE(early.ok());
  db.Step();
  // The manager's column is still empty: `early`'s slot lies past it.
  PiManager pis(&db);
  EXPECT_EQ(*pis.EstimateSingle(*early), kUnknown);
  EXPECT_EQ(pis.SpeedOf(*early), 0.0);

  // A later submission grows the column past `early`'s empty slot.
  auto late = db.Submit(QuerySpec::Synthetic(500.0));
  ASSERT_TRUE(late.ok());
  for (int i = 0; i < 60; ++i) {
    db.Step();
    pis.AfterStep();
  }
  EXPECT_EQ(*pis.EstimateSingle(*early), kUnknown);
  EXPECT_EQ(pis.SpeedOf(*early), 0.0);
  EXPECT_GT(pis.SpeedOf(*late), 0.0);
  EXPECT_GT(*pis.EstimateSingle(*late), 0.0);
  for (const QueryId id :
       {QueryId{0}, db.last_query_id() + 1, QueryId{1} << 47}) {
    EXPECT_EQ(*pis.EstimateSingle(id), kUnknown) << id;
    EXPECT_EQ(pis.SpeedOf(id), 0.0) << id;
  }
}

// The per-quantum algorithm PiManager replaced, kept as the reference:
// one SingleQueryPi per submitted id, each fed Observe(db.info(id))
// every quantum, finished and aborted queries included.
class ReferenceSingles {
 public:
  explicit ReferenceSingles(SimTime window) : window_(window) {}
  void Add(QueryId id) {
    pis_.emplace(id, SingleQueryPi(id, /*speed_alpha=*/0.3, window_));
  }
  void AfterStep(const sched::Rdbms& db) {
    for (auto& [id, pi] : pis_) pi.Observe(*db.info(id), db.now());
  }
  // Every reference estimate and speed against the manager's, compared
  // as doubles.
  ::testing::AssertionResult Matches(const PiManager& pis) const {
    for (const auto& [id, pi] : pis_) {
      const SimTime eta = pis.EstimateSingle(id).value_or(kUnknown);
      if (eta != pi.EstimateRemainingTime() || pis.SpeedOf(id) != pi.speed()) {
        return ::testing::AssertionFailure()
               << "query " << id << ": eta " << eta << " vs "
               << pi.EstimateRemainingTime() << ", speed " << pis.SpeedOf(id)
               << " vs " << pi.speed();
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  SimTime window_;
  std::map<QueryId, SingleQueryPi> pis_;
};

TEST(PiManagerTest, SingleQueryPisMatchPerQuantumReference) {
  // PiManager observes only slot holders each quantum and takes each
  // query's final state from its finish/abort event. That must give
  // bit-identical single-query estimates and speeds to observing every
  // query ever submitted every quantum.
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.max_concurrent = 3;  // an MPL cap, so queries queue
  sched::Rdbms db(&catalog, options);
  constexpr SimTime kWindow = 0.2;  // 4 quanta per speed sample
  PiManager pis(&db, {.multi = {}, .single_speed_window = kWindow});
  ReferenceSingles reference(kWindow);

  auto submit = [&](double cost) {
    auto id = db.Submit(QuerySpec::Synthetic(cost));
    EXPECT_TRUE(id.ok());
    reference.Add(*id);
    return *id;
  };
  int quanta = 0;
  auto step = [&](int n) {
    for (int i = 0; i < n; ++i) {
      db.Step();
      pis.AfterStep();
      reference.AfterStep(db);
      ++quanta;
      EXPECT_TRUE(reference.Matches(pis)) << "after quantum " << quanta;
    }
  };
  auto state = [&](QueryId id) { return db.info(id)->state; };

  const QueryId a = submit(400.0);
  const QueryId b = submit(300.0);
  const QueryId c = submit(200.0);
  const QueryId d = submit(150.0);
  const QueryId e = submit(100.0);
  ASSERT_EQ(state(d), sched::QueryState::kQueued);
  ASSERT_EQ(state(e), sched::QueryState::kQueued);
  step(6);

  // Block and resume within one gap: no quantum sees `a` blocked.
  ASSERT_TRUE(db.Block(a).ok());
  ASSERT_TRUE(db.Resume(a).ok());
  ASSERT_TRUE(db.SetPriority(b, Priority::kHigh).ok());
  step(6);

  // A block held across quanta, then a resume.
  ASSERT_TRUE(db.Block(c).ok());
  step(3);
  ASSERT_TRUE(db.Resume(c).ok());
  step(5);

  // Another held block, then aborts of a queued, a blocked and a
  // running query (the blocked one's slot admits `d`).
  ASSERT_TRUE(db.Block(b).ok());
  step(5);
  ASSERT_TRUE(db.Abort(e).ok());  // queued
  ASSERT_TRUE(db.Abort(b).ok());  // blocked
  ASSERT_EQ(state(d), sched::QueryState::kRunning);
  step(5);
  ASSERT_TRUE(db.FastForward(c, 10.0).ok());   // survives
  ASSERT_TRUE(db.FastForward(d, 1e6).ok());    // finishes at once
  ASSERT_EQ(state(d), sched::QueryState::kFinished);
  step(3);
  ASSERT_TRUE(db.Abort(a).ok());  // running
  const QueryId f = submit(50.0);
  const QueryId g = submit(1e4);
  step(80);  // c and f finish mid-quantum; g runs on

  EXPECT_EQ(state(c), sched::QueryState::kFinished);
  EXPECT_EQ(state(f), sched::QueryState::kFinished);
  EXPECT_EQ(state(g), sched::QueryState::kRunning);
  EXPECT_EQ(*pis.EstimateSingle(c), 0.0);
  EXPECT_GT(pis.SpeedOf(a), 0.0);  // aborted, but its history stays
  EXPECT_GT(pis.SpeedOf(g), 0.0);
  EXPECT_LT(*pis.EstimateSingle(g), kInfiniteTime);
}

TEST(PiManagerTest, QueueBlindVariantRecorded) {
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.max_concurrent = 1;
  sched::Rdbms db(&catalog, options);
  PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis,
                               {.sample_interval = 0.5,
                                .record_queue_blind_variant = true});
  auto a = runner.SubmitNow(QuerySpec::Synthetic(100.0));
  auto b = runner.SubmitNow(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(b.ok());
  runner.Track(*a);
  runner.StepFor(0.6);
  const auto& trace = runner.Trace(*a);
  ASSERT_FALSE(trace.empty());
  // Queue-blind estimate exists and (for the running query a) matches
  // the aware one since the queue only affects b's own estimate.
  EXPECT_NE(trace.front().multi_no_queue, kUnknown);
}

TEST(PiManagerTest, SingleVsMultiOnSharedWorkload) {
  // Reproduces the quickstart observation as an assertion: for the
  // longest of three queries, at its first sample the multi-query
  // estimate must be far closer to the actual remaining time.
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, CleanOptions());
  PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis, {.sample_interval = 1.0});
  auto a = runner.SubmitNow(QuerySpec::Synthetic(100.0));
  auto b = runner.SubmitNow(QuerySpec::Synthetic(200.0));
  auto c = runner.SubmitNow(QuerySpec::Synthetic(600.0));
  ASSERT_TRUE(c.ok());
  (void)a;
  (void)b;
  runner.Track(*c);
  runner.RunUntilIdle();
  const SimTime finish = db.info(*c)->finish_time;
  const auto& trace = runner.Trace(*c);
  ASSERT_FALSE(trace.empty());
  const auto& first = trace.front();
  const double actual = finish - first.time;
  EXPECT_LT(RelativeError(first.multi, actual), 0.10);
  EXPECT_GT(RelativeError(first.single, actual), 0.50);
}

// ---- sampling cadence ------------------------------------------------------------

TEST(PiManagerTest, SampleGridSurvivesQuantumOvershoot) {
  // A quantum (0.3) that does not divide the sample interval (1.0)
  // overshoots most grid points. The sampler must keep anchoring to
  // the fixed grid: each sample lands within one quantum after its
  // grid point. (The old code advanced next_sample_ from `now`, so
  // every overshoot shifted all later samples and the drift
  // compounded: samples at 0.3, 1.5, 2.7, 3.9, ...)
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.quantum = 0.3;
  sched::Rdbms db(&catalog, options);
  PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis, {.sample_interval = 1.0});
  auto id = runner.SubmitNow(QuerySpec::Synthetic(2000.0));
  ASSERT_TRUE(id.ok());
  runner.Track(*id);
  runner.StepFor(9.9);  // 33 quanta, grid points 0..9 all pass
  const auto& trace = runner.Trace(*id);
  ASSERT_EQ(trace.size(), 10u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const SimTime offset = trace[i].time - static_cast<SimTime>(i) * 1.0;
    EXPECT_GE(offset, -1e-9) << "sample " << i << " at " << trace[i].time;
    EXPECT_LE(offset, options.quantum + 1e-9)
        << "sample " << i << " at " << trace[i].time;
  }
}

// ---- idle-gap rate handling ------------------------------------------------------

TEST(MultiQueryPiTest, IdleGapFlushesStaleRate) {
  // Two thrashing queries drag the measured rate to 75 U/s. Once the
  // system has been idle for a full rate window, that measurement
  // describes a workload that no longer exists and must be flushed:
  // the PI falls back to the configured rate.
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.perturbation.thrash_threshold = 1;
  options.perturbation.thrash_factor = 0.25;
  sched::Rdbms db(&catalog, options);
  MultiQueryPi pi(&db, {.rate_alpha = 1.0, .rate_window = 0.1});
  auto a = db.Submit(QuerySpec::Synthetic(60.0));
  auto b = db.Submit(QuerySpec::Synthetic(60.0));
  ASSERT_TRUE(b.ok());
  (void)a;
  while (!db.Idle()) {
    db.Step(options.quantum);
    pi.ObserveStep();
  }
  EXPECT_NEAR(pi.estimated_rate(), 75.0, 2.0);
  // Idle quanta spanning at least one full rate window.
  for (int i = 0; i < 4; ++i) {
    db.Step(options.quantum);
    pi.ObserveStep();
  }
  EXPECT_DOUBLE_EQ(pi.estimated_rate(), 100.0);
}

TEST(MultiQueryPiTest, IdleGapDropsPartialRateWindow) {
  // A partial rate window measured before an idle gap must not be
  // concatenated with post-gap consumption: the first completed
  // window after the gap has to measure the new workload only.
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.perturbation.thrash_threshold = 1;
  options.perturbation.thrash_factor = 0.25;
  sched::Rdbms db(&catalog, options);
  MultiQueryPi pi(&db, {.rate_alpha = 1.0, .rate_window = 1.0});
  // Phase 1: one query alone runs at the full 100 U/s for 0.5 s —
  // only half a window, never emitted as a rate sample.
  auto warm = db.Submit(QuerySpec::Synthetic(50.0));
  ASSERT_TRUE(warm.ok());
  while (!db.Idle()) {
    db.Step(options.quantum);
    pi.ObserveStep();
  }
  // Short idle gap (shorter than the window: no flush, but the
  // partial window must be dropped).
  for (int i = 0; i < 2; ++i) {
    db.Step(options.quantum);
    pi.ObserveStep();
  }
  // Phase 2: two queries thrash at 75 U/s. After one full window the
  // measured rate must reflect phase 2 only; splicing the pre-gap
  // fragment in would yield a blended ~86 U/s.
  auto a = db.Submit(QuerySpec::Synthetic(500.0));
  auto b = db.Submit(QuerySpec::Synthetic(500.0));
  ASSERT_TRUE(b.ok());
  (void)a;
  for (int i = 0; i < 24; ++i) {
    db.Step(options.quantum);
    pi.ObserveStep();
  }
  EXPECT_NEAR(pi.estimated_rate(), 75.0, 2.0);
}

// ---- forecast cache --------------------------------------------------------------

TEST(MultiQueryPiTest, CacheCoherentAcrossTransitions) {
  // A cached PI and a cache-disabled PI attached to the same Rdbms
  // must report bit-identical estimates across every load-relevant
  // transition: the epoch key makes the memoization exact, never
  // heuristic.
  storage::Catalog catalog;
  auto options = CleanOptions();
  options.max_concurrent = 3;
  options.weights = PriorityWeights(1.0, 2.0, 4.0, 8.0);
  sched::Rdbms db(&catalog, options);
  // Incremental estimates pinned off: this test is about the forecast
  // cache, so every probe must reach the simulator path.
  MultiQueryPi cached(&db, {.enable_incremental = false});
  MultiQueryPi fresh(
      &db, {.enable_forecast_cache = false, .enable_incremental = false});

  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = db.Submit(QuerySpec::Synthetic(100.0 * (i + 1)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  auto expect_identical = [&](const char* where) {
    for (QueryId id : ids) {
      auto c = cached.EstimateRemainingTime(id);
      auto f = fresh.EstimateRemainingTime(id);
      ASSERT_EQ(c.ok(), f.ok()) << where << " id=" << id;
      if (c.ok()) {
        EXPECT_EQ(*c, *f) << where << " id=" << id;
      }
    }
  };
  auto step = [&](int quanta) {
    for (int i = 0; i < quanta; ++i) {
      db.Step(options.quantum);
      cached.ObserveStep();
      fresh.ObserveStep();
    }
  };

  expect_identical("after submit");
  // Repeated reads within one epoch must hit the cache.
  expect_identical("second read");
  EXPECT_GT(cached.forecast_cache_hits(), 0u);

  step(4);
  expect_identical("after steps");
  ASSERT_TRUE(db.SetPriority(ids[1], Priority::kHigh).ok());
  expect_identical("after reweight");
  ASSERT_TRUE(db.Block(ids[0]).ok());
  expect_identical("after block");
  step(3);
  ASSERT_TRUE(db.Resume(ids[0]).ok());
  expect_identical("after resume");
  ASSERT_TRUE(db.Abort(ids[2]).ok());
  expect_identical("after abort");
  auto late = db.Submit(QuerySpec::Synthetic(50.0));
  ASSERT_TRUE(late.ok());
  ids.push_back(*late);
  expect_identical("after late submit");
  step(30);
  expect_identical("after more steps");

  // The cached PI must have answered most probes from the cache: one
  // simulation per epoch, not one per estimate call.
  EXPECT_LT(cached.forecast_cache_misses(),
            cached.forecast_cache_hits());
}

TEST(PiManagerTest, OneForecastPerQuantumWhenSampling) {
  // 20 tracked queries sampled every quantum, incremental engine
  // pinned off: the batched estimate path must run one analytic
  // simulation per quantum, not one per query (the old per-call path
  // was O(n^2 log n) per quantum).
  storage::Catalog catalog;
  auto options = CleanOptions();
  sched::Rdbms db(&catalog, options);
  PiManagerOptions pm_options;
  pm_options.multi.enable_incremental = false;
  PiManager pis(&db, pm_options);
  sim::SimulationRunner runner(&db, &pis,
                               {.sample_interval = options.quantum});
  for (int i = 0; i < 20; ++i) {
    auto id = runner.SubmitNow(QuerySpec::Synthetic(1000.0));
    ASSERT_TRUE(id.ok());
    runner.Track(*id);
  }
  runner.StepFor(0.5);  // 10 quanta, each samples all 20 queries
  const MultiQueryPi* multi = pis.multi();
  EXPECT_LE(multi->forecast_cache_misses(), 11u);
  EXPECT_GE(multi->forecast_cache_hits(), 20u * 10u - 11u);
  // A full pass over every query right now costs zero extra
  // simulations: the epoch has not moved since the last sample.
  const std::uint64_t misses_before = multi->forecast_cache_misses();
  for (const auto& info : db.AllQueries()) {
    EXPECT_TRUE(multi->EstimateRemainingTime(info).ok());
  }
  EXPECT_EQ(multi->forecast_cache_misses(), misses_before);
}

TEST(PiManagerTest, SteadyStateSamplingNeedsNoSimulationAtAll) {
  // Same workload with the incremental engine on (the default): after
  // the first quantum's rebuild, every running-query estimate is an
  // O(log n) point query — zero simulations, zero cache traffic in
  // steady state.
  storage::Catalog catalog;
  auto options = CleanOptions();
  sched::Rdbms db(&catalog, options);
  PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis,
                               {.sample_interval = options.quantum});
  for (int i = 0; i < 20; ++i) {
    auto id = runner.SubmitNow(QuerySpec::Synthetic(1000.0));
    ASSERT_TRUE(id.ok());
    runner.Track(*id);
  }
  runner.StepFor(0.5);  // 10 quanta, each samples all 20 queries
  const MultiQueryPi* multi = pis.multi();
  EXPECT_GE(multi->incremental_fast_path(), 20u * 9u);
  // Early probes (before the first ObserveStep syncs the engine) may
  // fall back, but steady state must not.
  EXPECT_LE(multi->incremental_fallback(), 20u * 1u);
  const std::uint64_t fallback_before = multi->incremental_fallback();
  const std::uint64_t misses_before = multi->forecast_cache_misses();
  for (const auto& info : db.AllQueries()) {
    EXPECT_TRUE(multi->EstimateRemainingTime(info).ok());
  }
  EXPECT_EQ(multi->incremental_fallback(), fallback_before);
  EXPECT_EQ(multi->forecast_cache_misses(), misses_before);
}

}  // namespace
}  // namespace mqpi::pi
