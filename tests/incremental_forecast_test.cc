// Differential tests for the incremental virtual-time forecast engine.
//
// The engine's exactness contract (incremental_forecast.h): every
// query answer must equal a from-scratch StageProfile::Compute over
// the equivalent (cost, weight) set up to float rounding. The suite
// pins that contract at three levels —
//  * engine unit: static sets and O(1) Advance vs recomputed profiles,
//  * engine soak: a random interleaving of insert / remove / update /
//    advance checked against a shadow model after every operation,
//  * system soak: a MultiQueryPi with the incremental fast path on vs
//    a pinned simulator-only reference PI observing the same Rdbms,
//    through lifecycle churn that forces fast-path <-> fallback
//    transitions both ways.
// Plus the load-validation and what-if composition rules that ride on
// the same machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "common/random.h"
#include "pi/analytic_simulator.h"
#include "pi/incremental_forecast.h"
#include "pi/multi_query_pi.h"
#include "pi/stage_profile.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"
#include "storage/tpcr_gen.h"
#include "workload/zipf_workload.h"

namespace mqpi::pi {
namespace {

using engine::QuerySpec;

// Documented engine tolerance: a few ULP of the v = X + c/w round
// trip. Scaled-relative with a floor of 1.0 so near-zero remainders
// compare absolutely.
constexpr double kEngineRelTol = 1e-9;

void ExpectClose(double expected, double actual, const char* what,
                 double tol = kEngineRelTol) {
  if (expected == kInfiniteTime || actual == kInfiniteTime) {
    EXPECT_EQ(expected, actual) << what;
    return;
  }
  EXPECT_NEAR(expected, actual, tol * std::max(1.0, std::fabs(expected)))
      << what;
}

// Asserts every engine answer against a from-scratch stage profile
// over the same load.
void ExpectMatchesProfile(const IncrementalForecast& engine,
                          const std::vector<QueryLoad>& loads, double rate,
                          const char* where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(engine.size(), loads.size());
  auto profile = StageProfile::Compute(loads, rate);
  ASSERT_TRUE(profile.ok());
  for (const QueryLoad& q : loads) {
    auto r = engine.RemainingTime(q.id, rate);
    ASSERT_TRUE(r.ok()) << "id " << q.id;
    ExpectClose(*profile->RemainingTimeOf(q.id), *r, "remaining time");
    auto c = engine.CostOf(q.id);
    ASSERT_TRUE(c.ok());
    ExpectClose(q.remaining_cost, *c, "cost");
    auto w = engine.WeightOf(q.id);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(q.weight, *w);
  }
  ExpectClose(profile->quiescent_time(), engine.QuiescentTime(rate),
              "quiescent");
  double total_w = 0.0;
  for (const QueryLoad& q : loads) total_w += q.weight;
  ExpectClose(total_w, engine.total_weight(), "total weight");
  // Finish order must match the profile's (same (v, id) tie-break).
  const auto entries = engine.Entries();
  ASSERT_EQ(entries.size(), loads.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(profile->finish_order()[i].id, entries[i].id)
        << "finish position " << i;
  }
}

// ---- engine unit ----------------------------------------------------------------

TEST(IncrementalForecastTest, MatchesStageProfileOnStaticSet) {
  IncrementalForecast engine;
  std::vector<QueryLoad> loads{
      {1, 100.0, 1.0}, {2, 500.0, 2.0}, {3, 50.0, 4.0}, {4, 300.0, 1.0}};
  for (const QueryLoad& q : loads) {
    ASSERT_TRUE(engine.Insert(q.id, q.remaining_cost, q.weight).ok());
  }
  ExpectMatchesProfile(engine, loads, 100.0, "static set");
  // Multiple rates against the same structure.
  ExpectMatchesProfile(engine, loads, 7.5, "static set, other rate");
}

TEST(IncrementalForecastTest, AdvanceEqualsRecomputedProfile) {
  IncrementalForecast engine;
  std::vector<QueryLoad> loads{
      {1, 120.0, 1.0}, {2, 480.0, 3.0}, {3, 90.0, 2.0}};
  for (const QueryLoad& q : loads) {
    ASSERT_TRUE(engine.Insert(q.id, q.remaining_cost, q.weight).ok());
  }
  // One O(1) bump of half the smallest c/w ratio: every query loses
  // dx of progress per unit weight.
  double min_ratio = kInfiniteTime;
  for (const QueryLoad& q : loads) {
    min_ratio = std::min(min_ratio, q.remaining_cost / q.weight);
  }
  const double dx = 0.5 * min_ratio;
  engine.Advance(dx);
  for (QueryLoad& q : loads) q.remaining_cost -= q.weight * dx;
  ExpectMatchesProfile(engine, loads, 100.0, "after advance");
}

TEST(IncrementalForecastTest, LifecycleEditsStayExact) {
  IncrementalForecast engine;
  std::vector<QueryLoad> loads{{1, 200.0, 1.0}, {2, 600.0, 2.0}};
  for (const QueryLoad& q : loads) {
    ASSERT_TRUE(engine.Insert(q.id, q.remaining_cost, q.weight).ok());
  }
  // Arrival mid-run.
  ASSERT_TRUE(engine.Insert(3, 150.0, 4.0).ok());
  loads.push_back({3, 150.0, 4.0});
  ExpectMatchesProfile(engine, loads, 50.0, "after insert");
  // Reweight (priority change re-anchors cost at the current offset).
  ASSERT_TRUE(engine.Update(2, 600.0, 8.0).ok());
  loads[1].weight = 8.0;
  ExpectMatchesProfile(engine, loads, 50.0, "after reweight");
  // Abort.
  ASSERT_TRUE(engine.Remove(1).ok());
  loads.erase(loads.begin());
  ExpectMatchesProfile(engine, loads, 50.0, "after remove");
  EXPECT_FALSE(engine.Remove(1).ok());
  EXPECT_FALSE(engine.Update(99, 1.0, 1.0).ok());
  EXPECT_FALSE(engine.Insert(3, 1.0, 1.0).ok());  // duplicate
  EXPECT_FALSE(engine.Insert(7, -1.0, 1.0).ok());
  EXPECT_FALSE(engine.Insert(7, 1.0, 0.0).ok());
}

TEST(IncrementalForecastTest, RemovalBenefitMatchesTwoProfilesAndIsAdditive) {
  IncrementalForecast engine;
  std::vector<QueryLoad> loads{
      {1, 300.0, 1.0}, {2, 100.0, 2.0}, {3, 700.0, 1.0}, {4, 250.0, 3.0}};
  for (const QueryLoad& q : loads) {
    ASSERT_TRUE(engine.Insert(q.id, q.remaining_cost, q.weight).ok());
  }
  const double rate = 40.0;
  auto remaining_without = [&](QueryId target,
                               const std::vector<QueryId>& removed) {
    std::vector<QueryLoad> rest;
    for (const QueryLoad& q : loads) {
      if (std::find(removed.begin(), removed.end(), q.id) == removed.end()) {
        rest.push_back(q);
      }
    }
    auto profile = StageProfile::Compute(rest, rate);
    EXPECT_TRUE(profile.ok());
    return *profile->RemainingTimeOf(target);
  };
  auto base = engine.RemainingTime(1, rate);
  ASSERT_TRUE(base.ok());
  // Single victims: engine point query == difference of two profiles.
  for (QueryId victim : {QueryId{2}, QueryId{3}, QueryId{4}}) {
    auto benefit = engine.RemovalBenefit(1, victim, rate);
    ASSERT_TRUE(benefit.ok());
    ExpectClose(*base - remaining_without(1, {victim}), *benefit,
                "single victim");
  }
  // Additivity: the summed point queries equal the all-removed profile
  // exactly (in-model additivity, speedup.h header note).
  auto b2 = engine.RemovalBenefit(1, 2, rate);
  auto b3 = engine.RemovalBenefit(1, 3, rate);
  ASSERT_TRUE(b2.ok() && b3.ok());
  ExpectClose(*base - remaining_without(1, {2, 3}), *b2 + *b3,
              "two victims");
  EXPECT_FALSE(engine.RemovalBenefit(1, 1, rate).ok());
  EXPECT_FALSE(engine.RemovalBenefit(1, 42, rate).ok());
}

TEST(IncrementalForecastTest, RenormalizationKeepsAnswersStable) {
  // Drive the offset far past the renormalization threshold with a
  // rolling population; answers must stay within tolerance throughout.
  IncrementalForecast engine;
  Rng rng(20260806);
  std::map<QueryId, QueryLoad> shadow;
  QueryId next_id = 1;
  for (int i = 0; i < 8; ++i) {
    const QueryLoad q{next_id++, rng.Uniform(50.0, 500.0),
                      rng.Uniform(0.5, 4.0)};
    ASSERT_TRUE(engine.Insert(q.id, q.remaining_cost, q.weight).ok());
    shadow[q.id] = q;
  }
  for (int round = 0; round < 4000; ++round) {
    // Advance by most of the smallest ratio, retire it, replace it.
    QueryId first = kInvalidQueryId;
    double min_ratio = kInfiniteTime;
    for (const auto& [id, q] : shadow) {
      const double ratio = q.remaining_cost / q.weight;
      if (ratio < min_ratio) {
        min_ratio = ratio;
        first = id;
      }
    }
    const double dx = 0.99 * min_ratio;
    engine.Advance(dx);
    for (auto& [id, q] : shadow) q.remaining_cost -= q.weight * dx;
    ASSERT_TRUE(engine.Remove(first).ok());
    shadow.erase(first);
    const QueryLoad q{next_id++, rng.Uniform(50.0, 500.0),
                      rng.Uniform(0.5, 4.0)};
    ASSERT_TRUE(engine.Insert(q.id, q.remaining_cost, q.weight).ok());
    shadow[q.id] = q;
  }
  // The offset was renormalized at least once along the way (it only
  // grows between renorms and resets to < threshold after).
  std::vector<QueryLoad> loads;
  for (const auto& [id, q] : shadow) loads.push_back(q);
  auto profile = StageProfile::Compute(loads, 100.0);
  ASSERT_TRUE(profile.ok());
  for (const QueryLoad& q : loads) {
    auto r = engine.RemainingTime(q.id, 100.0);
    ASSERT_TRUE(r.ok());
    // Looser tolerance: 4000 rounds of subtractive cancellation in the
    // shadow model itself contribute most of the drift.
    ExpectClose(*profile->RemainingTimeOf(q.id), *r, "post-renorm", 1e-6);
  }
}

// ---- engine soak ----------------------------------------------------------------

class EngineSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineSoakTest, RandomOpsMatchShadowProfileAfterEveryOp) {
  Rng rng(31000 + static_cast<std::uint64_t>(GetParam()));
  IncrementalForecast engine;
  std::map<QueryId, QueryLoad> shadow;  // ordered: deterministic picks
  QueryId next_id = 1;
  const double rate = rng.Uniform(10.0, 500.0);

  auto pick = [&]() -> QueryId {
    auto it = shadow.begin();
    std::advance(it, rng.UniformInt(
                         0, static_cast<std::int64_t>(shadow.size()) - 1));
    return it->first;
  };
  for (int op = 0; op < 600; ++op) {
    switch (shadow.empty() ? 0 : rng.UniformInt(0, 5)) {
      case 0:
      case 1: {  // insert
        const QueryLoad q{next_id++, rng.Uniform(0.0, 400.0),
                          rng.Uniform(0.25, 8.0)};
        ASSERT_TRUE(engine.Insert(q.id, q.remaining_cost, q.weight).ok());
        shadow[q.id] = q;
        break;
      }
      case 2: {  // remove
        const QueryId id = pick();
        ASSERT_TRUE(engine.Remove(id).ok());
        shadow.erase(id);
        break;
      }
      case 3: {  // update (reweight and/or cost re-estimate)
        const QueryId id = pick();
        QueryLoad& q = shadow[id];
        q.remaining_cost = rng.Uniform(0.0, 400.0);
        q.weight = rng.Uniform(0.25, 8.0);
        ASSERT_TRUE(engine.Update(id, q.remaining_cost, q.weight).ok());
        break;
      }
      default: {  // advance, staying short of the first finisher
        double min_ratio = kInfiniteTime;
        for (const auto& [id, q] : shadow) {
          min_ratio = std::min(min_ratio, q.remaining_cost / q.weight);
        }
        if (min_ratio <= 0.0) break;  // a zero-cost query is "finishing"
        const double dx = rng.Uniform(0.0, 0.95 * min_ratio);
        engine.Advance(dx);
        for (auto& [id, q] : shadow) q.remaining_cost -= q.weight * dx;
        break;
      }
    }
    std::vector<QueryLoad> loads;
    for (const auto& [id, q] : shadow) loads.push_back(q);
    ExpectMatchesProfile(engine, loads, rate, "soak step");
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EngineSoakTest, ::testing::Range(0, 4));

// ---- load validation (analytic simulator) ---------------------------------------

TEST(AnalyticSimulatorTest, RejectsDuplicateIdsAcrossAllSources) {
  AnalyticModelOptions options;
  options.rate = 100.0;
  const std::vector<QueryLoad> running{{1, 10.0, 1.0}, {2, 20.0, 1.0}};
  // Duplicate within the running set.
  {
    auto r = AnalyticSimulator::Forecast({{1, 10.0, 1.0}, {1, 5.0, 1.0}}, {},
                                         {}, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Running vs queued.
  {
    auto r =
        AnalyticSimulator::Forecast(running, {{2, 5.0, 1.0}}, {}, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Queued vs future arrival.
  {
    auto r = AnalyticSimulator::Forecast(
        running, {{3, 5.0, 1.0}}, {FutureArrival{1.0, 5.0, 1.0, 3}}, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Virtual arrivals (kInvalidQueryId) are exempt from uniqueness.
  {
    auto r = AnalyticSimulator::Forecast(
        running, {},
        {FutureArrival{1.0, 5.0, 1.0, kInvalidQueryId},
         FutureArrival{2.0, 5.0, 1.0, kInvalidQueryId}},
        options);
    EXPECT_TRUE(r.ok());
  }
}

// ---- system soak: fast path vs simulator ----------------------------------------

sched::RdbmsOptions SoakOptions(Rng* rng) {
  sched::RdbmsOptions options;
  options.processing_rate = rng->Uniform(50.0, 200.0);
  options.quantum = 0.1;
  // Small admission limit: bursts queue up (fast path ineligible),
  // drains empty the queue (fast path eligible) — both transitions
  // exercised.
  options.max_concurrent = static_cast<int>(rng->UniformInt(2, 4));
  options.cost_model.noise_sigma = 0.1;
  return options;
}

// Random lifecycle churn over one Rdbms, with a MultiQueryPi on the
// incremental fast path checked after every operation against a
// simulator-only reference PI. `next_spec` draws each submitted query;
// a positive `max_concurrent` replaces SoakOptions' admission limit.
void RunDifferentialSoak(std::uint64_t seed, const storage::Catalog* catalog,
                         const std::function<QuerySpec(Rng*)>& next_spec,
                         int max_concurrent = 0) {
  Rng rng(seed);
  auto options = SoakOptions(&rng);
  if (max_concurrent > 0) options.max_concurrent = max_concurrent;
  sched::Rdbms db(catalog, options);
  MultiQueryPi inc(&db, {});  // incremental fast path on (default)
  MultiQueryPi ref(&db, {.enable_incremental = false});
  inc.AttachLifecycleEvents(&db);

  // Estimates from both PIs must agree after every event — fast path
  // or fallback, the answer is the same within float tolerance. The
  // simulator integrates progress event by event while the engine
  // carries one offset, so the system-level tolerance is looser than
  // the engine-level one.
  auto expect_agreement = [&](int op) {
    for (const auto& info : db.AllQueries()) {
      auto a = inc.EstimateRemainingTime(info);
      auto b = ref.EstimateRemainingTime(info);
      ASSERT_EQ(a.ok(), b.ok()) << "op " << op << " id " << info.id;
      if (!a.ok()) continue;
      if (*a == kInfiniteTime || *b == kInfiniteTime || *a == kUnknown ||
          *b == kUnknown) {
        EXPECT_EQ(*a, *b) << "op " << op << " id " << info.id;
      } else {
        EXPECT_NEAR(*a, *b, 1e-6 * std::max(1.0, std::fabs(*b)))
            << "op " << op << " id " << info.id;
      }
    }
    auto qa = inc.QuiescentEta();
    auto qb = ref.QuiescentEta();
    ASSERT_EQ(qa.ok(), qb.ok()) << "op " << op;
    if (qa.ok() && *qa != kInfiniteTime && *qb != kInfiniteTime) {
      EXPECT_NEAR(*qa, *qb, 1e-6 * std::max(1.0, std::fabs(*qb)))
          << "op " << op << " quiescent";
    }
  };

  std::vector<QueryId> ids;
  for (int op = 0; op < 300; ++op) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2: {  // submit (occasionally a burst that overflows admission)
        const int burst = rng.NextDouble() < 0.2 ? 4 : 1;
        for (int i = 0; i < burst; ++i) {
          auto id = db.Submit(next_spec(&rng),
                              static_cast<Priority>(rng.UniformInt(0, 3)));
          ASSERT_TRUE(id.ok());
          ids.push_back(*id);
        }
        break;
      }
      case 3: {
        if (!ids.empty()) {
          db.Block(ids[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 4: {
        if (!ids.empty()) {
          db.Resume(ids[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 5: {
        if (!ids.empty()) {
          db.Abort(ids[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 6: {
        if (!ids.empty()) {
          db.SetPriority(
              ids[static_cast<std::size_t>(rng.UniformInt(
                  0, static_cast<std::int64_t>(ids.size()) - 1))],
              static_cast<Priority>(rng.UniformInt(0, 3)));
        }
        break;
      }
      default: {  // step 1-8 quanta (longer runs drain the queue)
        const int quanta = static_cast<int>(rng.UniformInt(1, 8));
        for (int i = 0; i < quanta; ++i) {
          db.Step(options.quantum);
          inc.ObserveStep();
          ref.ObserveStep();
        }
        break;
      }
    }
    expect_agreement(op);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at op " << op;
    }
  }
  // The churn must have exercised both regimes.
  EXPECT_GT(inc.incremental_fast_path(), 0u);
  EXPECT_GT(inc.incremental_fallback(), 0u);
  EXPECT_GT(inc.incremental_resyncs(), 0u);
}

class PiDifferentialSoakTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    tpcr_ = new TpcrFixture();
    ASSERT_TRUE(tpcr_->workload.MaterializeTables().ok());
  }
  static void TearDownTestSuite() {
    delete tpcr_;
    tpcr_ = nullptr;
  }

  std::uint64_t Seed() const {
    return 47000 + static_cast<std::uint64_t>(GetParam());
  }

  struct TpcrFixture {
    storage::Catalog catalog;
    storage::TpcrGenerator generator{
        {.num_part_keys = 300, .matches_per_key = 4, .seed = 6}};
    workload::ZipfWorkload workload{
        &catalog, &generator, {.max_rank = 6, .a = 2.0, .n_scale = 1}};
  };
  static TpcrFixture* tpcr_;
};

PiDifferentialSoakTest::TpcrFixture* PiDifferentialSoakTest::tpcr_ = nullptr;

TEST_P(PiDifferentialSoakTest, IncrementalMatchesSimulatorThroughChurn) {
  storage::Catalog catalog;
  RunDifferentialSoak(Seed(), &catalog, [](Rng* rng) {
    return QuerySpec::Synthetic(rng->Uniform(5.0, 200.0));
  });
}

// TPC-R queries, unlike synthetic ones, can keep running for several
// quanta at a refined remaining cost of 0 (every driver row seen, the
// last operator step still pending, served last on a negative
// deficit). The engine's progress bump must not carry such a query
// below zero, or its negative remainder shortens every later query's
// fast-path estimate. The SCQ experiments' admission limit of 10 keeps
// the queue empty often enough for the fast path to serve.
TEST_P(PiDifferentialSoakTest, TpcrQueriesMatchSimulatorThroughChurn) {
  RunDifferentialSoak(
      Seed(), &tpcr_->catalog,
      [](Rng* rng) { return tpcr_->workload.SampleSpec(rng); },
      /*max_concurrent=*/10);
}

INSTANTIATE_TEST_SUITE_P(Random, PiDifferentialSoakTest,
                         ::testing::Range(0, 4));

// ---- point what-if vs full what-if ----------------------------------------------

TEST(IncrementalWhatIfTest, PointWhatIfMatchesFullForecast) {
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.05;
  options.cost_model.noise_sigma = 0.0;
  sched::Rdbms db(&catalog, options);
  MultiQueryPi pi(&db, {});
  pi.AttachLifecycleEvents(&db);

  std::vector<QueryId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = db.Submit(QuerySpec::Synthetic(100.0 + 70.0 * i),
                        static_cast<Priority>(i % 3));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  db.Step(options.quantum);
  pi.ObserveStep();  // sync the engine: queue empty, fast path ready
  const std::uint64_t fast_before = pi.incremental_fast_path();

  auto expect_matches = [&](const MultiQueryPi::WhatIf& scenario,
                            QueryId target, const char* what) {
    auto point = pi.EstimateWhatIf(scenario, target);
    auto full = pi.ForecastWhatIf(scenario);
    ASSERT_TRUE(point.ok()) << what;
    ASSERT_TRUE(full.ok()) << what;
    auto expected = full->FinishTimeOf(target);
    ASSERT_TRUE(expected.ok()) << what;
    EXPECT_NEAR(*expected, *point,
                1e-9 * std::max(1.0, std::fabs(*expected)))
        << what;
  };
  expect_matches({.blocked = {ids[1]}, .aborted = {}, .reweighted = {}},
                 ids[0], "single block");
  expect_matches(
      {.blocked = {}, .aborted = {ids[2], ids[4]}, .reweighted = {}},
      ids[0], "two aborts");
  expect_matches(
      {.blocked = {ids[1]}, .aborted = {ids[5]}, .reweighted = {}}, ids[3],
      "mixed removal");
  // A duplicated victim across both lists is still one removal.
  expect_matches(
      {.blocked = {ids[1]}, .aborted = {ids[1]}, .reweighted = {}}, ids[0],
      "duplicate victim");
  // Ids absent from the load are ignored, like ForecastWhatIf.
  expect_matches(
      {.blocked = {ids[1], 9999}, .aborted = {}, .reweighted = {}}, ids[0],
      "absent victim");
  // Pure removals above were answered from the engine.
  EXPECT_GT(pi.incremental_fast_path(), fast_before);
  // Reweight scenarios fall back to the simulator — and still match.
  expect_matches(
      {.blocked = {ids[1]}, .aborted = {}, .reweighted = {{ids[2], 6.0}}},
      ids[0], "reweight fallback");
  // Removing the target itself is NotFound either way.
  auto gone = pi.EstimateWhatIf(
      {.blocked = {}, .aborted = {ids[0]}, .reweighted = {}}, ids[0]);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mqpi::pi
