// Differential suite for the engine's estimate-all sweep
// (IncrementalForecast::EstimateAll over pi/batch_kernel.h): analytic
// simulator vs. point query vs. batch row over the same load, across
// chaos soak regimes and the degenerate shapes that stress the
// finish-ordered view (empty, singleton, zero cost, exact threshold
// ties, post-renormalize), plus the view's rebuild accounting. Every
// test in the suite runs twice — once under CPU-feature SIMD dispatch
// and once pinned to the portable scalar sweep — so the vector paths
// are held to the same contract as the reference implementation.
//
// A point query and its batch row run the same sweep over the same
// view, so they must agree bit for bit. Simulator vs. batch layers
// event-replay rounding on top (1e-6, as in
// incremental_forecast_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "pi/analytic_simulator.h"
#include "pi/batch_kernel.h"
#include "pi/incremental_forecast.h"
#include "pi/stage_profile.h"

namespace mqpi::pi {
namespace {

constexpr double kSimulatorRelTol = 1e-6;

void ExpectClose(double expected, double actual, const char* what,
                 double tol) {
  if (expected == kInfiniteTime || actual == kInfiniteTime) {
    EXPECT_EQ(expected, actual) << what;
    return;
  }
  EXPECT_NEAR(expected, actual, tol * std::max(1.0, std::fabs(expected)))
      << what;
}

// Runs one EstimateAll and pins it three ways:
//  * shape: id-sorted, one row per live query;
//  * vs. point query: every row is bit-identical to RemainingTime;
//  * vs. simulator: every row equals a from-scratch event replay of
//    the current clamped load (no arrivals, so forecast finish times
//    are remaining times).
void ExpectThreeWayMatch(const IncrementalForecast& engine, double rate,
                         const char* where) {
  SCOPED_TRACE(where);
  const IncrementalForecast::Batch batch = engine.EstimateAll(rate);
  ASSERT_EQ(batch.size, engine.size());
  const std::vector<QueryId> ids(batch.ids, batch.ids + batch.size);
  const std::vector<SimTime> etas(batch.etas, batch.etas + batch.size);
  const std::vector<QueryLoad> loads = engine.Entries();

  AnalyticModelOptions model;
  model.rate = rate;
  model.horizon = kInfiniteTime;
  auto simulated = AnalyticSimulator::Forecast(loads, {}, {}, model);
  ASSERT_TRUE(simulated.ok());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(ids[i - 1], ids[i]) << "ids not ascending";
    }
    auto point = engine.RemainingTime(ids[i], rate);
    ASSERT_TRUE(point.ok()) << "id " << ids[i];
    EXPECT_EQ(*point, etas[i]) << "point vs batch, id " << ids[i];
    auto sim = simulated->FinishTimeOf(ids[i]);
    ASSERT_TRUE(sim.ok()) << "id " << ids[i];
    ExpectClose(*sim, etas[i], "simulator vs batch", kSimulatorRelTol);
  }
}

// Each test runs with SIMD dispatch (param false) and pinned scalar
// (param true).
class BatchKernelTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { ForceScalar(GetParam()); }
  void TearDown() override { ForceScalar(false); }
};

TEST_P(BatchKernelTest, ForceScalarPinsDispatch) {
  if (GetParam()) {
    EXPECT_STREQ(ActiveIsaName(), "scalar");
  } else {
    // Whatever the CPU offers; the differential tests below hold it to
    // the same numbers either way.
    SUCCEED() << ActiveIsaName();
  }
}

TEST_P(BatchKernelTest, EmptyEngine) {
  IncrementalForecast engine;
  const auto batch = engine.EstimateAll(100.0);
  EXPECT_EQ(batch.size, 0u);
  ExpectThreeWayMatch(engine, 100.0, "empty");
}

TEST_P(BatchKernelTest, SingleQuery) {
  IncrementalForecast engine;
  ASSERT_TRUE(engine.Insert(7, 300.0, 1.5).ok());
  ExpectThreeWayMatch(engine, 100.0, "singleton");
  const auto batch = engine.EstimateAll(100.0);
  ASSERT_EQ(batch.size, 1u);
  EXPECT_EQ(batch.ids[0], 7u);
  EXPECT_NEAR(batch.etas[0], 3.0, 1e-12);  // alone: 300 U at the full rate
}

TEST_P(BatchKernelTest, ZeroCostQueries) {
  IncrementalForecast engine;
  ASSERT_TRUE(engine.Insert(1, 0.0, 1.0).ok());
  ASSERT_TRUE(engine.Insert(2, 100.0, 1.0).ok());
  ASSERT_TRUE(engine.Insert(3, 0.0, 4.0).ok());
  ExpectThreeWayMatch(engine, 50.0, "zero-cost mix");
  const auto batch = engine.EstimateAll(50.0);
  ASSERT_EQ(batch.size, 3u);
  EXPECT_EQ(batch.etas[0], 0.0);  // id 1
  EXPECT_EQ(batch.etas[2], 0.0);  // id 3
  EXPECT_GT(batch.etas[1], 0.0);  // id 2 still has work
}

TEST_P(BatchKernelTest, ExactThresholdTies) {
  // Four queries with identical v = c/w land on the same threshold;
  // the (v, id) tie-break must produce one well-defined prefix order
  // shared by profile, point query, and batch row.
  IncrementalForecast engine;
  ASSERT_TRUE(engine.Insert(4, 200.0, 2.0).ok());
  ASSERT_TRUE(engine.Insert(2, 100.0, 1.0).ok());
  ASSERT_TRUE(engine.Insert(9, 400.0, 4.0).ok());
  ASSERT_TRUE(engine.Insert(5, 100.0, 1.0).ok());
  ExpectThreeWayMatch(engine, 100.0, "exact ties");
  // Equal-threshold queries all retire at the same instant.
  const auto batch = engine.EstimateAll(100.0);
  ASSERT_EQ(batch.size, 4u);
  for (std::size_t i = 1; i < batch.size; ++i) {
    EXPECT_NEAR(batch.etas[0], batch.etas[i], 1e-9);
  }
}

TEST_P(BatchKernelTest, SurvivesRenormalization) {
  IncrementalForecast engine;
  ASSERT_TRUE(engine.Insert(1, 5e6, 1.0).ok());
  ASSERT_TRUE(engine.Insert(2, 9e6, 2.0).ok());
  ExpectThreeWayMatch(engine, 1000.0, "before renorm");
  const std::uint64_t regens_before = engine.regens();
  // Drive X past the renormalization threshold (but below the smallest
  // live threshold). The rebase rewrites every absolute v, so the
  // view must be rebuilt — a stale view would answer from the old
  // basis with the new offset and be wildly wrong.
  engine.Advance(2e6);
  ExpectThreeWayMatch(engine, 1000.0, "after renorm");
  EXPECT_EQ(engine.regens(), regens_before + 1);
}

TEST_P(BatchKernelTest, HitsAndRegensAccounting) {
  IncrementalForecast engine;
  ASSERT_TRUE(engine.Insert(1, 100.0, 1.0).ok());
  ASSERT_TRUE(engine.Insert(2, 300.0, 1.0).ok());
  EXPECT_EQ(engine.hits(), 0u);
  EXPECT_EQ(engine.regens(), 0u);

  engine.EstimateAll(100.0);  // the inserts left the view dirty
  EXPECT_EQ(engine.regens(), 1u);
  EXPECT_EQ(engine.hits(), 0u);

  engine.EstimateAll(100.0);  // unchanged structure: pure sweep
  engine.EstimateAll(50.0);   // rate is a per-call scalar
  EXPECT_EQ(engine.regens(), 1u);
  EXPECT_EQ(engine.hits(), 2u);

  engine.Advance(10.0);       // progress only: the view stays valid
  engine.EstimateAll(100.0);
  EXPECT_EQ(engine.regens(), 1u);
  EXPECT_EQ(engine.hits(), 3u);

  ASSERT_TRUE(engine.Insert(3, 50.0, 2.0).ok());  // structural: regen
  engine.EstimateAll(100.0);
  EXPECT_EQ(engine.regens(), 2u);
  EXPECT_EQ(engine.hits(), 3u);

  ASSERT_TRUE(engine.Remove(1).ok());
  ASSERT_TRUE(engine.Update(2, 250.0, 3.0).ok());
  engine.EstimateAll(100.0);  // both edits fold into one rebuild
  EXPECT_EQ(engine.regens(), 3u);
  EXPECT_EQ(engine.hits(), 3u);
}

// Every read the engine offers, once per live id where it takes one.
void ReadEverything(const IncrementalForecast& engine, double rate) {
  const std::vector<QueryLoad> entries = engine.Entries();
  for (const QueryLoad& q : entries) {
    ASSERT_TRUE(engine.RemainingTime(q.id, rate).ok());
    ASSERT_TRUE(engine.CostOf(q.id).ok());
    ASSERT_TRUE(engine.WeightOf(q.id).ok());
    if (q.id != entries.front().id) {
      ASSERT_TRUE(engine.RemovalBenefit(entries.front().id, q.id, rate).ok());
    }
  }
  engine.QuiescentTime(rate);
  engine.total_weight();
  engine.EstimateAll(rate);
}

TEST_P(BatchKernelTest, EditRunThenReadsCostsOneRebuild) {
  Rng rng(9091);
  IncrementalForecast engine;
  std::vector<QueryId> live;
  QueryId next_id = 1;
  for (int run = 0; run < 40; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    // A run of 1-12 edits in any mix, ids in and out of order.
    const int edits = static_cast<int>(rng.UniformInt(1, 12));
    for (int e = 0; e < edits; ++e) {
      const std::int64_t op = live.empty() ? 0 : rng.UniformInt(0, 3);
      if (op <= 1) {
        // Mostly the next id (an append), sometimes a gap below it.
        const QueryId id =
            op == 0 ? next_id++ : next_id + 1000 + static_cast<QueryId>(run);
        if (engine.Contains(id)) continue;
        ASSERT_TRUE(engine.Insert(id, rng.Uniform(1.0, 500.0),
                                  rng.Uniform(0.5, 4.0))
                        .ok());
        live.push_back(id);
      } else {
        const std::size_t k = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
        if (op == 2) {
          ASSERT_TRUE(engine.Remove(live[k]).ok());
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          ASSERT_TRUE(engine.Update(live[k], rng.Uniform(1.0, 500.0),
                                    rng.Uniform(0.5, 4.0))
                          .ok());
        }
      }
    }
    const std::uint64_t before = engine.regens();
    ReadEverything(engine, 100.0);
    ReadEverything(engine, 40.0);
    EXPECT_EQ(engine.regens(), before + 1) << "edits then reads";
    // Progress alone, however many reads follow, never rebuilds.
    engine.Advance(1e-3);
    ReadEverything(engine, 100.0);
    engine.Advance(2e-3);
    ReadEverything(engine, 100.0);
    EXPECT_EQ(engine.regens(), before + 1) << "advance then reads";
    ExpectThreeWayMatch(engine, 100.0, "after the run");
  }
}

TEST_P(BatchKernelTest, RenormalizationTieRebuildsByIdOrder) {
  // Subtracting X can round two adjacent thresholds onto one double.
  // At 2^56 + 16j the spacing of doubles is 16, and X = 1000008 puts
  // both differences exactly halfway between two doubles, so
  // round-half-to-even sends them to the same value. The rebuilt view
  // must then break the new tie by id, putting id 1 first although
  // its threshold was the larger one before the rebase.
  const double a = std::ldexp(1.0, 56) + 16.0 * 100000;
  IncrementalForecast engine;
  ASSERT_TRUE(engine.Insert(2, a, 1.0).ok());
  ASSERT_TRUE(engine.Insert(1, a + 16.0, 1.0).ok());
  ASSERT_EQ(engine.Entries().front().id, 2u);
  const std::uint64_t before = engine.regens();

  engine.Advance(1000008.0);  // past the renormalization threshold
  EXPECT_EQ(engine.offset(), 0.0);
  ASSERT_EQ(*engine.CostOf(1), *engine.CostOf(2)) << "no collapse";
  const std::vector<QueryLoad> entries = engine.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, 1u);
  EXPECT_EQ(entries[1].id, 2u);
  EXPECT_EQ(engine.regens(), before + 1);
  // The victim-before-target test agrees with the rebuilt order.
  EXPECT_EQ(*engine.RemovalBenefit(2, 1, 1.0),
            std::max(0.0, *engine.CostOf(1)));
  ExpectThreeWayMatch(engine, 1e9, "after the collapse");
  EXPECT_EQ(engine.regens(), before + 1);
}

// ---- chaos soak regimes -----------------------------------------------------

struct SoakRegime {
  const char* name;
  // Weights for op classes: insert, remove, update, advance.
  int insert, remove, update, advance;
  int ops;
  std::uint64_t seed;
};

class BatchKernelSoakTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  void SetUp() override {
    ForceScalar(std::get<0>(GetParam()));
  }
  void TearDown() override { ForceScalar(false); }
};

const SoakRegime kRegimes[] = {
    {"mixed-churn", 3, 2, 2, 3, 320, 101},
    {"insert-heavy-growth", 6, 1, 1, 2, 320, 202},
    {"remove-heavy-drain", 1, 5, 1, 3, 320, 303},
    {"progress-dominated", 1, 1, 1, 12, 320, 404},
    {"reweight-storm", 1, 1, 8, 2, 320, 505},
};

TEST_P(BatchKernelSoakTest, RandomOpsStayExact) {
  const SoakRegime& regime = kRegimes[std::get<1>(GetParam())];
  SCOPED_TRACE(regime.name);
  Rng rng(regime.seed);
  IncrementalForecast engine;
  std::map<QueryId, double> live;  // id -> weight (shadow membership)
  QueryId next_id = 1;

  const int total_weight =
      regime.insert + regime.remove + regime.update + regime.advance;
  for (int op = 0; op < regime.ops; ++op) {
    int pick = static_cast<int>(rng.UniformInt(0, total_weight - 1));
    if (pick < regime.insert || live.empty()) {
      const double cost = rng.Uniform(0.0, 2000.0);
      const double weight = rng.Uniform(0.25, 8.0);
      ASSERT_TRUE(engine.Insert(next_id, cost, weight).ok());
      live[next_id] = weight;
      ++next_id;
    } else if ((pick -= regime.insert) < regime.remove) {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int>(live.size()) - 1));
      ASSERT_TRUE(engine.Remove(it->first).ok());
      live.erase(it);
    } else if ((pick -= regime.remove) < regime.update) {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int>(live.size()) - 1));
      const double cost = rng.Uniform(0.0, 2000.0);
      const double weight = rng.Uniform(0.25, 8.0);
      ASSERT_TRUE(engine.Update(it->first, cost, weight).ok());
      it->second = weight;
    } else {
      // Advance strictly below the smallest live remaining ratio so no
      // live query crosses its threshold (the engine contract).
      double min_ratio = kInfiniteTime;
      for (const auto& [id, weight] : live) {
        auto c = engine.CostOf(id);
        ASSERT_TRUE(c.ok());
        min_ratio = std::min(min_ratio, *c / weight);
      }
      if (min_ratio > 0.0 && min_ratio != kInfiniteTime) {
        engine.Advance(rng.Uniform(0.0, 0.9) * min_ratio);
      }
    }
    // Differential check after every single operation, at a rate that
    // itself varies so the per-call scalar path is exercised too.
    const double rate = rng.Uniform(10.0, 500.0);
    ExpectThreeWayMatch(engine, rate,
                        ("op " + std::to_string(op)).c_str());
  }
  // Every call was either a hit or a regen — nothing silently skipped.
  EXPECT_EQ(engine.hits() + engine.regens(),
            static_cast<std::uint64_t>(regime.ops));
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BatchKernelSoakTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Range(0, static_cast<int>(std::size(
                                               kRegimes)))),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      std::string name = kRegimes[std::get<1>(info.param)].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (std::get<0>(info.param) ? "_scalar" : "_simd");
    });

INSTANTIATE_TEST_SUITE_P(Dispatch, BatchKernelTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "scalar" : "simd";
                         });

}  // namespace
}  // namespace mqpi::pi
