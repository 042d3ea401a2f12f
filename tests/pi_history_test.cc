// The PI's per-quantum cost must not grow with the query history:
// PiManager::AfterStep with 10 live queries costs the same after 5000
// finished queries as on a fresh Rdbms. Wall-clock, so the binary runs
// under the perfsmoke label. The two setups are timed alternately,
// quantum by quantum, so machine load hits both alike, and the gate
// compares medians with a generous 2x bound: a walk over the history
// costs far more than that.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "pi/future_model.h"
#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"

namespace mqpi::pi {
namespace {

using engine::QuerySpec;

// One Rdbms with a PiManager whose future model has a lambda prior, so
// every AfterStep also runs the arrival path.
struct ServedDb {
  explicit ServedDb(const storage::Catalog* catalog)
      : db(catalog, Options()),
        future(FutureWorkloadEstimate{
            .lambda = 0.5, .avg_cost = 100.0, .avg_weight = 1.0}),
        pis(&db, {}, &future) {}

  static sched::RdbmsOptions Options() {
    sched::RdbmsOptions options;
    options.processing_rate = 1000.0;
    options.quantum = 0.1;
    options.cost_model.noise_sigma = 0.0;
    return options;
  }

  void Step() {
    db.Step();
    pis.AfterStep();
  }

  // Submits and finishes `n` small queries, 100 at a time, feeding the
  // PIs every quantum as a server would.
  void FinishHistory(int n) {
    for (int done = 0; done < n; done += 100) {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(1.0)).ok());
      }
      while (!db.Idle()) Step();
    }
  }

  // Wall time of one AfterStep, in nanoseconds.
  double TimedQuantum() {
    db.Step();
    const auto start = std::chrono::steady_clock::now();
    pis.AfterStep();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  sched::Rdbms db;
  FutureWorkloadModel future;
  PiManager pis;
};

TEST(PiHistoryPerfTest, AfterStepCostIgnoresFinishedQueries) {
  storage::Catalog catalog;
  ServedDb history(&catalog);
  ServedDb fresh(&catalog);
  history.FinishHistory(5000);
  ASSERT_EQ(history.db.last_query_id(), 5000u);
  ASSERT_TRUE(history.db.Idle());
  for (ServedDb* served : {&history, &fresh}) {
    for (int i = 0; i < 10; ++i) {
      // Never finishes within the measured quanta.
      ASSERT_TRUE(served->db.Submit(QuerySpec::Synthetic(1e9)).ok());
    }
    served->Step();  // first quantum: engine rebuild, arrivals
  }

  std::vector<double> history_ns, fresh_ns;
  for (int quantum = 0; quantum < 200; ++quantum) {
    if (quantum % 2 == 0) {
      history_ns.push_back(history.TimedQuantum());
      fresh_ns.push_back(fresh.TimedQuantum());
    } else {
      fresh_ns.push_back(fresh.TimedQuantum());
      history_ns.push_back(history.TimedQuantum());
    }
  }
  const double history_median = Percentile(history_ns, 50.0);
  const double fresh_median = Percentile(fresh_ns, 50.0);
  std::printf(
      "AfterStep median over 200 quanta, 10 live queries: %.0f ns after "
      "5000 finished, %.0f ns fresh (%.2fx)\n",
      history_median, fresh_median, history_median / fresh_median);
  EXPECT_LE(history_median, 2.0 * fresh_median);
}

}  // namespace
}  // namespace mqpi::pi
