// Quickstart: build a small TPC-R-style database, run three concurrent
// queries under weighted fair sharing, and watch the single-query and
// multi-query progress indicators estimate their remaining times.
//
// Demonstrates the core API path:
//   TpcrGenerator -> Catalog -> Rdbms -> Submit -> PiManager -> Step.

#include <cstdio>

#include "engine/sql_parser.h"
#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "sim/runner.h"
#include "storage/tpcr_gen.h"

using namespace mqpi;

int main() {
  // 1. Generate data: lineitem plus three part tables of growing size.
  storage::Catalog catalog;
  storage::TpcrGenerator generator({.num_part_keys = 2000,
                                    .matches_per_key = 30,
                                    .seed = 42});
  auto check = [](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  };
  check(generator.BuildLineitem(&catalog));
  check(generator.BuildPartTable(&catalog, "part_small", 5));
  check(generator.BuildPartTable(&catalog, "part_medium", 15));
  check(generator.BuildPartTable(&catalog, "part_large", 40));

  // 2. Start an RDBMS processing 1000 work units (pages) per second.
  sched::RdbmsOptions options;
  options.processing_rate = 1000.0;
  options.cost_model.noise_sigma = 0.2;  // imprecise statistics
  sched::Rdbms db(&catalog, options);

  // 3. Attach progress indicators and submit the paper's query template
  //    over each part table.
  pi::PiManager pis(&db);
  sim::SimulationRunner runner(&db, &pis);

  // Queries can be built programmatically (QuerySpec::TpcrPartPrice)
  // or parsed from SQL; this uses the SQL front end.
  auto submit = [&](const std::string& table) {
    auto spec = engine::ParseSql(
        "select * from " + table + " p where p.retailprice * 0.75 > "
        "(select sum(l.extendedprice) / sum(l.quantity) from lineitem l "
        "where l.partkey = p.partkey)");
    check(spec.status());
    auto id = runner.SubmitNow(*spec);
    check(id.status());
    return *id;
  };
  const QueryId small = submit("part_small");
  const QueryId medium = submit("part_medium");
  const QueryId large = submit("part_large");

  // EXPLAIN the large query's plan before watching it run.
  auto explain = db.planner()->Explain(
      engine::QuerySpec::TpcrPartPrice("part_large"));
  if (explain.ok()) std::printf("%s\n", explain->c_str());

  // 4. Step the simulation, printing both PIs' estimates for the large
  //    query. The single-query PI extrapolates the current (3-way
  //    shared) speed; the multi-query PI knows the small and medium
  //    queries will finish and the large query will speed up.
  std::printf("time   single-query est   multi-query est   (large query)\n");
  while (true) {
    runner.StepFor(2.0);
    auto info = db.info(large);
    check(info.status());
    if (info->state == sched::QueryState::kFinished) break;
    auto single = pis.EstimateSingle(large);
    auto multi = pis.multi()->EstimateRemainingTime(large);
    std::printf("%5.1f  %17.1f  %16.1f\n", db.now(),
                single.ok() ? *single : -1.0, multi.ok() ? *multi : -1.0);
  }
  auto info = db.info(large);
  std::printf("\nlarge query finished at t=%.1f s (cost %.0f U, %llu rows)\n",
              info->finish_time, info->completed_work,
              static_cast<unsigned long long>(info->rows_produced));
  std::printf("small finished at %.1f s, medium at %.1f s\n",
              db.info(small)->finish_time, db.info(medium)->finish_time);
  return 0;
}
