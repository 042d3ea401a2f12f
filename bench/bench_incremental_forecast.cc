// Incremental-forecast benchmark: steady-state cost of one running
// query estimate with n concurrent queries.
//
// The epoch-keyed forecast cache already collapses the n probes of one
// quantum to a single O(n log n) simulation — but the epoch moves
// every quantum, so a dashboard that asks even one question per
// quantum still pays a full simulation each time. The incremental
// virtual-time engine answers the same question in O(log n) from its
// closed-form prefix aggregates with no simulation at all; this bench
// measures ns/estimate for both paths in the one-estimate-per-quantum
// regime, cross-checks that they agree, and writes
// BENCH_incremental_forecast.json in the working directory.
//
// Modes:
//   bench_incremental_forecast               full comparison at
//                                            n = 100 / 5000 / 50000
//   bench_incremental_forecast --perfsmoke   fast CI assertion (ctest
//                                            label "perfsmoke"): 50
//                                            steady-state quanta at
//                                            n = 1000 must run ZERO
//                                            full simulations — every
//                                            estimate served by the
//                                            engine, counted via the
//                                            fallback and cache-miss
//                                            counters (no wall-clock
//                                            thresholds)

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "pi/multi_query_pi.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

struct Fixture {
  storage::Catalog catalog;
  std::unique_ptr<sched::Rdbms> db;
  std::unique_ptr<pi::MultiQueryPi> pi;
  std::vector<QueryId> ids;
  sched::RdbmsOptions options;
};

// n long-running queries, nothing finishes during the run, total load
// well inside the forecast horizon so the fast path stays eligible.
std::unique_ptr<Fixture> MakeFixture(int n, bool incremental) {
  auto fx = std::make_unique<Fixture>();
  fx->options.processing_rate = 100.0;
  fx->options.quantum = 0.05;
  fx->options.cost_model.noise_sigma = 0.0;
  fx->db = std::make_unique<sched::Rdbms>(&fx->catalog, fx->options);
  pi::MultiQueryPiOptions options;
  options.enable_incremental = incremental;
  fx->pi = std::make_unique<pi::MultiQueryPi>(fx->db.get(), options);
  if (incremental) fx->pi->AttachLifecycleEvents(fx->db.get());
  fx->ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto id = fx->db->Submit(
        engine::QuerySpec::Synthetic(1000.0 + 0.5 * (i % 997)));
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
    fx->ids.push_back(*id);
  }
  return fx;
}

struct RunResult {
  double ns_per_estimate = 0.0;
  std::uint64_t simulations = 0;     // full analytic forecasts
  std::uint64_t fast_path = 0;       // engine-served estimates
  std::vector<double> estimates;     // one per quantum (cross-check)
};

// One estimate per quantum against a rotating target: the dashboard
// pattern. Only the estimate call is timed — the scheduler step and
// the PI's per-step observation are the same for both paths.
RunResult Run(Fixture* fx, int quanta) {
  RunResult result;
  result.estimates.reserve(static_cast<std::size_t>(quanta));
  double total_ns = 0.0;
  for (int q = 0; q < quanta; ++q) {
    fx->db->Step(fx->options.quantum);
    fx->pi->ObserveStep();
    const QueryId target =
        fx->ids[static_cast<std::size_t>(q) % fx->ids.size()];
    auto info = fx->db->info(target);
    if (!info.ok()) std::exit(1);
    const std::int64_t start = bench::NowNs();
    auto eta = fx->pi->EstimateRemainingTime(*info);
    total_ns += static_cast<double>(bench::NowNs() - start);
    if (!eta.ok()) {
      std::fprintf(stderr, "estimate failed: %s\n",
                   eta.status().ToString().c_str());
      std::exit(1);
    }
    result.estimates.push_back(*eta);
  }
  result.ns_per_estimate = total_ns / quanta;
  result.simulations = fx->pi->forecast_cache_misses();
  result.fast_path = fx->pi->incremental_fast_path();
  return result;
}

bool EstimatesAgree(const RunResult& a, const RunResult& b) {
  if (a.estimates.size() != b.estimates.size()) return false;
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    const double tol = 1e-6 * std::max(1.0, std::fabs(b.estimates[i]));
    if (std::fabs(a.estimates[i] - b.estimates[i]) > tol) return false;
  }
  return true;
}

int Perfsmoke() {
  const int n = 1000;
  const int quanta = 50;
  auto fx = MakeFixture(n, /*incremental=*/true);
  const RunResult run = Run(fx.get(), quanta);
  const std::uint64_t fallbacks = fx->pi->incremental_fallback();
  if (run.simulations != 0 || fallbacks != 0 ||
      run.fast_path < static_cast<std::uint64_t>(quanta)) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %llu full simulations, %llu fallbacks, "
                 "%llu fast-path estimates for %d quanta at n=%d — steady "
                 "state must be simulation-free\n",
                 static_cast<unsigned long long>(run.simulations),
                 static_cast<unsigned long long>(fallbacks),
                 static_cast<unsigned long long>(run.fast_path), quanta, n);
    return 1;
  }
  std::printf(
      "perfsmoke OK: 0 simulations, 0 fallbacks, %llu fast-path estimates "
      "for %d quanta at n=%d, %.0f ns/estimate\n",
      static_cast<unsigned long long>(run.fast_path), quanta, n,
      run.ns_per_estimate);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  bench::Banner(
      "Incremental forecast: ns per steady-state estimate, one probe "
      "per quantum with n running queries",
      "the cached simulator re-simulates every quantum (~O(n log n) per "
      "probe); the virtual-time engine answers in O(log n) with zero "
      "simulations");

  struct Scale {
    int n;
    int quanta;
  };
  // Fewer quanta at large n on the simulator side; enough on each
  // scale for a stable average.
  const Scale scales[] = {{100, 400}, {5000, 40}, {50000, 8}};

  bench::JsonReport report("incremental_forecast",
                           {{"unit", "ns_per_estimate"}});

  std::printf("%8s %16s %16s %9s %12s %12s\n", "n", "simulator ns/est",
              "incremental ns/e", "speedup", "sims", "fast path");
  bool ok = true;
  for (const Scale& scale : scales) {
    auto sim_fx = MakeFixture(scale.n, /*incremental=*/false);
    const RunResult sim = Run(sim_fx.get(), scale.quanta);
    auto inc_fx = MakeFixture(scale.n, /*incremental=*/true);
    const RunResult inc = Run(inc_fx.get(), scale.quanta);
    if (!EstimatesAgree(inc, sim)) {
      std::fprintf(stderr,
                   "FAIL: incremental and simulator estimates diverge at "
                   "n=%d\n",
                   scale.n);
      ok = false;
    }
    if (inc.simulations != 0) {
      std::fprintf(stderr,
                   "FAIL: incremental path ran %llu full simulations at "
                   "n=%d — steady state must be simulation-free\n",
                   static_cast<unsigned long long>(inc.simulations),
                   scale.n);
      ok = false;
    }
    const double speedup =
        sim.ns_per_estimate /
        (inc.ns_per_estimate > 0.0 ? inc.ns_per_estimate : 1e-9);
    std::printf("%8d %16.0f %16.0f %8.1fx %12llu %12llu\n", scale.n,
                sim.ns_per_estimate, inc.ns_per_estimate, speedup,
                static_cast<unsigned long long>(sim.simulations),
                static_cast<unsigned long long>(inc.fast_path));
    report.AddRow({{"n", scale.n},
                   {"simulator_ns", sim.ns_per_estimate},
                   {"incremental_ns", inc.ns_per_estimate},
                   {"speedup", speedup}});
    if (scale.n == 5000 && speedup < 20.0) {
      std::fprintf(stderr,
                   "FAIL: %.1fx speedup at n=5000 — the acceptance bar is "
                   ">= 20x per steady-state estimate\n",
                   speedup);
      ok = false;
    }
  }
  if (!report.Save() || !ok) return 1;
  std::printf("\nestimates agree at every scale; results written to %s\n",
              report.FileName().c_str());
  return 0;
}
