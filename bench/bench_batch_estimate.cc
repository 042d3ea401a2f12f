// Batch-estimate benchmark: estimate-all over n running queries, one
// sweep over the engine's finish-ordered view vs. a per-query
// RemainingTime loop over the same view, plus the drift-repair regime.
//
// A snapshot wants all n estimates every quantum. The engine answers
// one of them with an O(log n) id lookup and a one-element sweep; its
// EstimateAll answers all n in one elementwise pass over three flat
// arrays (SIMD where the CPU has it), and both give the same bits.
// This bench measures ns/query for both in the steady state
// (progress-only quanta: the view is built once and then only the
// scalar offset moves), and the re-anchor regime, where every entry is
// re-anchored each quantum (drift repair) and the next estimate-all
// rebuilds the view once. It cross-checks exact agreement and writes
// BENCH_batch_estimate.json in the working directory.
//
// Modes:
//   bench_batch_estimate               full comparison at
//                                      n = 100 / 5000 / 50000;
//                                      enforces >= 5x at n = 5000
//   bench_batch_estimate --perfsmoke   fast CI assertion (ctest label
//                                      "perfsmoke") at n = 1000: 50
//                                      steady-state estimate-alls must
//                                      cost exactly ONE view rebuild
//                                      (every later call a pure sweep,
//                                      pinned by the hit/regen
//                                      counters) and beat the point
//                                      loop by >= 3x (relative, no
//                                      absolute wall-clock
//                                      thresholds); each re-anchor
//                                      quantum must cost exactly one
//                                      more rebuild

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "pi/batch_kernel.h"
#include "pi/incremental_forecast.h"

using namespace mqpi;

namespace {

constexpr double kRate = 100.0;

// n long-running queries; ids are 1..n so id -> index is trivial for
// the cross-check. Costs/weights vary so thresholds spread out.
std::unique_ptr<pi::IncrementalForecast> MakeEngine(int n) {
  auto engine = std::make_unique<pi::IncrementalForecast>();
  for (int i = 0; i < n; ++i) {
    const double cost = 1000.0 + 0.5 * (i % 997);
    const double weight = 1.0 + 0.25 * (i % 7);
    auto status = engine->Insert(static_cast<QueryId>(i + 1), cost, weight);
    if (!status.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  return engine;
}

// Steady-state quantum: pure progress, no structural change. Small
// enough that no query crosses its threshold over any rep count used
// here (min remaining ratio is >= 400 virtual units at these loads).
constexpr double kQuantumDx = 1e-3;

double RunPointLoop(pi::IncrementalForecast* engine, int reps,
                    std::vector<double>* last) {
  const std::size_t n = engine->size();
  last->assign(n, 0.0);
  double total_ns = 0.0;
  for (int r = 0; r < reps; ++r) {
    engine->Advance(kQuantumDx);
    const std::int64_t start = bench::NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      auto eta = engine->RemainingTime(static_cast<QueryId>(i + 1), kRate);
      if (!eta.ok()) std::exit(1);
      (*last)[i] = *eta;
    }
    total_ns += static_cast<double>(bench::NowNs() - start);
  }
  return total_ns / (static_cast<double>(reps) * static_cast<double>(n));
}

double RunBatch(pi::IncrementalForecast* engine, int reps,
                std::vector<double>* last) {
  const std::size_t n = engine->size();
  last->assign(n, 0.0);
  double total_ns = 0.0;
  for (int r = 0; r < reps; ++r) {
    engine->Advance(kQuantumDx);
    const std::int64_t start = bench::NowNs();
    const auto batch = engine->EstimateAll(kRate);
    total_ns += static_cast<double>(bench::NowNs() - start);
    if (batch.size != n) std::exit(1);
    for (std::size_t i = 0; i < n; ++i) {
      (*last)[i] = batch.etas[i];  // ids are 1..n, already id-sorted
    }
  }
  return total_ns / (static_cast<double>(reps) * static_cast<double>(n));
}

// Drift-repair quanta: progress, then every entry re-anchored at its
// current cost (as SyncEngine does when each query's share is below
// operator granularity), then one estimate-all, which rebuilds the
// view. Returns ns per query per quantum.
double RunReanchor(pi::IncrementalForecast* engine, int reps) {
  const std::size_t n = engine->size();
  double total_ns = 0.0;
  for (int r = 0; r < reps; ++r) {
    engine->Advance(kQuantumDx);
    const std::int64_t start = bench::NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      const QueryId id = static_cast<QueryId>(i + 1);
      auto cost = engine->CostOf(id);
      auto weight = engine->WeightOf(id);
      if (!cost.ok() || !weight.ok() ||
          !engine->Update(id, *cost, *weight).ok()) {
        std::exit(1);
      }
    }
    const auto batch = engine->EstimateAll(kRate);
    total_ns += static_cast<double>(bench::NowNs() - start);
    if (batch.size != n) std::exit(1);
  }
  return total_ns / (static_cast<double>(reps) * static_cast<double>(n));
}

// One more estimate-all, one kQuantumDx past the last timed run, and
// the point query at that same offset: the same sweep over the same
// view, so the two must agree bit for bit.
bool AgreeNow(pi::IncrementalForecast* engine) {
  std::vector<double> batch;
  RunBatch(engine, 1, &batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto eta = engine->RemainingTime(static_cast<QueryId>(i + 1), kRate);
    if (!eta.ok()) std::exit(1);
    if (*eta != batch[i]) return false;
  }
  return true;
}

int Perfsmoke() {
  const int n = 1000;
  const int reps = 50;
  auto engine = MakeEngine(n);
  std::vector<double> batch_last;
  const double batch_ns = RunBatch(engine.get(), reps, &batch_last);
  // Steady state: the first call builds the view, every later call
  // must be a pure sweep. Any extra rebuild means progress dirtied the
  // view.
  if (engine->regens() != 1 ||
      engine->hits() != static_cast<std::uint64_t>(reps) - 1) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %llu regens / %llu hits for %d "
                 "steady-state estimate-alls at n=%d — expected exactly 1 "
                 "regen, all later calls pure sweeps\n",
                 static_cast<unsigned long long>(engine->regens()),
                 static_cast<unsigned long long>(engine->hits()), reps, n);
    return 1;
  }
  std::vector<double> point_last;
  const double point_ns = RunPointLoop(engine.get(), reps, &point_last);
  if (!AgreeNow(engine.get())) {
    std::fprintf(stderr, "perfsmoke FAIL: point and batch disagree\n");
    return 1;
  }
  const double speedup = point_ns / (batch_ns > 0.0 ? batch_ns : 1e-9);
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: batch %.1f ns/query vs point loop %.1f "
                 "ns/query (%.1fx) at n=%d — the floor is 3x\n",
                 batch_ns, point_ns, speedup, n);
    return 1;
  }
  // Re-anchor regime: n edits per quantum fold into one rebuild.
  const std::uint64_t regens_before = engine->regens();
  const double reanchor_ns = RunReanchor(engine.get(), reps);
  if (engine->regens() != regens_before + static_cast<std::uint64_t>(reps)) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %llu rebuilds for %d re-anchor quanta at "
                 "n=%d — expected exactly 1 per quantum\n",
                 static_cast<unsigned long long>(engine->regens() -
                                                 regens_before),
                 reps, n);
    return 1;
  }
  std::printf(
      "perfsmoke OK [%s]: 1 regen + %llu sweeps, batch %.1f ns/query vs "
      "point %.1f ns/query (%.1fx) at n=%d; re-anchor %.1f ns/query, "
      "1 rebuild per quantum\n",
      pi::ActiveIsaName(), static_cast<unsigned long long>(reps - 1),
      batch_ns, point_ns, speedup, n, reanchor_ns);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  bench::Banner(
      "Batch estimate-all: ns per query, one sweep vs a per-query point "
      "loop over the engine's view, n running queries in the steady "
      "state; plus re-anchor-every-entry quanta",
      "a point query is an O(log n) id lookup plus a one-element sweep; "
      "estimate-all answers all n in one flat elementwise pass (SIMD "
      "where available); the view is rebuilt only after edits");

  struct Scale {
    int n;
    int reps;
  };
  const Scale scales[] = {{100, 2000}, {5000, 200}, {50000, 20}};

  bench::JsonReport report(
      "batch_estimate", {{"unit", "ns_per_query"},
                         {"isa", pi::ActiveIsaName()}});

  std::printf("dispatch: %s\n\n", pi::ActiveIsaName());
  std::printf("%8s %16s %16s %9s %8s %8s %19s\n", "n", "point ns/query",
              "batch ns/query", "speedup", "regens", "sweeps",
              "reanchor ns/query");
  bool ok = true;
  for (const Scale& scale : scales) {
    auto engine = MakeEngine(scale.n);
    std::vector<double> point_last, batch_last;
    const double batch_ns = RunBatch(engine.get(), scale.reps, &batch_last);
    const double point_ns =
        RunPointLoop(engine.get(), scale.reps, &point_last);
    if (!AgreeNow(engine.get())) {
      std::fprintf(stderr, "FAIL: point and batch diverge at n=%d\n",
                   scale.n);
      ok = false;
    }
    if (engine->regens() != 1) {
      std::fprintf(stderr,
                   "FAIL: %llu view rebuilds at n=%d — progress-only "
                   "quanta must not invalidate the view\n",
                   static_cast<unsigned long long>(engine->regens()),
                   scale.n);
      ok = false;
    }
    const std::uint64_t regens = engine->regens();
    const std::uint64_t hits = engine->hits();
    const double reanchor_ns = RunReanchor(engine.get(), scale.reps);
    const double speedup = point_ns / (batch_ns > 0.0 ? batch_ns : 1e-9);
    std::printf("%8d %16.1f %16.1f %8.1fx %8llu %8llu %19.1f\n", scale.n,
                point_ns, batch_ns, speedup,
                static_cast<unsigned long long>(regens),
                static_cast<unsigned long long>(hits), reanchor_ns);
    report.AddRow({{"n", scale.n}, {"point_ns", point_ns},
                   {"batch_ns", batch_ns}, {"speedup", speedup},
                   {"reanchor_ns", reanchor_ns}});
    if (scale.n == 5000 && speedup < 5.0) {
      std::fprintf(stderr,
                   "FAIL: %.1fx at n=5000 — the acceptance bar is >= 5x "
                   "over the per-query point loop\n",
                   speedup);
      ok = false;
    }
  }
  if (!report.Save() || !ok) return 1;
  std::printf("\npoint and batch agree bit for bit at every scale; results "
              "written to %s\n",
              report.FileName().c_str());
  return 0;
}
