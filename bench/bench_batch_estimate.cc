// Batch-estimate benchmark: estimate-all over n running queries, flat
// SoA kernel vs. a per-query treap loop.
//
// The incremental engine already answers one estimate in O(log n); a
// snapshot wants all n of them every quantum, and n tree walks lose
// the constants to cache misses and per-call overhead. The batch
// kernel answers all n in one elementwise sweep over three flat
// arrays (SIMD where the CPU has it). This bench measures ns/query
// for both in the steady state (progress-only quanta: the SoA mirror
// is regenerated once and then only the scalar offset moves),
// cross-checks agreement, and writes BENCH_batch_estimate.json in the
// working directory.
//
// Modes:
//   bench_batch_estimate               full comparison at
//                                      n = 100 / 5000 / 50000;
//                                      enforces >= 5x at n = 5000
//   bench_batch_estimate --perfsmoke   fast CI assertion (ctest label
//                                      "perfsmoke"): 50 steady-state
//                                      estimate-alls at n = 1000 must
//                                      cost exactly ONE mirror
//                                      regeneration (every later call
//                                      a pure sweep, pinned by the
//                                      hit/regen counters) and beat
//                                      the treap loop by >= 3x
//                                      (relative, no absolute
//                                      wall-clock thresholds)

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

double RunTreapLoop(pi::IncrementalForecast* engine, int reps,
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

double RunBatch(pi::IncrementalForecast* engine,
                pi::BatchEstimateKernel* kernel, int reps,
                std::vector<double>* last) {
  const std::size_t n = engine->size();
  last->assign(n, 0.0);
  double total_ns = 0.0;
  for (int r = 0; r < reps; ++r) {
    engine->Advance(kQuantumDx);
    const std::int64_t start = bench::NowNs();
    const auto batch = kernel->EstimateAll(*engine, kRate);
    total_ns += static_cast<double>(bench::NowNs() - start);
    if (batch.size != n) std::exit(1);
    for (std::size_t i = 0; i < n; ++i) {
      (*last)[i] = batch.etas[i];  // ids are 1..n, already id-sorted
    }
  }
  return total_ns / (static_cast<double>(reps) * static_cast<double>(n));
}

// Probes the kernel once more, one kQuantumDx past the last timed
// run, and the treap at that same offset: the two must agree to the
// engine tolerance (summation order and FMA contraction differ).
bool AgreeNow(pi::IncrementalForecast* engine,
              pi::BatchEstimateKernel* kernel) {
  std::vector<double> batch;
  RunBatch(engine, kernel, 1, &batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto eta = engine->RemainingTime(static_cast<QueryId>(i + 1), kRate);
    if (!eta.ok()) std::exit(1);
    const double tol = 1e-9 * std::max(1.0, std::fabs(*eta));
    if (std::fabs(*eta - batch[i]) > tol) return false;
  }
  return true;
}

int Perfsmoke() {
  const int n = 1000;
  const int reps = 50;
  auto engine = MakeEngine(n);
  pi::BatchEstimateKernel kernel;
  std::vector<double> batch_last;
  const double batch_ns = RunBatch(engine.get(), &kernel, reps, &batch_last);
  // Steady state: the first call builds the mirror, every later call
  // must be a pure sweep. Any extra regen means the version discipline
  // broke (e.g. progress bumping the structure version).
  if (kernel.regens() != 1 ||
      kernel.hits() != static_cast<std::uint64_t>(reps) - 1) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %llu regens / %llu hits for %d "
                 "steady-state estimate-alls at n=%d — expected exactly 1 "
                 "regen, all later calls pure sweeps\n",
                 static_cast<unsigned long long>(kernel.regens()),
                 static_cast<unsigned long long>(kernel.hits()), reps, n);
    return 1;
  }
  std::vector<double> treap_last;
  const double treap_ns = RunTreapLoop(engine.get(), reps, &treap_last);
  if (!AgreeNow(engine.get(), &kernel)) {
    std::fprintf(stderr, "perfsmoke FAIL: treap and batch disagree\n");
    return 1;
  }
  const double speedup = treap_ns / (batch_ns > 0.0 ? batch_ns : 1e-9);
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: batch %.1f ns/query vs treap loop %.1f "
                 "ns/query (%.1fx) at n=%d — the floor is 3x\n",
                 batch_ns, treap_ns, speedup, n);
    return 1;
  }
  std::printf(
      "perfsmoke OK [%s]: 1 regen + %llu sweeps, batch %.1f ns/query vs "
      "treap %.1f ns/query (%.1fx) at n=%d\n",
      pi::BatchEstimateKernel::ActiveIsaName(),
      static_cast<unsigned long long>(kernel.hits()), batch_ns, treap_ns,
      speedup, n);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  bench::Banner(
      "Batch estimate-all: ns per query, flat SoA sweep vs per-query "
      "treap loop, n running queries in the steady state",
      "the treap answers each query in O(log n) pointer chases; the "
      "kernel answers all n in one flat elementwise pass (SIMD where "
      "available), regenerated only on structural change");

  struct Scale {
    int n;
    int reps;
  };
  const Scale scales[] = {{100, 2000}, {5000, 200}, {50000, 20}};

  bench::JsonReport report(
      "batch_estimate", {{"unit", "ns_per_query"},
                         {"isa", pi::BatchEstimateKernel::ActiveIsaName()}});

  std::printf("dispatch: %s\n\n", pi::BatchEstimateKernel::ActiveIsaName());
  std::printf("%8s %16s %16s %9s %8s %8s\n", "n", "treap ns/query",
              "batch ns/query", "speedup", "regens", "sweeps");
  bool ok = true;
  for (const Scale& scale : scales) {
    auto engine = MakeEngine(scale.n);
    pi::BatchEstimateKernel kernel;
    std::vector<double> treap_last, batch_last;
    const double batch_ns =
        RunBatch(engine.get(), &kernel, scale.reps, &batch_last);
    const double treap_ns =
        RunTreapLoop(engine.get(), scale.reps, &treap_last);
    if (!AgreeNow(engine.get(), &kernel)) {
      std::fprintf(stderr, "FAIL: treap and batch diverge at n=%d\n",
                   scale.n);
      ok = false;
    }
    if (kernel.regens() != 1) {
      std::fprintf(stderr,
                   "FAIL: %llu mirror regenerations at n=%d — progress-only "
                   "quanta must not invalidate the mirror\n",
                   static_cast<unsigned long long>(kernel.regens()),
                   scale.n);
      ok = false;
    }
    const double speedup = treap_ns / (batch_ns > 0.0 ? batch_ns : 1e-9);
    std::printf("%8d %16.1f %16.1f %8.1fx %8llu %8llu\n", scale.n, treap_ns,
                batch_ns, speedup,
                static_cast<unsigned long long>(kernel.regens()),
                static_cast<unsigned long long>(kernel.hits()));
    report.AddRow({{"n", scale.n}, {"treap_ns", treap_ns},
                   {"batch_ns", batch_ns}, {"speedup", speedup}});
    if (scale.n == 5000 && speedup < 5.0) {
      std::fprintf(stderr,
                   "FAIL: %.1fx at n=5000 — the acceptance bar is >= 5x "
                   "over the per-query treap loop\n",
                   speedup);
      ok = false;
    }
  }
  if (!report.Save() || !ok) return 1;
  std::printf("\ntreap and batch agree at every scale; results written to "
              "%s\n",
              report.FileName().c_str());
  return 0;
}
