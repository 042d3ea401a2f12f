// bench_profiler_overhead: the cost of the hot-path profiler.
//
// The profiler's contract mirrors the tracer's: instrumentation left
// compiled into the hot paths (Rdbms::Step, BuildSnapshotLocked, the
// publish hook, delta encode, socket writes) must be effectively free
// while profiling is disabled — a ProfScope constructed with the gate
// off is one relaxed atomic load, no clock read, no registration.
// This bench puts numbers on that, and re-checks the net layer's
// O(1)-publish invariant with both the profiler and the publish-stamp
// ring active (telemetry must not buy observability with per-
// subscriber publish work).
//
// Modes:
//   bench_profiler_overhead              full sweep: disabled /
//                                        enabled / nested scope cost
//                                        and Rdbms::Step off vs on;
//                                        writes
//                                        BENCH_profiler_overhead.json
//   bench_profiler_overhead --perfsmoke  fast CI assertion (ctest
//                                        label "perfsmoke"): a
//                                        disabled scope records
//                                        nothing (counter-based) and
//                                        averages under a generous
//                                        low-ns budget; fan-out
//                                        ops/publish stays byte-
//                                        identical across an 8x
//                                        subscriber spread with the
//                                        profiler enabled and publish
//                                        stamps flowing.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "engine/planner.h"
#include "net/client.h"
#include "net/fanout.h"
#include "net/server.h"
#include "obs/profiler.h"
#include "sched/rdbms.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

/// Mean wall ns per ProfScope open+close against `profiler`.
double ScopeNsPerOp(obs::Profiler* profiler, obs::ProfSite* site,
                    int iterations) {
  const std::int64_t t0 = bench::NowNs();
  for (int i = 0; i < iterations; ++i) {
    obs::ProfScope scope(profiler, site);
  }
  const std::int64_t t1 = bench::NowNs();
  return static_cast<double>(t1 - t0) / static_cast<double>(iterations);
}

double NestedScopeNsPerOp(obs::Profiler* profiler, obs::ProfSite* outer,
                          obs::ProfSite* inner, int iterations) {
  const std::int64_t t0 = bench::NowNs();
  for (int i = 0; i < iterations; ++i) {
    obs::ProfScope a(profiler, outer);
    obs::ProfScope b(profiler, inner);
  }
  const std::int64_t t1 = bench::NowNs();
  return static_cast<double>(t1 - t0) / static_cast<double>(iterations);
}

/// Mean wall ns per Rdbms::Step quantum over eight never-finishing
/// queries, with the global profiler set to `enabled` (Step's
/// MQPI_PROF_SITE records into it).
double StepNsPerOp(bool enabled, int iterations) {
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.1;
  options.cost_model.noise_sigma = 0.0;
  sched::Rdbms db(&catalog, options);
  for (int i = 0; i < 8; ++i) {
    (void)db.Submit(engine::QuerySpec::Synthetic(1e12));
  }
  obs::GlobalProfiler()->set_enabled(enabled);
  const std::int64_t t0 = bench::NowNs();
  for (int i = 0; i < iterations; ++i) {
    db.Step(options.quantum);
  }
  const std::int64_t t1 = bench::NowNs();
  obs::GlobalProfiler()->set_enabled(false);
  return static_cast<double>(t1 - t0) / static_cast<double>(iterations);
}

struct FanoutResult {
  double ops_per_publish = 0.0;
  bool stamped = false;           // PublishWallNs served the last seq
  std::uint64_t prof_steps = 0;   // service.step_quantum recordings
};

/// Publishes `quanta` ticks into `subscribers` pool subscribers with
/// the profiler enabled, and reads back the fan-out's per-publish op
/// counter plus evidence that stamping and profiling actually ran.
FanoutResult RunFanout(int subscribers, int quanta) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  options.enable_auditor = false;
  options.enable_profiler = true;
  service::PiService service(&catalog, options);

  net::PiServerOptions server_options;
  server_options.pool_threads = 2;
  server_options.subscription.max_queued_frames = 4096;
  server_options.subscription.max_queued_bytes = std::size_t{64} << 20;
  net::PiServer server(&service, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }

  auto session = service.OpenSession("profiler-bench");
  for (int i = 0; i < 4; ++i) {
    (void)session->Submit(engine::QuerySpec::Synthetic(1e9));
  }
  service.PublishNow();

  std::vector<net::LocalSubscriber> subs;
  subs.reserve(static_cast<std::size_t>(subscribers));
  for (int i = 0; i < subscribers; ++i) {
    subs.emplace_back(server.pool()->Subscribe());
  }
  for (int i = 0; i < quanta; ++i) {
    (void)service.Advance(options.rdbms.quantum);
  }

  FanoutResult result;
  result.ops_per_publish =
      static_cast<double>(server.fanout()->publish_ops()) /
      static_cast<double>(server.fanout()->publishes());
  const std::uint64_t last = service.snapshot()->sequence;
  result.stamped = server.fanout()->PublishWallNs(last) > 0;
  for (const auto& site : obs::GlobalProfiler()->Snapshot()) {
    if (site.name == "service.step_quantum") result.prof_steps = site.count;
  }

  session->Close();
  server.Stop();
  service.Stop();
  obs::GlobalProfiler()->set_enabled(false);
  obs::GlobalProfiler()->Reset();
  return result;
}

int Perfsmoke() {
  bool ok = true;

  // Off means off: a disabled scope must record nothing (exact,
  // counter-based) and cost low single-digit ns — the budget below is
  // ~20x a relaxed load so a loaded CI machine cannot flake it, while
  // an accidental clock read or registration (tens of ns and a lock)
  // still trips it.
  obs::Profiler profiler;  // disabled
  obs::ProfSite* site = profiler.Site("bench.disabled");
  constexpr int kScopeIters = 2'000'000;
  (void)ScopeNsPerOp(&profiler, site, kScopeIters);  // warm up
  const double disabled_ns = ScopeNsPerOp(&profiler, site, kScopeIters);
  if (site->count() != 0) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: disabled scope recorded %llu events\n",
                 static_cast<unsigned long long>(site->count()));
    ok = false;
  }
  if (disabled_ns > 100.0) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: disabled scope costs %.1f ns/op "
                 "(budget 100 ns)\n",
                 disabled_ns);
    ok = false;
  }

  // The O(1)-publish invariant with telemetry on: per-publish fan-out
  // work must be byte-identical across an 8x subscriber spread while
  // the profiler records and the stamp ring serves lookups.
  const FanoutResult small = RunFanout(64, 10);
  const FanoutResult large = RunFanout(512, 10);
  if (small.ops_per_publish != large.ops_per_publish) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %.3f fan-out ops/publish at 64 "
                 "subscribers vs %.3f at 512 with profiling on\n",
                 small.ops_per_publish, large.ops_per_publish);
    ok = false;
  }
  if (!small.stamped || !large.stamped) {
    std::fprintf(stderr, "perfsmoke FAIL: publish stamp missing\n");
    ok = false;
  }
  if (small.prof_steps == 0 || large.prof_steps == 0) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: profiler recorded no step quanta — "
                 "the invariant was not tested with profiling on\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "perfsmoke OK: disabled scope %.1f ns/op, 0 events recorded; "
      "%.3f fan-out ops/publish at both 64 and 512 subscribers with "
      "profiling on (%llu + %llu quanta profiled, stamps served)\n",
      disabled_ns, large.ops_per_publish,
      static_cast<unsigned long long>(small.prof_steps),
      static_cast<unsigned long long>(large.prof_steps));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  std::printf(
      "profiler overhead: scoped hot-path accounting must be ~free "
      "while disabled\n(one relaxed load per scope) and cheap enough "
      "to leave enabled in production.\n\n");

  constexpr int kScopeIters = 5'000'000;
  obs::Profiler off;
  obs::ProfSite* off_site = off.Site("bench.scope");
  (void)ScopeNsPerOp(&off, off_site, kScopeIters);  // warm up
  const double disabled_ns = ScopeNsPerOp(&off, off_site, kScopeIters);

  obs::Profiler on;
  on.set_enabled(true);
  obs::ProfSite* on_site = on.Site("bench.scope");
  const double enabled_ns = ScopeNsPerOp(&on, on_site, kScopeIters);
  obs::ProfSite* outer = on.Site("bench.outer");
  obs::ProfSite* inner = on.Site("bench.inner");
  const double nested_ns =
      NestedScopeNsPerOp(&on, outer, inner, kScopeIters / 2);

  constexpr int kStepIters = 2000;
  const double step_off_ns = StepNsPerOp(false, kStepIters);
  const double step_on_ns = StepNsPerOp(true, kStepIters);
  const double step_delta_pct =
      100.0 * (step_on_ns - step_off_ns) / step_off_ns;

  std::printf("%-34s %12.1f ns/op\n", "ProfScope, disabled", disabled_ns);
  std::printf("%-34s %12.1f ns/op\n", "ProfScope, enabled", enabled_ns);
  std::printf("%-34s %12.1f ns/op (outer+inner)\n",
              "nested ProfScope pair, enabled", nested_ns);
  std::printf("%-34s %12.1f ns/op\n", "Rdbms::Step, profiler off",
              step_off_ns);
  std::printf("%-34s %12.1f ns/op (%+.2f%%)\n", "Rdbms::Step, profiler on",
              step_on_ns, step_delta_pct);

  bench::JsonReport report("profiler_overhead",
                           {{"unit", "ns/op"},
                            {"scope_iterations", kScopeIters},
                            {"step_iterations", kStepIters}});
  report.AddRow({{"case", "scope_disabled"}, {"ns_per_op", disabled_ns}});
  report.AddRow({{"case", "scope_enabled"}, {"ns_per_op", enabled_ns}});
  report.AddRow({{"case", "nested_pair_enabled"}, {"ns_per_op", nested_ns}});
  report.AddRow(
      {{"case", "rdbms_step_profiler_off"}, {"ns_per_op", step_off_ns}});
  report.AddRow({{"case", "rdbms_step_profiler_on"},
                 {"ns_per_op", step_on_ns},
                 {"delta_pct", step_delta_pct}});
  if (!report.Save()) return 1;
  std::printf("\nwrote %s\n", report.FileName().c_str());
  return 0;
}
