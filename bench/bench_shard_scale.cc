// Shard-scale benchmark: identical aggregate load behind 1/2/4/8
// core-pinned scheduler shards, measuring aggregate quanta/sec and the
// publish -> merged-visibility latency of the coordinator.
//
// Why sharding wins even on few cores: one PiService's quantum costs
// roughly f + n*u (fixed ticker overhead plus per-live-query work —
// estimate-all, snapshot build). Split the same n queries across N
// shards and each quantum costs f + (n/N)*u, so the fleet steps
// N-times cheaper quanta and aggregate quanta/sec approaches N*x the
// single scheduler's as n*u dominates f — with no global lock anywhere
// on the tick path to give it back. The coordinator's merge runs on
// the reader's clock (here a poller standing in for the server loop)
// and never blocks a shard.
//
// Modes:
//   bench_shard_scale              full sweep at shards = 1/2/4/8 with
//                                  the same aggregate load; writes
//                                  BENCH_shard_scale.json
//   bench_shard_scale --perfsmoke  fast CI gate (ctest label
//                                  "perfsmoke"): aggregate quanta/sec
//                                  at 4 shards must be >= 3x the
//                                  1-shard figure under the identical
//                                  aggregate load (relative comparison
//                                  on one box, no absolute wall-clock
//                                  thresholds)
//
// Env knobs: MQPI_SHARD_QUERIES (aggregate live queries, default
// 2000), MQPI_SHARD_WALL_MS (measured window per scale, default 600).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "engine/planner.h"
#include "service/session.h"
#include "service/sharded_service.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

struct ScaleResult {
  int shards = 0;
  double quanta_per_sec = 0.0;
  std::uint64_t quanta = 0;
  std::uint64_t merges = 0;
  double merge_ns_mean = 0.0;
  double merge_ns_p99 = 0.0;
  double publish_to_merge_ms_mean = 0.0;
  double publish_to_merge_ms_p99 = 0.0;
};

// One measured window: `total_queries` long-lived queries split evenly
// across `shards` shards (the identical-aggregate-load invariant),
// tickers flat out, a poller thread standing in for the server loop's
// merge quantum.
ScaleResult RunScale(int shards, int total_queries, double wall_s) {
  storage::Catalog catalog;
  service::ShardedPiServiceOptions options;
  options.num_shards = shards;
  options.shard.rdbms.processing_rate = 100.0;
  options.shard.rdbms.quantum = 0.25;
  options.shard.time_scale = 0.0;     // flat out
  options.shard.start_ticker = false; // load first, then start
  options.pin_cpus = true;
  service::ShardedPiService coordinator(&catalog, options);

  // Load BEFORE the tickers start so every configuration measures the
  // same steady state. Costs are huge so nothing finishes mid-window
  // (a completion would shrink the live set and change the per-quantum
  // cost being compared).
  std::vector<std::unique_ptr<service::Session>> sessions;
  const int per_shard = total_queries / shards;
  for (int s = 0; s < shards; ++s) {
    auto session = coordinator.shard_service(s)->OpenSession(
        "bench-shard-" + std::to_string(s));
    for (int q = 0; q < per_shard; ++q) {
      auto id = session->Submit(engine::QuerySpec::Synthetic(1e9));
      if (!id.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     id.status().ToString().c_str());
        std::exit(1);
      }
    }
    sessions.push_back(std::move(session));
  }

  // Publish stamps, one atomic per shard, written by each shard's
  // publish hook (the O(1) path the server would use).
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> publish_ns;
  for (int s = 0; s < shards; ++s) {
    publish_ns.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  }
  for (int s = 0; s < shards; ++s) {
    std::atomic<std::int64_t>* stamp = publish_ns[std::size_t(s)].get();
    coordinator.shard_service(s)->SetPublishHook(
        [stamp](const service::SnapshotPtr&) {
          stamp->store(bench::NowNs(), std::memory_order_release);
        });
  }

  coordinator.Start();

  // Poller = the coordinator quantum: merge once per pass, record how
  // stale the newest constituent shard publish was when the merge
  // became visible.
  std::atomic<bool> stop{false};
  std::vector<double> visibility_ms;
  std::thread poller([&] {
    service::SnapshotPtr prev = coordinator.GlobalSnapshot();
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      service::SnapshotPtr snap = coordinator.GlobalSnapshot();
      if (snap == prev) continue;
      const std::int64_t now = bench::NowNs();
      std::int64_t lag = 0;
      for (std::size_t i = 0; i < snap->shard_loads.size(); ++i) {
        if (i < prev->shard_loads.size() &&
            snap->shard_loads[i].sequence == prev->shard_loads[i].sequence) {
          continue;  // this shard did not feed the new merge
        }
        const std::int64_t stamp =
            publish_ns[i]->load(std::memory_order_acquire);
        if (stamp != 0 && now - stamp > lag) lag = now - stamp;
      }
      if (lag > 0) visibility_ms.push_back(double(lag) / 1e6);
      prev = std::move(snap);
    }
  });

  // Settle, then measure a clean counter delta.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::uint64_t start_quanta = 0;
  for (int s = 0; s < shards; ++s) {
    start_quanta += coordinator.shard_service(s)
                        ->metrics()
                        ->counter("service.quanta_stepped")
                        ->value();
  }
  const std::int64_t t0 = bench::NowNs();
  std::this_thread::sleep_for(std::chrono::duration<double>(wall_s));
  std::uint64_t end_quanta = 0;
  for (int s = 0; s < shards; ++s) {
    end_quanta += coordinator.shard_service(s)
                      ->metrics()
                      ->counter("service.quanta_stepped")
                      ->value();
  }
  const double measured_s = double(bench::NowNs() - t0) / 1e9;

  stop.store(true, std::memory_order_release);
  poller.join();
  for (int s = 0; s < shards; ++s) {
    coordinator.shard_service(s)->SetPublishHook(nullptr);
  }
  coordinator.Stop();

  ScaleResult result;
  result.shards = shards;
  result.quanta = end_quanta - start_quanta;
  result.quanta_per_sec = double(result.quanta) / measured_s;
  result.merges = coordinator.metrics()->counter("coord.merges")->value();
  const service::Histogram* merge_ns =
      coordinator.metrics()->histogram("coord.merge_ns");
  if (merge_ns->count() > 0) {
    result.merge_ns_mean = merge_ns->sum() / double(merge_ns->count());
    result.merge_ns_p99 = merge_ns->Quantile(0.99);
  }
  result.publish_to_merge_ms_mean = Mean(visibility_ms);
  result.publish_to_merge_ms_p99 = Percentile(std::move(visibility_ms), 99.0);
  for (auto& session : sessions) session->Close();
  return result;
}

int Perfsmoke() {
  const int queries = bench::EnvInt("MQPI_SHARD_QUERIES", 2000);
  const double wall_s =
      double(bench::EnvInt("MQPI_SHARD_WALL_MS", 600)) / 1e3;
  const ScaleResult one = RunScale(1, queries, wall_s);
  const ScaleResult four = RunScale(4, queries, wall_s);
  const double ratio =
      four.quanta_per_sec /
      (one.quanta_per_sec > 0.0 ? one.quanta_per_sec : 1e-9);
  if (ratio < 3.0) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %.0f quanta/s at 4 shards vs %.0f at 1 "
                 "shard (%.2fx) with %d aggregate queries — the floor is "
                 "3x\n",
                 four.quanta_per_sec, one.quanta_per_sec, ratio, queries);
    return 1;
  }
  std::printf(
      "perfsmoke OK: %.0f quanta/s at 4 shards vs %.0f at 1 shard (%.2fx) "
      "with %d aggregate queries; merge mean %.0f ns, publish->merge p99 "
      "%.2f ms\n",
      four.quanta_per_sec, one.quanta_per_sec, ratio, queries,
      four.merge_ns_mean, four.publish_to_merge_ms_p99);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  bench::Banner(
      "Shard scaling: aggregate quanta/sec at 1/2/4/8 core-pinned shards "
      "under the identical aggregate load, plus coordinator merge cost "
      "and publish->merged-visibility latency",
      "per-quantum cost is f + (n/N)*u, so aggregate throughput "
      "approaches N*x the single scheduler as per-query work dominates; "
      "the merge runs on the reader's clock and never blocks a shard");

  const int queries = bench::EnvInt("MQPI_SHARD_QUERIES", 2000);
  const double wall_s =
      double(bench::EnvInt("MQPI_SHARD_WALL_MS", 600)) / 1e3;
  const int scales[] = {1, 2, 4, 8};

  bench::JsonReport report(
      "shard_scale", {{"aggregate_queries", queries}, {"window_s", wall_s}});

  std::printf("aggregate load: %d long-lived queries, %.1fs window\n\n",
              queries, wall_s);
  std::printf("%7s %14s %9s %9s %14s %18s\n", "shards", "quanta/sec",
              "speedup", "merges", "merge ns mean", "pub->merge p99 ms");
  double baseline = 0.0;
  bool ok = true;
  for (const int shards : scales) {
    const ScaleResult r = RunScale(shards, queries, wall_s);
    if (shards == 1) baseline = r.quanta_per_sec;
    const double speedup =
        r.quanta_per_sec / (baseline > 0.0 ? baseline : 1e-9);
    std::printf("%7d %14.0f %8.2fx %9llu %14.0f %18.2f\n", r.shards,
                r.quanta_per_sec, speedup,
                static_cast<unsigned long long>(r.merges), r.merge_ns_mean,
                r.publish_to_merge_ms_p99);
    report.AddRow({{"shards", r.shards},
                   {"quanta_per_sec", r.quanta_per_sec},
                   {"speedup", speedup},
                   {"merges", r.merges},
                   {"merge_ns_mean", r.merge_ns_mean},
                   {"merge_ns_p99", r.merge_ns_p99},
                   {"publish_to_merge_ms_mean", r.publish_to_merge_ms_mean},
                   {"publish_to_merge_ms_p99", r.publish_to_merge_ms_p99}});
    if (shards == 4 && speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: %.2fx at 4 shards — the acceptance bar is >= 3x "
                   "aggregate quanta/sec over one shard\n",
                   speedup);
      ok = false;
    }
  }
  if (!report.Save() || !ok) return 1;
  std::printf("\nresults written to %s\n", report.FileName().c_str());
  return 0;
}
