// Snapshot fan-out benchmark: one ticker publishing progress snapshots
// to massive in-process subscriber populations through the net layer's
// SnapshotFanout + SubscriberPool (the same machinery TCP subscribers
// ride, minus the sockets).
//
// What it demonstrates, per the O(1)-publish design in net/fanout.h:
//   - the publishing (ticker) thread does ZERO per-subscriber work: a
//     publish costs one pointer swap plus one signal per registered
//     waker, measured by fanout counters (publish_ops / publishes), so
//     ticker throughput is flat from 1k to 100k subscribers;
//   - per-subscriber delta encoding and queueing happens on the pool
//     workers, and publish->pop latency stays bounded (p50/p99
//     reported at every scale).
//
// Modes:
//   bench_net_fanout              full sweep at 1k / 10k / 100k
//                                 subscribers; writes
//                                 BENCH_net_fanout.json
//   bench_net_fanout --perfsmoke  fast CI assertion (ctest label
//                                 "perfsmoke"): ops-per-publish must be
//                                 byte-identical at 64 and 2048
//                                 subscribers — counter-based, no
//                                 wall-clock thresholds, cannot flake
//                                 on slow machines — and p99 latency
//                                 is computed and reported.
//
// MQPI_NET_SUBS caps the largest scale (default 100000).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "engine/planner.h"
#include "net/client.h"
#include "net/fanout.h"
#include "net/server.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

constexpr int kQueries = 6;
constexpr int kConsumerThreads = 4;
constexpr int kPoolThreads = 4;

struct ScaleResult {
  int subscribers = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ticker_quanta_per_sec = 0.0;
  /// Fan-out work on the publishing thread per publish (fanout
  /// counters): 1 swap + 1 signal per waker, independent of the
  /// subscriber count.
  double ops_per_publish = 0.0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t sheds = 0;
};

/// Pumps every subscriber in [begin, end) until its view reaches
/// `target`, appending publish->pop latency samples (us).
void PumpSlice(std::vector<net::LocalSubscriber>* subs, std::size_t begin,
               std::size_t end, std::uint64_t target,
               net::SnapshotFanout* fanout, std::vector<double>* latencies) {
  std::vector<std::uint64_t> sequences;
  for (;;) {
    std::size_t done = 0;
    for (std::size_t i = begin; i < end; ++i) {
      auto& sub = (*subs)[i];
      if (sub.view().sequence() >= target) {
        ++done;
        continue;
      }
      sequences.clear();
      sub.Pump(&sequences);
      const std::int64_t now = bench::NowNs();
      for (const std::uint64_t seq : sequences) {
        const std::int64_t stamp = fanout->PublishWallNs(seq);
        if (stamp > 0 && now > stamp) {
          latencies->push_back(static_cast<double>(now - stamp) * 1e-3);
        }
      }
      if (sub.view().sequence() >= target) ++done;
    }
    if (done == end - begin) return;
    std::this_thread::yield();
  }
}

ScaleResult RunScale(int subscribers, int paced_rounds, int burst_quanta) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  service::PiService service(&catalog, options);

  net::PiServerOptions server_options;
  server_options.pool_threads = kPoolThreads;
  // The burst phase publishes without consumer pumping in between;
  // generous queue bounds keep coalescing (not shedding) the pressure
  // valve.
  server_options.subscription.max_queued_frames = 4096;
  server_options.subscription.max_queued_bytes = std::size_t{64} << 20;
  net::PiServer server(&service, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }

  auto session = service.OpenSession("fanout-load");
  for (int i = 0; i < kQueries; ++i) {
    // Never finishes within the bench: every tick changes every row,
    // so each paced publish produces a real (all-rows) delta.
    (void)session->Submit(engine::QuerySpec::Synthetic(1e9));
  }
  service.PublishNow();

  std::vector<net::LocalSubscriber> subs;
  subs.reserve(static_cast<std::size_t>(subscribers));
  for (int i = 0; i < subscribers; ++i) {
    subs.emplace_back(server.pool()->Subscribe());
  }

  ScaleResult result;
  result.subscribers = subscribers;

  // Pumps every subscriber up to the latest snapshot, the subscribers
  // split into one slice per consumer thread.
  std::vector<std::vector<double>> thread_latencies(kConsumerThreads);
  const std::size_t slice =
      (subs.size() + kConsumerThreads - 1) / kConsumerThreads;
  auto pump_all = [&] {
    const std::uint64_t target = service.snapshot()->sequence;
    std::vector<std::thread> consumers;
    for (int t = 0; t < kConsumerThreads; ++t) {
      const std::size_t begin = std::min(subs.size(), t * slice);
      const std::size_t end = std::min(subs.size(), begin + slice);
      if (begin == end) continue;
      consumers.emplace_back(PumpSlice, &subs, begin, end, target,
                             server.fanout(), &thread_latencies[t]);
    }
    for (auto& consumer : consumers) consumer.join();
  };

  // ---- paced phase: publish, then fan in the latency samples ----------------
  for (int round = 0; round < paced_rounds; ++round) {
    const Status status = service.Advance(options.rdbms.quantum);
    if (!status.ok()) {
      std::fprintf(stderr, "advance failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    pump_all();
  }
  std::vector<double> latencies;
  for (auto& part : thread_latencies) {
    latencies.insert(latencies.end(), part.begin(), part.end());
  }
  result.p50_us = Percentile(latencies, 50.0);
  result.p99_us = Percentile(std::move(latencies), 99.0);

  // ---- burst phase: ticker throughput with zero consumer pumping ------------
  const std::int64_t t0 = bench::NowNs();
  for (int i = 0; i < burst_quanta; ++i) {
    (void)service.Advance(options.rdbms.quantum);
  }
  const std::int64_t t1 = bench::NowNs();
  result.ticker_quanta_per_sec =
      static_cast<double>(burst_quanta) /
      (static_cast<double>(t1 - t0) * 1e-9);

  // Drain so teardown never races a mid-sweep delivery.
  pump_all();

  result.ops_per_publish =
      static_cast<double>(server.fanout()->publish_ops()) /
      static_cast<double>(server.fanout()->publishes());
  result.frames_delivered = server.metrics()->frames_sent->value();
  result.sheds = server.metrics()->slow_consumers_shed->value();

  session->Close();
  server.Stop();
  return result;
}

int Perfsmoke() {
  const ScaleResult small = RunScale(64, 3, 10);
  const ScaleResult large = RunScale(2048, 3, 10);
  bool ok = true;
  // The O(1)-publish invariant, counter-based: fan-out work on the
  // publishing thread per publish must be EXACTLY the same with 32x
  // the subscribers.
  if (small.ops_per_publish != large.ops_per_publish) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %.3f fan-out ops/publish at %d "
                 "subscribers vs %.3f at %d — publish must do zero "
                 "per-subscriber work\n",
                 small.ops_per_publish, small.subscribers,
                 large.ops_per_publish, large.subscribers);
    ok = false;
  }
  if (small.sheds != 0 || large.sheds != 0) {
    std::fprintf(stderr, "perfsmoke FAIL: subscribers were shed\n");
    ok = false;
  }
  if (large.p99_us <= 0.0) {
    std::fprintf(stderr, "perfsmoke FAIL: no p99 latency measured\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "perfsmoke OK: %.3f fan-out ops/publish at both %d and %d "
      "subscribers; p99 publish->pop %.0f us at %d subs\n",
      large.ops_per_publish, small.subscribers, large.subscribers,
      large.p99_us, large.subscribers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  bench::Banner(
      "Snapshot fan-out: publish->pop latency and ticker throughput vs "
      "subscriber count",
      "publish cost is O(1) in subscribers (pointer swap + per-pool "
      "signal), so ticker quanta/sec stays flat while p50/p99 delivery "
      "latency grows only with per-subscriber encode work on the pool");

  const int max_subs = bench::EnvInt("MQPI_NET_SUBS", 100000);
  std::vector<int> scales;
  for (const int scale : {1000, 10000, 100000}) {
    if (scale <= max_subs) scales.push_back(scale);
  }
  if (scales.empty()) scales.push_back(max_subs);

  bench::JsonReport report("net_fanout",
                           {{"unit", "us"},
                            {"queries", kQueries},
                            {"pool_threads", kPoolThreads},
                            {"consumer_threads", kConsumerThreads}});

  std::printf("%10s %10s %10s %16s %14s %12s\n", "subs", "p50 us", "p99 us",
              "ticker quanta/s", "ops/publish", "frames");
  bool ok = true;
  double first_ops = 0.0;
  for (std::size_t s = 0; s < scales.size(); ++s) {
    const int subscribers = scales[s];
    const int paced = subscribers >= 100000 ? 5 : 10;
    const ScaleResult r = RunScale(subscribers, paced, 50);
    std::printf("%10d %10.1f %10.1f %16.0f %14.3f %12llu\n", r.subscribers,
                r.p50_us, r.p99_us, r.ticker_quanta_per_sec,
                r.ops_per_publish,
                static_cast<unsigned long long>(r.frames_delivered));
    report.AddRow({{"subscribers", r.subscribers},
                   {"p50_us", r.p50_us},
                   {"p99_us", r.p99_us},
                   {"ticker_quanta_per_sec", r.ticker_quanta_per_sec},
                   {"ops_per_publish", r.ops_per_publish},
                   {"frames", r.frames_delivered},
                   {"sheds", r.sheds}});
    if (s == 0) {
      first_ops = r.ops_per_publish;
    } else if (r.ops_per_publish != first_ops) {
      std::fprintf(stderr,
                   "FAIL: fan-out ops/publish moved from %.3f to %.3f "
                   "between scales — publish must be O(1) in "
                   "subscribers\n",
                   first_ops, r.ops_per_publish);
      ok = false;
    }
    if (r.sheds != 0) {
      std::fprintf(stderr, "FAIL: %llu subscribers shed at %d subs\n",
                   static_cast<unsigned long long>(r.sheds), r.subscribers);
      ok = false;
    }
  }
  if (!report.Save() || !ok) return 1;
  std::printf("\nresults written to %s\n", report.FileName().c_str());
  return 0;
}
