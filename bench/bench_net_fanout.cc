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
//   - each frame is encoded once per (base, latest) snapshot pair and
//     shared by every subscriber at that base (the fanout's frame
//     memo), so frames encoded per publish are flat in the subscriber
//     count too; queueing happens on the pool workers, and
//     publish->pop latency stays bounded (p50/p99 reported at every
//     scale).
//
// Modes:
//   bench_net_fanout              full sweep at 1k / 10k / 100k
//                                 subscribers; writes
//                                 BENCH_net_fanout.json. Ticker
//                                 quanta/s is the median of 3
//                                 bursts of 150000 quanta each.
//   bench_net_fanout --perfsmoke  fast CI assertion (ctest label
//                                 "perfsmoke"): ops-per-publish and
//                                 frames encoded per paced publish
//                                 must be identical at 64 and 2048
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
// The burst phase reports the median ticker rate of kBursts bursts.
// Each burst is timed in chunks of at most kBurstChunk quanta, well
// under the subscription frame cap, with the consumers drained between
// chunks off the clock so no queue can overflow.
constexpr int kBursts = 3;
constexpr int kBurstChunk = 2000;
// Quanta per burst in the full sweep: about 1 s of ticking at 100k
// subscribers, long enough to average over many pool sweeps.
constexpr int kBurstQuanta = 150000;

struct ScaleResult {
  int subscribers = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ticker_quanta_per_sec = 0.0;
  /// Fan-out work on the publishing thread per publish (fanout
  /// counters): 1 swap + 1 signal per waker, independent of the
  /// subscriber count.
  double ops_per_publish = 0.0;
  /// Frames encoded per publish in the paced phase, where every
  /// publish is fully delivered before the next: one per distinct
  /// subscriber base, independent of the subscriber count.
  double encodes_per_publish = 0.0;
  std::uint64_t frames_encoded = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t sheds = 0;
};

/// Pumps every subscriber in [begin, end) until its view reaches
/// `target`, appending publish->pop latency samples (us) unless
/// `latencies` is null.
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
      if (latencies == nullptr) continue;
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
  // split into one slice per consumer thread; records latency samples
  // only when `record` is set.
  std::vector<std::vector<double>> thread_latencies(kConsumerThreads);
  const std::size_t slice =
      (subs.size() + kConsumerThreads - 1) / kConsumerThreads;
  auto pump_all = [&](bool record) {
    const std::uint64_t target = service.snapshot()->sequence;
    std::vector<std::thread> consumers;
    for (int t = 0; t < kConsumerThreads; ++t) {
      const std::size_t begin = std::min(subs.size(), t * slice);
      const std::size_t end = std::min(subs.size(), begin + slice);
      if (begin == end) continue;
      consumers.emplace_back(PumpSlice, &subs, begin, end, target,
                             server.fanout(),
                             record ? &thread_latencies[t] : nullptr);
    }
    for (auto& consumer : consumers) consumer.join();
  };

  // ---- paced phase: publish, then fan in the latency samples ----------------
  const std::uint64_t encoded0 = server.metrics()->frames_encoded->value();
  const std::uint64_t publishes0 = server.fanout()->publishes();
  for (int round = 0; round < paced_rounds; ++round) {
    const Status status = service.Advance(options.rdbms.quantum);
    if (!status.ok()) {
      std::fprintf(stderr, "advance failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    pump_all(true);
  }
  result.encodes_per_publish =
      static_cast<double>(server.metrics()->frames_encoded->value() -
                          encoded0) /
      static_cast<double>(server.fanout()->publishes() - publishes0);
  std::vector<double> latencies;
  for (auto& part : thread_latencies) {
    latencies.insert(latencies.end(), part.begin(), part.end());
  }
  result.p50_us = Percentile(latencies, 50.0);
  result.p99_us = Percentile(std::move(latencies), 99.0);

  // ---- burst phase: ticker throughput with zero consumer pumping ------------
  // The final drain also keeps teardown from racing a mid-sweep
  // delivery.
  std::vector<double> rates;
  for (int burst = 0; burst < kBursts; ++burst) {
    std::int64_t ticking_ns = 0;
    for (int done = 0; done < burst_quanta; done += kBurstChunk) {
      const int chunk = std::min(kBurstChunk, burst_quanta - done);
      const std::int64_t t0 = bench::NowNs();
      for (int i = 0; i < chunk; ++i) {
        (void)service.Advance(options.rdbms.quantum);
      }
      ticking_ns += bench::NowNs() - t0;
      pump_all(false);
    }
    rates.push_back(static_cast<double>(burst_quanta) /
                    (static_cast<double>(ticking_ns) * 1e-9));
  }
  result.ticker_quanta_per_sec = Percentile(std::move(rates), 50.0);

  result.ops_per_publish =
      static_cast<double>(server.fanout()->publish_ops()) /
      static_cast<double>(server.fanout()->publishes());
  result.frames_encoded = server.metrics()->frames_encoded->value();
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
  // Encode-once, counter-based: each paced publish is delivered to
  // every subscriber before the next, so all of them share one base
  // and one encode — per-subscriber encoding would scale this 32x.
  if (small.encodes_per_publish != large.encodes_per_publish) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %.3f frames encoded/publish at %d "
                 "subscribers vs %.3f at %d — subscribers at the same "
                 "base must share one encode\n",
                 small.encodes_per_publish, small.subscribers,
                 large.encodes_per_publish, large.subscribers);
    ok = false;
  }
  if (large.encodes_per_publish <= 0.0) {
    std::fprintf(stderr, "perfsmoke FAIL: no frame encodes counted\n");
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
      "perfsmoke OK: %.3f fan-out ops/publish and %.3f frames "
      "encoded/publish at both %d and %d subscribers; p99 "
      "publish->pop %.0f us at %d subs\n",
      large.ops_per_publish, large.encodes_per_publish, small.subscribers,
      large.subscribers, large.p99_us, large.subscribers);
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
      "latency grows only with per-subscriber queue work on the pool");

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

  std::printf("%10s %10s %10s %16s %14s %12s %12s\n", "subs", "p50 us",
              "p99 us", "ticker quanta/s", "ops/publish", "frames",
              "encoded");
  bool ok = true;
  double first_ops = 0.0;
  for (std::size_t s = 0; s < scales.size(); ++s) {
    const int subscribers = scales[s];
    const int paced = subscribers >= 100000 ? 5 : 10;
    const ScaleResult r = RunScale(subscribers, paced, kBurstQuanta);
    std::printf("%10d %10.1f %10.1f %16.0f %14.3f %12llu %12llu\n",
                r.subscribers, r.p50_us, r.p99_us, r.ticker_quanta_per_sec,
                r.ops_per_publish,
                static_cast<unsigned long long>(r.frames_delivered),
                static_cast<unsigned long long>(r.frames_encoded));
    report.AddRow({{"subscribers", r.subscribers},
                   {"p50_us", r.p50_us},
                   {"p99_us", r.p99_us},
                   {"ticker_quanta_per_sec", r.ticker_quanta_per_sec},
                   {"ops_per_publish", r.ops_per_publish},
                   {"frames", r.frames_delivered},
                   {"frames_encoded", r.frames_encoded},
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
