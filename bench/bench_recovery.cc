// Recovery-plane benchmark: what durability costs while the service is
// alive, and what death costs when it has to be survived.
//
// For each scale (journaled input events), the bench
//   - drives a manual-mode PiService with a DurableLog event sink
//     (submissions, scheduled arrivals, control calls, steps,
//     publishes) and reports journal append throughput (events/s) and
//     on-disk bytes per event;
//   - cuts a checkpoint at the end and reports its latency and size
//     (the checkpoint is the consolidated event history, so this is
//     the full genesis-to-cut image, worst case);
//   - "crashes" (detaches the sink mid-flight) and recovers the
//     directory, reporting replay throughput (events/s) and wall time,
//     and asserting the recovered snapshot is byte-identical to the
//     pre-crash one — a benchmark run that recovers to the wrong state
//     exits nonzero.
//
// Writes BENCH_recovery.json in the working directory.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "engine/planner.h"
#include "recover/durable_log.h"
#include "recover/recovery.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

std::uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

struct ScaleResult {
  std::uint64_t events = 0;
  double append_events_per_sec = 0.0;
  double journal_bytes_per_event = 0.0;
  double checkpoint_ms = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  double recover_ms = 0.0;
  double replay_events_per_sec = 0.0;
  bool verified = false;
  bool byte_identical = false;
};

ScaleResult RunScale(const storage::Catalog* catalog, std::uint64_t target) {
  char tmpl[] = "/tmp/mqpi_bench_recover_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);

  ScaleResult result;
  std::string pre;
  {
    auto log = std::make_unique<recover::DurableLog>();
    if (!log->Open(dir, {}).ok()) std::abort();

    service::PiServiceOptions options;
    options.rdbms.processing_rate = 200.0;
    options.rdbms.quantum = 0.25;
    options.rdbms.cost_model.noise_sigma = 0.0;
    options.start_ticker = false;
    options.event_sink = log.get();
    service::PiService service(catalog, options);
    auto session = service.OpenSession("bench");

    Rng rng(20060326);
    const std::int64_t start = bench::NowNs();
    // Keep a rolling population: submit, step, control, publish until
    // the history reaches the target.
    std::vector<QueryId> live;
    while (log->history_size() < target) {
      auto id = session->Submit(
          engine::QuerySpec::Synthetic(rng.Uniform(40.0, 400.0)));
      if (id.ok()) live.push_back(*id);
      if (live.size() > 8) {
        (void)session->Abort(live.front());
        live.erase(live.begin());
      }
      if (!service.Advance(0.5).ok()) std::abort();
      service.PublishNow();
    }
    const double append_s = 1e-9 * double(bench::NowNs() - start);
    result.events = log->history_size();
    result.append_events_per_sec =
        static_cast<double>(result.events) / append_s;
    result.journal_bytes_per_event =
        static_cast<double>(
            FileBytes(recover::DurableLog::JournalPath(dir, 0))) /
        static_cast<double>(result.events);

    const std::int64_t ckpt_start = bench::NowNs();
    if (!recover::Checkpoint(&service, log.get()).ok()) std::abort();
    result.checkpoint_ms = 1e-6 * double(bench::NowNs() - ckpt_start);
    result.checkpoint_bytes = FileBytes(recover::DurableLog::CheckpointPath(
        dir, log->active_index()));

    // A little post-checkpoint activity so recovery replays both the
    // checkpoint image and a journal tail, then crash.
    if (!service.Advance(0.5).ok()) std::abort();
    service.PublishNow();
    pre = recover::EncodeSnapshotBytes(service.BuildUnpublishedSnapshot());
    (void)log->Sync();
    service.SetEventSink(nullptr);
    session->Close();
  }

  const std::int64_t recover_start = bench::NowNs();
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 200.0;
  options.rdbms.quantum = 0.25;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  auto recovered = recover::Recover(catalog, dir, options);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    std::abort();
  }
  result.recover_ms = 1e-6 * double(bench::NowNs() - recover_start);
  result.replay_events_per_sec =
      static_cast<double>(recovered->events_replayed) /
      (result.recover_ms / 1e3);
  result.verified = recovered->verified;
  result.byte_identical =
      recover::EncodeSnapshotBytes(
          recovered->service->BuildUnpublishedSnapshot()) == pre;

  const std::string cleanup = "rm -rf '" + dir + "'";
  (void)::system(cleanup.c_str());
  return result;
}

}  // namespace

int main() {
  storage::Catalog catalog;
  const std::vector<std::uint64_t> scales = {500, 2000, 10000};

  std::printf("%10s %14s %10s %12s %12s %12s %9s %6s\n", "events",
              "append-ev/s", "B/event", "ckpt-ms", "ckpt-bytes",
              "recover-ms", "replay/s", "exact");
  bench::JsonReport report("recovery");
  bool all_exact = true;
  for (const std::uint64_t scale : scales) {
    const ScaleResult r = RunScale(&catalog, scale);
    report.AddRow({{"events", r.events},
                   {"append_events_per_sec", r.append_events_per_sec},
                   {"journal_bytes_per_event", r.journal_bytes_per_event},
                   {"checkpoint_ms", r.checkpoint_ms},
                   {"checkpoint_bytes", r.checkpoint_bytes},
                   {"recover_ms", r.recover_ms},
                   {"replay_events_per_sec", r.replay_events_per_sec},
                   {"verified", r.verified},
                   {"byte_identical", r.byte_identical}});
    all_exact = all_exact && r.verified && r.byte_identical;
    std::printf("%10llu %14.0f %10.1f %12.2f %12llu %12.2f %9.0f %6s\n",
                static_cast<unsigned long long>(r.events),
                r.append_events_per_sec, r.journal_bytes_per_event,
                r.checkpoint_ms,
                static_cast<unsigned long long>(r.checkpoint_bytes),
                r.recover_ms, r.replay_events_per_sec,
                r.verified && r.byte_identical ? "yes" : "NO");
  }

  if (!report.Save()) return 1;
  std::printf("\nresults written to %s\n", report.FileName().c_str());
  return all_exact ? 0 : 1;
}
