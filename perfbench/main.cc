// End-to-end serving benchmark for the multi-query progress indicator.
//
// One process runs the whole single-shard serving stack: a
// service::PiService in manual mode, driven one quantum at a time by
// this driver thread, with a net::PiServer on loopback in front of it.
// Real net::Client TCP connections and in-process net::LocalSubscribers
// read the snapshot stream.
//
// Load model: a closed loop. The driver calls Advance(quantum), then
// waits until every subscriber has applied that quantum's snapshot (one
// "cycle"), and only then issues its RPCs, each waiting for its reply.
// Submission order is therefore deterministic in simulated time, and so
// is the estimate accuracy. Threads: the driver, the server's loop
// thread and two subscriber-pool workers, i.e. four, the core count the
// benchmark was written for. At most four TCP connections per workload.
//
// A run is a sequence of episodes. Each episode builds the stack from
// scratch (data generation, preload, connects, subscribes, a few
// warm-up quanta), measures a fixed number of quanta and tears the stack
// down. --seconds sets the number of episodes from each workload's
// nominal episode length on a 4-core machine. Fixed episodes keep the
// measured inputs, and each quantum's work, a property of the code, not
// of how many quanta a fast or slow machine fits into the run, which
// matters on `churn`, whose per-quantum cost grows with the history.
//
// Usage:
//   perfbench --workload steady|churn|fanout_wide --seed N --seconds S
//             --trace 0|1 --out DIR
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced blocks of quanta, prints the per-layer breakdown and writes
// the spans of the traced blocks to DIR as a Chrome trace file. Every
// run checks its outputs; the last stdout line is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/planner.h"
#include "engine/sql_parser.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/auditor.h"
#include "obs/profiler.h"
#include "recover/durable_log.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "workload/zipf_workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mqpi;

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of every thread in the process. The kernel leaves out time
// a virtual CPU spent stolen by the hypervisor, so on a shared host this
// is the steadier measure of the work one quantum costs.
std::int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---- workloads --------------------------------------------------------------

enum class Kind { kSteady, kChurn, kFanoutWide };

struct Workload {
  const char* name;
  Kind kind;
  const char* why;
  // Engine.
  double rate = 100.0;  // C, work units per simulated second
  SimTime quantum = 0.25;
  int mpl = 1 << 30;
  double cost_noise_sigma = 0.0;
  // Episode shape. A run measures seconds / nominal_episode_s episodes
  // (at least three), so every run of a given length measures the same
  // inputs however fast the machine or the code is.
  int episode_quanta = 0;
  int warmup_quanta = 0;
  double nominal_episode_s = 0.0;
  // Readers and requests.
  int tcp_subscribers = 0;
  int local_subscribers = 0;
  int progress_per_quantum = 2;
  int whatif_per_quantum = 2;
  int whatif_blocked = 3;  // other running queries the scenario blocks
  // Synthetic preload (steady, fanout_wide).
  int synthetic_queries = 0;
  double cost_lo = 0.0;
  double cost_hi = 0.0;
  int blocked_queries = 0;
  // TPC-R arrivals (churn).
  double load = 0.0;  // lambda * c-bar / C
  double zipf_a = 0.0;
  int max_rank = 0;
  bool journal = false;
};

// Server threads: one loop thread plus the pool workers; with the
// driver that makes four.
constexpr int kPoolThreads = 2;
// Traced runs alternate untraced and traced blocks of this many quanta.
constexpr int kTraceBlock = 10;
// Churn arrivals come in blocks of this many (see GenerateInputs).
constexpr int kArrivalBlock = 100;

const Workload kWorkloads[] = {
    {
        .name = "steady",
        .kind = Kind::kSteady,
        .why = "2000 long-lived synthetic queries, nothing arrives or "
               "finishes: the regime the incremental engine and batch "
               "kernel were built for; pi and snapshot build dominate",
        .episode_quanta = 250,
        .warmup_quanta = 8,
        .nominal_episode_s = 3.6,
        .tcp_subscribers = 2,
        .synthetic_queries = 2000,
        .cost_lo = 1e3,
        .cost_hi = 1e5,
    },
    {
        .name = "churn",
        .kind = Kind::kChurn,
        .why = "Poisson TPC-R arrivals over TCP with MPL 8 and a journal: "
               "real plans load sched/engine/storage, arrivals and the "
               "queue bypass the fast path, completions grow the history",
        .rate = 1e5,
        .mpl = 8,
        .cost_noise_sigma = 0.25,
        .episode_quanta = 400,
        .warmup_quanta = 8,
        .nominal_episode_s = 4.5,
        .tcp_subscribers = 1,
        .load = 0.87,
        .zipf_a = 1.2,
        .max_rank = 100,
        .journal = true,
    },
    {
        .name = "fanout_wide",
        .kind = Kind::kFanoutWide,
        .why = "20 synthetic queries, half blocked, read by 10k in-process "
               "subscribers and one TCP subscriber: net delta encode and "
               "client pump dominate, pi work is negligible",
        .episode_quanta = 100,
        .warmup_quanta = 4,
        .nominal_episode_s = 6.0,
        .tcp_subscribers = 1,
        .local_subscribers = 10000,
        .synthetic_queries = 20,
        .cost_lo = 1e3,
        .cost_hi = 1e5,
        .blocked_queries = 10,
    },
};

// ---- command line -----------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Die("unknown workload " + value);
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (args.workload == nullptr || !have_seed || !(args.seconds > 0.0) ||
      args.out_dir.empty()) {
    Die("usage: perfbench --workload steady|churn|fanout_wide --seed N "
        "--seconds S --trace 0|1 --out DIR");
  }
  return args;
}

// ---- spans ------------------------------------------------------------------

// In-memory span log for the traced blocks: each span has a name, start,
// end, parent and the quantum or request id it belongs to. Spans nest
// per thread; a span opened on a thread with no open span (the loop
// thread's journal appends during a submit) takes the driver's
// innermost open span as its parent.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::uint64_t key;     // quantum sequence or request id
    std::uint32_t thread;
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint32_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

  std::atomic<std::uint32_t> driver_span{0};

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint64_t key,
            bool driver = true)
      : log_(log->enabled() ? log : nullptr) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.id = log_->NextId();
    span_.parent = current_ != nullptr
                       ? current_->span_.id
                       : log_->driver_span.load(std::memory_order_relaxed);
    span_.key = key;
    span_.thread = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
    driver_ = driver;
    parent_scope_ = current_;
    current_ = this;
    if (driver_) {
      saved_driver_span_ = log_->driver_span.load(std::memory_order_relaxed);
      log_->driver_span.store(span_.id, std::memory_order_relaxed);
    }
    span_.start_ns = NowNs();
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    current_ = parent_scope_;
    if (driver_) {
      log_->driver_span.store(saved_driver_span_, std::memory_order_relaxed);
    }
    log_->Add(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  SpanLog::Span span_{};
  bool driver_ = false;
  std::uint32_t saved_driver_span_ = 0;
  SpanScope* parent_scope_ = nullptr;
  static thread_local SpanScope* current_;
};
thread_local SpanScope* SpanScope::current_ = nullptr;

// ---- journal wrapper --------------------------------------------------------

// Forwards to the DurableLog and, while tracing, times every Append.
// Appends come from the driver (steps) and the server loop (submits).
class TimedSink : public recover::EventSink {
 public:
  TimedSink(recover::EventSink* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  void Append(const recover::Event& event) override {
    if (!spans_->enabled()) {
      inner_->Append(event);
      return;
    }
    const std::int64_t start = NowNs();
    {
      SpanScope span(spans_, "recover.append", 0, /*driver=*/false);
      inner_->Append(event);
    }
    ns_.fetch_add(static_cast<std::uint64_t>(NowNs() - start),
                  std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t ns() const { return ns_.load(std::memory_order_relaxed); }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  recover::EventSink* inner_;
  SpanLog* spans_;
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

// ---- inputs -----------------------------------------------------------------

// Everything the program receives in one episode, generated from the
// seed before setup ends.
struct Inputs {
  std::vector<double> costs;  // synthetic preload, in submit order
  struct Arrival {
    SimTime time;
    std::string sql;
  };
  std::vector<Arrival> arrivals;  // churn, ascending time
  std::vector<double> draws;      // RPC target picks in [0, 1), in order
  double lambda = 0.0;            // churn arrival rate
  double avg_cost = 0.0;          // churn c-bar
};

std::string PartPriceSql(int rank) {
  return "SELECT * FROM " + storage::TpcrGenerator::PartTableName(rank) +
         " p WHERE p.retailprice * 0.75 > (SELECT SUM(l.extendedprice) / "
         "SUM(l.quantity) FROM lineitem l WHERE l.partkey = p.partkey)";
}

int DrawsPerQuantum(const Workload& w) {
  return w.progress_per_quantum + w.whatif_per_quantum * (1 + w.whatif_blocked);
}

// ---- samples ----------------------------------------------------------------

struct Samples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  std::size_t size() const { return values.size(); }
  double Quantile(double q) const {
    if (values.empty()) return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - double(lo));
  }
};

// Round trips of one RPC kind: wall time, and CPU time of all threads.
struct RpcSamples {
  Samples wall_us;
  Samples cpu_us;
};

// Per-site profiler totals over the traced blocks.
struct SiteTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

// Everything a run accumulates across its episodes.
struct RunTotals {
  Samples setup_s;
  // Untraced cycles (end-to-end metrics come only from these).
  Samples quantum_ms;
  Samples quantum_cpu_ms;
  Samples publish_to_view_us;
  RpcSamples progress_rpc;
  RpcSamples submit_rpc;
  RpcSamples whatif_rpc;
  double live_rows = 0.0;  // summed over untraced measured quanta
  double cycle_s = 0.0;    // wall seconds inside untraced cycles
  // Traced cycles.
  Samples traced_quantum_ms;
  double traced_live_rows = 0.0;
  std::uint64_t traced_quanta = 0;
  double traced_cycle_ns = 0.0;
  std::map<std::string, SiteTotals> sites;
  std::uint64_t pump_ns = 0;
  std::uint64_t pump_frames = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t appends = 0;
  // Every measured quantum.
  std::uint64_t quanta = 0;
  double snapshot_rows = 0.0;
  double all_live_rows = 0.0;
  double queued_rows = 0.0;
  double last_rows_per_live = 0.0;
  // Peak RSS at the end of the first episode: every episode has the same
  // shape, and later ones would add allocator growth that depends on how
  // many episodes the machine fits into the run.
  double peak_rss_mb = 0.0;
  // Rows a delta frame carries (new or changed since the previous
  // snapshot, by DeltaEncoder::RowChanged) against rows it could carry.
  double delta_rows = 0.0;
  std::map<std::string, std::uint64_t> counters;  // deltas
  std::uint64_t journal_bytes = 0;
  // Accuracy: per-query MAPE of eta_multi, averaged over scored queries.
  double mape_sum = 0.0;
  std::uint64_t mape_queries = 0;
  std::uint64_t eta_violations = 0;
  double max_eta_error_s = 0.0;
  // Operations.
  std::uint64_t rpcs = 0;
  std::uint64_t rpc_failures = 0;
  std::uint64_t frames_expected = 0;
  std::uint64_t gaps = 0;
  std::uint64_t sheds = 0;
  std::uint64_t submits = 0;
  bool correct = true;
  std::vector<std::string> failures;
  std::vector<SpanLog::Span> spans;
  int episodes = 0;

  void Fail(const std::string& why) {
    correct = false;
    if (failures.size() < 20) failures.push_back(why);
  }
};

// Registry counters the per-layer metrics read, as deltas per episode.
const char* const kCounters[] = {
    "pi.batch_kernel_regens",  "pi.batch_kernel_hits",
    "pi.incremental_fast_path", "pi.incremental_fallback",
    "pi.forecast_cache_hit",   "pi.forecast_cache_miss",
    "pi.degraded_estimates",   "net.frames_sent",
    "net.bytes_sent",          "net.delta_frames",
    "net.full_frames",         "net.slow_consumers_shed",
    "recover.journal_records",
};

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

bool SameRow(const service::QueryProgress& a, const service::QueryProgress& b) {
  return a.id == b.id && a.session_id == b.session_id && a.state == b.state &&
         a.priority == b.priority && a.degraded == b.degraded &&
         a.queue_position == b.queue_position && a.label == b.label &&
         !net::DeltaEncoder::RowChanged(a, b) &&
         std::memcmp(&a.fraction_done, &b.fraction_done, sizeof(double)) == 0 &&
         std::memcmp(&a.speed, &b.speed, sizeof(double)) == 0 &&
         std::memcmp(&a.arrival_time, &b.arrival_time, sizeof(double)) == 0;
}

// Rows of `next` that are new or changed since `prev`: what every
// subscriber's delta frame for `next` carries. (The registry's
// net.delta_rows_* counters are never incremented by the server.)
double DeltaRows(const service::ProgressSnapshot& prev,
                 const service::ProgressSnapshot& next) {
  double rows = 0.0;
  for (const auto& row : next.queries) {
    const service::QueryProgress* old = prev.Find(row.id);
    if (old == nullptr || net::DeltaEncoder::RowChanged(*old, row)) rows += 1;
  }
  return rows;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- one episode ------------------------------------------------------------

class Episode {
 public:
  Episode(const Args& args, int index, SpanLog* spans, RunTotals* totals)
      : args_(args),
        w_(*args.workload),
        index_(index),
        spans_(spans),
        totals_(totals) {}

  ~Episode() {
    // Readers first, then the server, the session, the service, and the
    // journal the service appends to.
    tcp_.clear();
    rpc_.reset();
    locals_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    session_.reset();
    service_.reset();
    sink_.reset();
    journal_.reset();
    if (!journal_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(journal_dir_, ec);
    }
  }

  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  // Builds the stack and runs the warm-up quanta; returns setup seconds.
  double Setup();
  // Runs the measured quanta; returns measured cycle seconds.
  double Measure();
  void Finish();

 private:
  void GenerateInputs();
  // One closed-loop cycle: Advance, then every subscriber applies the
  // new sequence. Returns the cycle's wall nanoseconds.
  std::int64_t Cycle(bool measured, bool traced, std::uint64_t quantum);
  void PumpTcp(std::size_t i, std::uint64_t target, bool first,
               bool measured, bool traced);
  void PumpLocals(std::uint64_t target, bool measured, bool traced);
  void ScoreEstimates(bool measured);
  void Requests(bool measured, bool traced);
  template <typename Fn>
  void Rpc(const char* name, RpcSamples* samples, bool measured, bool traced,
           Fn&& fn);
  double NextDraw();
  std::vector<QueryId> RunningIds() const;
  std::map<std::string, std::uint64_t> ReadCounters() const;

  const Args& args_;
  const Workload& w_;
  const int index_;
  SpanLog* spans_;
  RunTotals* totals_;

  Inputs inputs_;
  std::size_t next_draw_ = 0;
  std::size_t next_arrival_ = 0;
  std::uint64_t next_request_ = 1;
  int rotation_ = 0;

  std::unique_ptr<storage::Catalog> catalog_;
  std::string journal_dir_;
  std::unique_ptr<recover::DurableLog> journal_;
  std::unique_ptr<TimedSink> sink_;
  std::unique_ptr<service::PiService> service_;
  std::unique_ptr<service::Session> session_;
  std::unique_ptr<net::PiServer> server_;
  std::vector<net::LocalSubscriber> locals_;
  std::unique_ptr<net::Client> rpc_;
  std::vector<std::unique_ptr<net::Client>> tcp_;

  std::vector<QueryId> preload_ids_;  // steady/fanout_wide, submit order
  std::vector<QueryId> unscored_;     // churn: submitted, not yet terminal
  std::vector<double> sorted_costs_;  // steady closed form
  std::vector<double> cost_prefix_;
  std::vector<std::size_t> cost_rank_;  // preload index -> sorted rank
  std::vector<double> mape_sum_;        // steady, per preload index
  std::vector<int> mape_n_;
  std::unique_ptr<obs::EstimateAuditor> auditor_;  // churn
  std::uint64_t submits_ = 0;
  std::map<std::string, std::uint64_t> counters_start_;
  std::uint64_t journal_bytes_start_ = 0;
};

void Episode::GenerateInputs() {
  Rng rng(args_.seed * 0x9e3779b97f4a7c15ULL + 0x51ed27 +
          static_cast<std::uint64_t>(index_) * 0x2545f4914f6cdd1dULL);
  const int quanta = w_.warmup_quanta + w_.episode_quanta;
  for (int i = 0; i < w_.synthetic_queries; ++i) {
    inputs_.costs.push_back(rng.Uniform(w_.cost_lo, w_.cost_hi));
  }
  if (w_.kind == Kind::kChurn) {
    // The paper's TPC-R data (lineitem + part_1..part_max_rank, fixed
    // data seed as in the repository's benches) and the exact c-bar
    // from dry runs; lambda then sets the offered load.
    catalog_ = std::make_unique<storage::Catalog>();
    storage::TpcrGenerator generator(
        {.num_part_keys = 5000, .matches_per_key = 30, .seed = 42});
    workload::ZipfWorkload zipf(
        catalog_.get(), &generator,
        {.max_rank = w_.max_rank, .a = w_.zipf_a, .n_scale = 1});
    Check(zipf.MaterializeTables(), "materialize TPC-R tables");
    storage::BufferManager scratch;
    engine::Planner probe(catalog_.get(), &scratch, {.noise_sigma = 0.0});
    auto avg = zipf.AverageTrueCost(&probe);
    Check(avg.status(), "average cost");
    inputs_.avg_cost = avg.value();
    inputs_.lambda = w_.load * w_.rate / inputs_.avg_cost;
    // Poisson arrivals conditioned on their count per block: each block
    // of kArrivalBlock arrivals spans kArrivalBlock / lambda seconds,
    // its times are uniform within it and its Zipf ranks are a
    // stratified sample (one uniform draw per 1/kArrivalBlock slice of
    // the CDF), shuffled. Every block thus offers the same work in a
    // random order. A heavy-tailed mix drawn freely swings the offered
    // load, and with it the queue and every figure, from seed to seed.
    std::vector<double> cdf;
    double mass = 0.0;
    for (int rank = 1; rank <= w_.max_rank; ++rank) {
      mass += zipf.RankProbability(rank);
      cdf.push_back(mass);
    }
    const SimTime end = quanta * w_.quantum;
    const SimTime block_s = kArrivalBlock / inputs_.lambda;
    for (SimTime block = 0.0; block < end; block += block_s) {
      std::vector<int> ranks;
      for (int i = 0; i < kArrivalBlock; ++i) {
        const double u = (i + rng.NextDouble()) / kArrivalBlock * mass;
        const auto k = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
        ranks.push_back(1 + std::min(static_cast<int>(k), w_.max_rank - 1));
      }
      std::vector<SimTime> times;
      for (int i = 0; i < kArrivalBlock; ++i) {
        times.push_back(block + rng.Uniform(0.0, block_s));
      }
      std::sort(times.begin(), times.end());
      for (int i = kArrivalBlock - 1; i > 0; --i) {
        std::swap(ranks[static_cast<std::size_t>(i)],
                  ranks[static_cast<std::size_t>(rng.UniformInt(0, i))]);
      }
      for (int i = 0; i < kArrivalBlock; ++i) {
        if (times[static_cast<std::size_t>(i)] >= end) break;
        inputs_.arrivals.push_back(
            {times[static_cast<std::size_t>(i)],
             PartPriceSql(ranks[static_cast<std::size_t>(i)])});
      }
    }
  } else {
    catalog_ = std::make_unique<storage::Catalog>();
  }
  const std::size_t draws =
      static_cast<std::size_t>(quanta) * DrawsPerQuantum(w_);
  inputs_.draws.reserve(draws);
  for (std::size_t i = 0; i < draws; ++i) {
    inputs_.draws.push_back(rng.NextDouble());
  }
}

double Episode::NextDraw() {
  if (next_draw_ >= inputs_.draws.size()) Die("ran out of generated draws");
  return inputs_.draws[next_draw_++];
}

double Episode::Setup() {
  const std::int64_t start = NowNs();
  GenerateInputs();

  service::PiServiceOptions options;
  options.start_ticker = false;
  options.rdbms.processing_rate = w_.rate;
  options.rdbms.quantum = w_.quantum;
  options.rdbms.max_concurrent = w_.mpl;
  options.rdbms.cost_model.noise_sigma = w_.cost_noise_sigma;
  options.rdbms.cost_model.noise_seed = args_.seed + 7;
  if (w_.kind == Kind::kChurn) {
    options.future_prior = {.lambda = inputs_.lambda,
                            .avg_cost = inputs_.avg_cost,
                            .avg_weight = 1.0};
  }
  service_ = std::make_unique<service::PiService>(catalog_.get(), options);

  if (w_.journal) {
    journal_dir_ = args_.out_dir + "/journal-" + w_.name + "-" +
                   std::to_string(args_.seed) + "-" + std::to_string(index_);
    std::error_code ec;
    std::filesystem::remove_all(journal_dir_, ec);
    journal_ = std::make_unique<recover::DurableLog>();
    recover::DurableLog::Options log_options;
    log_options.metrics = service_->metrics();  // default sync policy
    Check(journal_->Open(journal_dir_, log_options), "open journal");
    sink_ = std::make_unique<TimedSink>(journal_.get(), spans_);
    service_->SetEventSink(sink_.get());
  }

  net::PiServerOptions server_options;
  server_options.pool_threads = kPoolThreads;
  server_ = std::make_unique<net::PiServer>(service_.get(), server_options);
  Check(server_->Start(), "server start");

  session_ = service_->OpenSession("preload");
  for (std::size_t i = 0; i < inputs_.costs.size(); ++i) {
    auto id = session_->Submit(engine::QuerySpec::Synthetic(inputs_.costs[i]));
    Check(id.status(), "preload submit");
    preload_ids_.push_back(id.value());
  }
  for (int i = 0; i < w_.blocked_queries; ++i) {
    Check(session_->Block(preload_ids_[static_cast<std::size_t>(2 * i)]),
          "block");
  }
  if (w_.kind == Kind::kSteady) {
    // Closed form of §2.2 for equal weights and simultaneous start:
    // after time t every query has done d = C t / n, and query i ends
    // after sum_j min(r_j, r_i) / C with r = c - d. With costs sorted,
    // that sum is prefix(k + 1) + (n - k - 1) c_k - n d for rank k.
    const std::size_t n = inputs_.costs.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return inputs_.costs[a] < inputs_.costs[b];
    });
    sorted_costs_.resize(n);
    cost_prefix_.assign(n + 1, 0.0);
    cost_rank_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      sorted_costs_[k] = inputs_.costs[order[k]];
      cost_prefix_[k + 1] = cost_prefix_[k] + sorted_costs_[k];
      cost_rank_[order[k]] = k;
    }
    mape_sum_.assign(n, 0.0);
    mape_n_.assign(n, 0);
  }
  if (w_.kind == Kind::kChurn) {
    obs::AuditorOptions audit;
    audit.truth_resolution = 2.0 * w_.quantum;  // as the service scores
    audit.retain_completed = std::size_t{1} << 20;
    auditor_ = std::make_unique<obs::EstimateAuditor>(audit);
    for (const auto& arrival : inputs_.arrivals) {
      Check(engine::ParseSql(arrival.sql).status(), "generated SQL");
    }
  }
  service_->PublishNow();

  auto connect = [&]() {
    auto client = net::Client::Connect("127.0.0.1", server_->port());
    Check(client.status(), "connect");
    return std::move(client.value());
  };
  rpc_ = connect();
  for (int i = 0; i < w_.tcp_subscribers; ++i) {
    tcp_.push_back(connect());
    Check(tcp_.back()->Subscribe(), "subscribe");
    Check(tcp_.back()->WaitForSequence(service_->snapshot()->sequence).status(),
          "first frame");
  }
  locals_.reserve(static_cast<std::size_t>(w_.local_subscribers));
  for (int i = 0; i < w_.local_subscribers; ++i) {
    locals_.emplace_back(server_->pool()->Subscribe());
  }

  for (int q = 0; q < w_.warmup_quanta; ++q) {
    Cycle(false, false, 0);
    ScoreEstimates(false);
    Requests(false, false);
  }
  counters_start_ = ReadCounters();
  if (w_.journal) journal_bytes_start_ = DirBytes(journal_dir_);
  return static_cast<double>(NowNs() - start) * 1e-9;
}

std::int64_t Episode::Cycle(bool measured, bool traced,
                            std::uint64_t quantum) {
  const std::int64_t start = NowNs();
  {
    SpanScope cycle(spans_, "bench.quantum", quantum);
    {
      SpanScope advance(spans_, "service.advance", quantum);
      Check(service_->Advance(w_.quantum), "advance");
    }
    const std::uint64_t target = service_->snapshot()->sequence;
    // The first-pumped TCP subscriber gives the publish->view sample;
    // rotate which one goes first.
    const std::size_t n = tcp_.size();
    for (std::size_t k = 0; k < n; ++k) {
      PumpTcp((static_cast<std::size_t>(rotation_) + k) % n, target, k == 0,
              measured, traced);
    }
    ++rotation_;
    PumpLocals(target, measured, traced);
  }
  return NowNs() - start;
}

void Episode::PumpTcp(std::size_t i, std::uint64_t target, bool first,
                      bool measured, bool traced) {
  net::Client* client = tcp_[i].get();
  const net::SnapshotView& view = client->view();
  const std::uint64_t before = view.fulls_applied() + view.deltas_applied();
  while (view.sequence() < target) {
    SpanScope span(spans_, "net.pump_tcp", target);
    const std::int64_t t0 = NowNs();
    auto pumped = client->PumpOne(5.0);
    const std::int64_t t1 = NowNs();
    if (!pumped.ok() || !pumped.value()) {
      totals_->Fail("tcp subscriber " + std::to_string(i) + " at sequence " +
                    std::to_string(view.sequence()) + " did not reach " +
                    std::to_string(target) + ": " +
                    (pumped.ok() ? "timeout" : pumped.status().ToString()));
      ++totals_->gaps;
      return;
    }
    if (traced) {
      totals_->pump_ns += static_cast<std::uint64_t>(t1 - t0);
      ++totals_->pump_frames;
    }
    if (first && measured && !traced && view.sequence() == target) {
      const std::int64_t stamp = server_->fanout()->PublishWallNs(target);
      if (stamp > 0) {
        totals_->publish_to_view_us.Add(static_cast<double>(t1 - stamp) *
                                        1e-3);
      }
    }
  }
  const std::uint64_t applied =
      view.fulls_applied() + view.deltas_applied() - before;
  // Exactly one frame per measured quantum; a fresh subscription may
  // catch up with two during warm-up.
  if (measured) ++totals_->frames_expected;
  if ((measured && applied != 1) || view.sequence() != target) {
    ++totals_->gaps;
    totals_->Fail("tcp subscriber applied " + std::to_string(applied) +
                  " frames for sequence " + std::to_string(target));
  }
}

void Episode::PumpLocals(std::uint64_t target, bool measured, bool traced) {
  if (locals_.empty()) return;
  SpanScope span(spans_, "net.pump_local", target);
  std::vector<int> applied(locals_.size(), 0);
  std::size_t remaining = locals_.size();
  std::vector<char> done(locals_.size(), 0);
  const std::int64_t deadline = NowNs() + 10'000'000'000LL;
  while (remaining > 0) {
    for (std::size_t i = 0; i < locals_.size(); ++i) {
      if (done[i]) continue;
      net::LocalSubscriber& sub = locals_[i];
      const std::int64_t t0 = NowNs();
      const int n = sub.Pump();
      if (n > 0 && traced) {
        totals_->pump_ns += static_cast<std::uint64_t>(NowNs() - t0);
        totals_->pump_frames += static_cast<std::uint64_t>(n);
      }
      applied[i] += n;
      if (sub.view().sequence() >= target || sub.shed()) {
        done[i] = 1;
        --remaining;
      }
    }
    if (remaining > 0 && NowNs() > deadline) {
      totals_->Fail("local subscribers stalled below sequence " +
                    std::to_string(target));
      break;
    }
  }
  for (std::size_t i = 0; i < locals_.size(); ++i) {
    if (measured) ++totals_->frames_expected;
    if (locals_[i].shed()) {
      ++totals_->sheds;
    } else if ((measured && applied[i] != 1) ||
               locals_[i].view().sequence() != target) {
      ++totals_->gaps;
      totals_->Fail("local subscriber " + std::to_string(i) + " applied " +
                    std::to_string(applied[i]) + " frames for sequence " +
                    std::to_string(target));
    }
  }
}

std::vector<QueryId> Episode::RunningIds() const {
  std::vector<QueryId> ids;
  for (const auto& row : service_->snapshot()->queries) {
    if (row.state == sched::QueryState::kRunning) ids.push_back(row.id);
  }
  return ids;
}

void Episode::ScoreEstimates(bool measured) {
  const net::SnapshotView& view = tcp_.front()->view();
  if (w_.kind == Kind::kSteady) {
    const double n = static_cast<double>(sorted_costs_.size());
    const double done = w_.rate * view.sim_time() / n;
    for (std::size_t i = 0; i < preload_ids_.size(); ++i) {
      const service::QueryProgress* row = view.Find(preload_ids_[i]);
      if (row == nullptr) {
        totals_->Fail("steady row missing from the view");
        continue;
      }
      const std::size_t k = cost_rank_[i];
      const double truth = (cost_prefix_[k + 1] +
                            (n - double(k) - 1.0) * sorted_costs_[k] -
                            n * done) /
                           w_.rate;
      const double error = std::fabs(row->eta_multi - truth);
      if (!(error <= 2.0 * w_.quantum)) {
        ++totals_->eta_violations;
        if (totals_->eta_violations <= 3) {
          totals_->Fail("steady eta_multi " + std::to_string(row->eta_multi) +
                        " vs closed form " + std::to_string(truth));
        } else {
          totals_->correct = false;
        }
      }
      if (std::isfinite(error)) {
        totals_->max_eta_error_s = std::max(totals_->max_eta_error_s, error);
      }
      if (measured && truth > 0.0) {
        mape_sum_[i] += error / truth;
        ++mape_n_[i];
      }
    }
  } else if (w_.kind == Kind::kChurn) {
    std::size_t keep = 0;
    for (const QueryId id : unscored_) {
      const service::QueryProgress* row = view.Find(id);
      if (row == nullptr) {
        unscored_[keep++] = id;  // submitted after this snapshot
        continue;
      }
      obs::EstimateObservation observation;
      observation.id = id;
      observation.time = view.sim_time();
      observation.eta_single = row->eta_single;
      observation.eta_multi = row->eta_multi;
      observation.priority = row->priority;
      observation.arrival_time = row->arrival_time;
      observation.terminal = row->terminal();
      observation.finished = row->state == sched::QueryState::kFinished;
      observation.finish_time = row->finish_time;
      auditor_->Observe(observation);
      if (!row->terminal()) unscored_[keep++] = id;
    }
    unscored_.resize(keep);
  }
}

template <typename Fn>
void Episode::Rpc(const char* name, RpcSamples* samples, bool measured,
                  bool traced, Fn&& fn) {
  const std::uint64_t request = next_request_++;
  SpanScope span(spans_, name, request);
  const std::int64_t cpu0 = ProcessCpuNs();
  const std::int64_t t0 = NowNs();
  const bool ok = fn();
  const std::int64_t t1 = NowNs();
  const std::int64_t cpu1 = ProcessCpuNs();
  if (measured) {
    ++totals_->rpcs;
    if (!ok) ++totals_->rpc_failures;
    if (ok && !traced) {
      samples->wall_us.Add(static_cast<double>(t1 - t0) * 1e-3);
      samples->cpu_us.Add(static_cast<double>(cpu1 - cpu0) * 1e-3);
    }
  }
}

void Episode::Requests(bool measured, bool traced) {
  if (w_.kind == Kind::kChurn) {
    const SimTime now = service_->snapshot()->sim_time;
    while (next_arrival_ < inputs_.arrivals.size() &&
           inputs_.arrivals[next_arrival_].time <= now + 1e-9) {
      const std::string& sql = inputs_.arrivals[next_arrival_++].sql;
      Rpc("rpc.submit", &totals_->submit_rpc, measured, traced, [&] {
        auto id = rpc_->SubmitSql(sql);
        if (!id.ok()) return false;
        ++submits_;
        unscored_.push_back(id.value());
        return true;
      });
    }
  }
  const std::vector<QueryId> running = RunningIds();
  auto pick = [&](double u) {
    return running[std::min(running.size() - 1,
                            static_cast<std::size_t>(
                                u * static_cast<double>(running.size())))];
  };
  for (int i = 0; i < w_.progress_per_quantum; ++i) {
    const double u = NextDraw();
    if (running.empty()) continue;
    const QueryId id = pick(u);
    Rpc("rpc.progress", &totals_->progress_rpc, measured, traced, [&] {
      auto reply = rpc_->Progress(id);
      return reply.ok() && reply.value().row.id == id;
    });
  }
  for (int i = 0; i < w_.whatif_per_quantum; ++i) {
    net::WhatIfRequest scenario;
    const double u = NextDraw();
    std::vector<double> others;
    for (int b = 0; b < w_.whatif_blocked; ++b) others.push_back(NextDraw());
    if (running.empty()) continue;
    scenario.target = pick(u);
    for (const double v : others) {
      const QueryId id = pick(v);
      if (id != scenario.target) scenario.blocked.push_back(id);
    }
    Rpc("rpc.whatif", &totals_->whatif_rpc, measured, traced, [&] {
      auto eta = rpc_->WhatIf(scenario);
      return eta.ok() && eta.value() >= 0.0;
    });
  }
}

std::map<std::string, std::uint64_t> Episode::ReadCounters() const {
  std::map<std::string, std::uint64_t> values;
  for (const char* name : kCounters) {
    values[name] = service_->metrics()->counter(name)->value();
  }
  return values;
}

double Episode::Measure() {
  obs::Profiler* profiler = obs::GlobalProfiler();
  profiler->Reset();
  double measured_s = 0.0;
  const std::uint64_t append_ns0 = sink_ ? sink_->ns() : 0;
  const std::uint64_t appends0 = sink_ ? sink_->count() : 0;
  service::SnapshotPtr previous = service_->snapshot();
  for (int q = 0; q < w_.episode_quanta; ++q) {
    const bool traced = args_.trace && (q / kTraceBlock) % 2 == 1;
    profiler->set_enabled(traced);
    spans_->set_enabled(traced);
    const std::uint64_t quantum = service_->snapshot()->sequence + 1;
    const std::int64_t cpu0 = ProcessCpuNs();
    const std::int64_t cycle_ns = Cycle(true, traced, quantum);
    const std::int64_t cycle_cpu_ns = ProcessCpuNs() - cpu0;
    const service::SnapshotPtr snapshot = service_->snapshot();
    const double live = snapshot->num_running + snapshot->num_queued +
                        snapshot->num_blocked;
    const double rows = static_cast<double>(snapshot->queries.size());
    ++totals_->quanta;
    totals_->snapshot_rows += rows;
    totals_->all_live_rows += live;
    totals_->queued_rows += snapshot->num_queued;
    if (live > 0) totals_->last_rows_per_live = rows / live;
    totals_->delta_rows += DeltaRows(*previous, *snapshot);
    previous = snapshot;
    measured_s += static_cast<double>(cycle_ns) * 1e-9;
    if (traced) {
      totals_->traced_quantum_ms.Add(static_cast<double>(cycle_ns) * 1e-6);
      totals_->traced_live_rows += live;
      totals_->traced_cycle_ns += static_cast<double>(cycle_ns);
      ++totals_->traced_quanta;
    } else {
      totals_->quantum_ms.Add(static_cast<double>(cycle_ns) * 1e-6);
      totals_->quantum_cpu_ms.Add(static_cast<double>(cycle_cpu_ns) * 1e-6);
      totals_->live_rows += live;
      totals_->cycle_s += static_cast<double>(cycle_ns) * 1e-9;
    }
    // Scoring is the benchmark's own work: it runs between cycles with
    // tracing off so it never lands in a measured span.
    profiler->set_enabled(false);
    spans_->set_enabled(false);
    ScoreEstimates(true);
    // The last quantum issues no requests, so the final snapshot
    // accounts for every submit.
    if (q + 1 == w_.episode_quanta) break;
    profiler->set_enabled(traced);
    spans_->set_enabled(traced);
    Requests(true, traced);
  }
  profiler->set_enabled(false);
  spans_->set_enabled(false);
  for (const auto& site : profiler->Snapshot()) {
    SiteTotals& totals = totals_->sites[site.name];
    totals.count += site.count;
    totals.total_ns += site.total_ns;
    totals.self_ns += site.self_ns;
  }
  if (sink_) {
    totals_->append_ns += sink_->ns() - append_ns0;
    totals_->appends += sink_->count() - appends0;
  }
  return measured_s;
}

void Episode::Finish() {
  // Every TCP view equals the service's final snapshot, row for row.
  const service::SnapshotPtr final_snapshot = service_->snapshot();
  for (std::size_t i = 0; i < tcp_.size(); ++i) {
    const net::SnapshotView& view = tcp_[i]->view();
    const std::vector<service::QueryProgress> rows = view.Rows();
    bool same = view.sequence() == final_snapshot->sequence &&
                rows.size() == final_snapshot->queries.size();
    for (std::size_t r = 0; same && r < rows.size(); ++r) {
      same = SameRow(rows[r], final_snapshot->queries[r]);
    }
    if (!same) {
      totals_->Fail("tcp subscriber " + std::to_string(i) +
                    " view differs from the final snapshot");
    }
  }
  if (w_.kind == Kind::kChurn) {
    // submits = finished + aborted + live.
    std::uint64_t finished = 0, aborted = 0, live = 0;
    for (const auto& row : final_snapshot->queries) {
      if (row.state == sched::QueryState::kFinished) {
        ++finished;
      } else if (row.state == sched::QueryState::kAborted) {
        ++aborted;
      } else {
        ++live;
      }
    }
    if (submits_ != finished + aborted + live) {
      totals_->Fail("churn: " + std::to_string(submits_) + " submits but " +
                    std::to_string(finished) + " finished + " +
                    std::to_string(aborted) + " aborted + " +
                    std::to_string(live) + " live");
    }
    totals_->submits += submits_;
    for (const auto& report : auditor_->Completed()) {
      if (report.finished && report.multi.samples > 0) {
        totals_->mape_sum += report.multi.mape;
        ++totals_->mape_queries;
      }
    }
  } else if (w_.kind == Kind::kSteady) {
    for (std::size_t i = 0; i < mape_sum_.size(); ++i) {
      if (mape_n_[i] == 0) continue;
      totals_->mape_sum += mape_sum_[i] / mape_n_[i];
      ++totals_->mape_queries;
    }
  }
  const auto counters = ReadCounters();
  for (const auto& [name, value] : counters) {
    totals_->counters[name] += value - counters_start_[name];
  }
  if (w_.journal) {
    totals_->journal_bytes += DirBytes(journal_dir_) - journal_bytes_start_;
  }
  for (const auto& local : locals_) {
    if (local.shed()) ++totals_->sheds;
  }
  if (index_ == 0) totals_->peak_rss_mb = PeakRssMb();
  auto spans = spans_->Take();
  totals_->spans.insert(totals_->spans.end(), spans.begin(), spans.end());
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // samples or ratio base, for the human report
};


double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddTiming(std::vector<Metric>* out, const std::string& name,
               const Samples& samples, const std::string& unit) {
  if (samples.size() == 0) return;
  const std::string n = std::to_string(samples.size()) + " samples";
  out->push_back({name + ".p50", samples.Quantile(0.50), unit, n});
  // p99 only where at least ten samples lie beyond it.
  if (samples.size() >= 1000) {
    out->push_back({name + ".p99", samples.Quantile(0.99), unit, n});
  }
}

std::vector<Metric> EndToEnd(const Workload& w, const RunTotals& t) {
  std::vector<Metric> m;
  m.push_back({"setup_s", t.setup_s.Quantile(0.5), "s",
               "median of " + std::to_string(t.setup_s.size()) +
                   " episode set-ups"});
  m.push_back({"live_query_quanta_per_s", Ratio(t.live_rows, t.cycle_s),
               "1/s",
               "live rows summed over " + std::to_string(t.quantum_ms.size()) +
                   " quanta / seconds inside those cycles"});
  AddTiming(&m, "quantum_ms", t.quantum_ms, "ms");
  AddTiming(&m, "quantum_cpu_ms", t.quantum_cpu_ms, "ms");
  AddTiming(&m, "publish_to_view_us", t.publish_to_view_us, "us");
  AddTiming(&m, "progress_rpc_us", t.progress_rpc.wall_us, "us");
  AddTiming(&m, "progress_rpc_cpu_us", t.progress_rpc.cpu_us, "us");
  AddTiming(&m, "submit_rpc_us", t.submit_rpc.wall_us, "us");
  AddTiming(&m, "submit_rpc_cpu_us", t.submit_rpc.cpu_us, "us");
  AddTiming(&m, "whatif_rpc_us", t.whatif_rpc.wall_us, "us");
  AddTiming(&m, "whatif_rpc_cpu_us", t.whatif_rpc.cpu_us, "us");
  if (w.kind != Kind::kFanoutWide) {
    m.push_back({"eta_mape.multi", Ratio(t.mape_sum, double(t.mape_queries)),
                 "ratio",
                 std::to_string(t.mape_queries) + " scored queries"});
  }
  m.push_back({"peak_rss_mb", t.peak_rss_mb, "MiB",
               "getrusage ru_maxrss at the end of the first episode"});
  const double attempted = double(t.rpcs + t.frames_expected);
  m.push_back({"op_error_rate",
               Ratio(double(t.rpc_failures + t.sheds + t.gaps), attempted),
               "ratio",
               "(failed RPCs + sheds + gaps) / (" + std::to_string(t.rpcs) +
                   " RPCs + " + std::to_string(t.frames_expected) +
                   " frames)"});
  return m;
}

std::vector<Metric> PerLayer(const RunTotals& t) {
  auto site = [&](const char* name) {
    auto it = t.sites.find(name);
    return it == t.sites.end() ? SiteTotals{} : it->second;
  };
  auto counter = [&](const char* name) {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double rows = t.traced_live_rows;
  const double traced_q = static_cast<double>(t.traced_quanta);
  const double quanta = static_cast<double>(t.quanta);
  const std::string per_row = "self ns over " +
                              std::to_string(std::llround(rows)) +
                              " live row-quanta (traced)";
  const std::string per_q = "over " + std::to_string(t.quanta) + " quanta";
  std::vector<Metric> m;
  m.push_back({"sched.step.ns_per_row", Ratio(site("sched.step").self_ns, rows),
               "ns", per_row});
  m.push_back({"sched.queued_rows.mean", Ratio(t.queued_rows, quanta),
               "rows", "num_queued per snapshot, " + per_q});
  m.push_back({"pi.after_step.ns_per_row",
               Ratio(site("pi.after_step").self_ns, rows), "ns", per_row});
  m.push_back({"pi.batch_regens_per_quantum",
               Ratio(counter("pi.batch_kernel_regens"), quanta), "count",
               "pi.batch_kernel_regens " + per_q + " (hits " +
                   std::to_string(std::llround(
                       counter("pi.batch_kernel_hits"))) +
                   ")"});
  m.push_back({"pi.batch_estimate.ns_per_row",
               Ratio(site("pi.batch_estimate").total_ns, rows), "ns",
               "total ns of pi.batch_estimate over live row-quanta (traced)"});
  const double fast = counter("pi.incremental_fast_path");
  const double fallback = counter("pi.incremental_fallback");
  m.push_back({"pi.fast_path_share", Ratio(fast, fast + fallback), "ratio",
               std::to_string(std::llround(fast)) + " fast / " +
                   std::to_string(std::llround(fast + fallback)) +
                   " fast + fallback"});
  const double hit = counter("pi.forecast_cache_hit");
  const double miss = counter("pi.forecast_cache_miss");
  m.push_back({"pi.forecast_cache_hit_ratio", Ratio(hit, hit + miss), "ratio",
               std::to_string(std::llround(hit)) + " hits / " +
                   std::to_string(std::llround(hit + miss)) + " lookups"});
  m.push_back({"pi.degraded_per_quantum",
               Ratio(counter("pi.degraded_estimates"), quanta), "count",
               "pi.degraded_estimates " + per_q});
  m.push_back({"service.build_snapshot.ns_per_row",
               Ratio(site("service.build_snapshot").self_ns, rows), "ns",
               per_row});
  m.push_back({"service.snapshot_rows_per_live_row",
               Ratio(t.snapshot_rows, t.all_live_rows), "ratio",
               "snapshot rows / live rows summed " + per_q +
                   "; at the last quantum " +
                   std::to_string(t.last_rows_per_live)});
  const SiteTotals step = site("service.step_quantum");
  m.push_back({"service.step_quantum.self_ns",
               Ratio(step.self_ns, double(step.count)), "ns",
               "self ns per call, " + std::to_string(step.count) + " calls"});
  const SiteTotals hook = site("service.publish_hook");
  m.push_back({"service.publish_hook.ns",
               Ratio(hook.total_ns, double(hook.count)), "ns",
               "ns per call, " + std::to_string(hook.count) + " calls"});
  m.push_back({"net.push_snapshots.ns_per_quantum",
               Ratio(site("net.push_snapshots").total_ns, traced_q), "ns",
               "total ns over " + std::to_string(t.traced_quanta) +
                   " traced quanta"});
  const SiteTotals write = site("net.socket_write");
  m.push_back({"net.socket_write.ns_per_frame",
               Ratio(write.total_ns, double(write.count)), "ns",
               "ns per flush, " + std::to_string(write.count) + " flushes"});
  const SiteTotals encode = site("net.delta_encode");
  m.push_back({"net.delta_encode.ns_per_frame",
               Ratio(encode.total_ns, double(encode.count)), "ns",
               "ns per encoded frame, " + std::to_string(encode.count) +
                   " frames"});
  m.push_back({"net.delta_encode.quantum_share",
               Ratio(encode.total_ns, t.traced_cycle_ns), "ratio",
               "encode ns (all threads) / traced cycle ns"});
  m.push_back({"net.subscriber_pump.ns_per_frame",
               Ratio(double(t.pump_ns), double(t.pump_frames)), "ns",
               "LocalSubscriber::Pump + Client::PumpOne (incl. its wait) ns "
               "over " + std::to_string(t.pump_frames) + " frames"});
  const double frames = counter("net.frames_sent");
  m.push_back({"net.bytes_per_frame", Ratio(counter("net.bytes_sent"), frames),
               "bytes",
               "net.bytes_sent / " + std::to_string(std::llround(frames)) +
                   " net.frames_sent (pushes and replies)"});
  m.push_back({"net.delta_row_share", Ratio(t.delta_rows, t.snapshot_rows),
               "ratio",
               "new or changed rows / snapshot rows " + per_q +
                   " (from consecutive snapshots)"});
  const double fulls = counter("net.full_frames");
  m.push_back({"net.full_frame_share",
               Ratio(fulls, fulls + counter("net.delta_frames")), "ratio",
               "full frames / (full + delta frames)"});
  m.push_back({"net.slow_consumers_shed", counter("net.slow_consumers_shed"),
               "count", "net.slow_consumers_shed " + per_q});
  m.push_back({"recover.append.ns",
               Ratio(double(t.append_ns), double(t.appends)), "ns",
               "ns per DurableLog::Append, " + std::to_string(t.appends) +
                   " appends (traced)"});
  m.push_back({"recover.records_per_quantum",
               Ratio(counter("recover.journal_records"), quanta), "count",
               "recover.journal_records " + per_q});
  m.push_back({"recover.bytes_per_quantum",
               Ratio(double(t.journal_bytes), quanta), "bytes",
               "journal directory growth " + per_q});
  const double untraced = t.quantum_ms.Quantile(0.5);
  m.push_back({"obs.trace_overhead",
               untraced > 0.0 ? t.traced_quantum_ms.Quantile(0.5) / untraced - 1.0
                              : 0.0,
               "ratio",
               "traced quantum_ms.p50 (" +
                   std::to_string(t.traced_quantum_ms.size()) +
                   ") / untraced (" + std::to_string(t.quantum_ms.size()) +
                   ") - 1"});
  return m;
}

// Self time per layer and quantum, from the spans and profiler sites of
// the traced blocks.
void PrintLayerTable(const RunTotals& t) {
  struct Row {
    const char* layer;
    std::string source;
    const char* thread;
    double ns;
  };
  std::vector<Row> rows;
  const double q = static_cast<double>(t.traced_quanta);
  if (q == 0) return;
  std::map<std::uint32_t, std::int64_t> child_ns;
  for (const auto& s : t.spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::uint32_t, const char*> name_of;
  for (const auto& s : t.spans) name_of[s.id] = s.name;
  std::map<std::string, double> span_self;
  std::map<std::string, double> span_total;
  // Journal appends made inside Advance are part of the profiled
  // service.step_quantum; they are moved from its self time to recover.
  double append_in_advance = 0.0;
  for (const auto& s : t.spans) {
    const std::int64_t total = s.end_ns - s.start_ns;
    std::int64_t self = total;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    span_self[s.name] += static_cast<double>(std::max<std::int64_t>(self, 0));
    span_total[s.name] += static_cast<double>(total);
    auto parent = name_of.find(s.parent);
    if (std::strcmp(s.name, "recover.append") == 0 &&
        parent != name_of.end() &&
        std::strcmp(parent->second, "service.advance") == 0) {
      append_in_advance += static_cast<double>(total);
    }
  }
  auto site_ns = [&](const char* name, bool self) {
    auto it = t.sites.find(name);
    if (it == t.sites.end()) return 0.0;
    return static_cast<double>(self ? it->second.self_ns
                                    : it->second.total_ns);
  };
  // Inside the service.advance span the profiled service.step_quantum
  // does the work.
  rows.push_back({"service", "span service.advance (outside step)", "driver",
                  span_total["service.advance"] -
                      site_ns("service.step_quantum", false)});
  rows.push_back({"service", "site service.step_quantum (w/o append)",
                  "driver",
                  site_ns("service.step_quantum", true) - append_in_advance});
  for (const char* name : {"service.build_snapshot", "service.publish_hook"}) {
    rows.push_back({"service", std::string("site ") + name, "driver",
                    site_ns(name, true)});
  }
  rows.push_back({"sched", "site sched.step", "driver",
                  site_ns("sched.step", true)});
  for (const char* name :
       {"pi.after_step", "pi.batch_regen", "pi.batch_estimate"}) {
    rows.push_back({"pi", std::string("site ") + name, "driver",
                    site_ns(name, true)});
  }
  rows.push_back({"net", "site net.push_snapshots", "loop",
                  site_ns("net.push_snapshots", true)});
  rows.push_back({"net", "site net.socket_write", "loop",
                  site_ns("net.socket_write", true)});
  rows.push_back({"net", "site net.delta_encode", "loop+pool",
                  site_ns("net.delta_encode", true)});
  rows.push_back({"net", "span net.pump_tcp (incl. wait)", "driver",
                  span_self["net.pump_tcp"]});
  rows.push_back({"net", "span net.pump_local", "driver",
                  span_self["net.pump_local"]});
  rows.push_back({"net", "span rpc.progress", "driver",
                  span_self["rpc.progress"]});
  rows.push_back({"net", "span rpc.whatif", "driver", span_self["rpc.whatif"]});
  rows.push_back({"net", "span rpc.submit", "driver", span_self["rpc.submit"]});
  rows.push_back({"recover", "span recover.append", "driver+loop",
                  span_self["recover.append"]});
  rows.push_back({"bench", "span bench.quantum (self)", "driver",
                  span_self["bench.quantum"]});
  const double cycle = t.traced_cycle_ns / q;
  std::printf("per-layer self time per traced quantum (%" PRIu64
              " quanta, cycle %.0f ns):\n",
              t.traced_quanta, cycle);
  std::printf("  %-8s %-40s %-12s %14s %9s\n", "layer", "source", "thread",
              "ns/quantum", "of cycle");
  for (const auto& row : rows) {
    std::printf("  %-8s %-40s %-12s %14.0f %8.1f%%\n", row.layer,
                row.source.c_str(), row.thread, row.ns / q,
                100.0 * row.ns / q / cycle);
  }
}

void WriteSpans(const Args& args, const RunTotals& t) {
  const std::string path = args.out_dir + "/trace-" + args.workload->name +
                           "-seed" + std::to_string(args.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const auto& s = t.spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"key\":%" PRIu64 "}}%s\n",
                 s.name, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 s.parent, s.key, i + 1 < t.spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("spans: %zu written to %s\n", t.spans.size(), path.c_str());
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-36s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  std::printf("perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d build=%s nproc=%ld\n",
              w.name, args.seed, args.seconds, args.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("threads: driver 1 + server loop 1 + pool %d; tcp "
              "connections %d (%d subscribers + 1 rpc); in-process "
              "subscribers %d\n",
              kPoolThreads, w.tcp_subscribers + 1, w.tcp_subscribers,
              w.local_subscribers);
  std::printf("why: %s\n", w.why);

  SpanLog spans;
  RunTotals totals;
  double measured_s = 0.0;
  // At least three episodes so setup_s is a median of three set-ups.
  const int episodes = std::max(
      3, static_cast<int>(std::lround(args.seconds / w.nominal_episode_s)));
  while (totals.episodes < episodes) {
    Episode episode(args, totals.episodes, &spans, &totals);
    const double setup_s = episode.Setup();
    totals.setup_s.Add(setup_s);
    const double episode_s = episode.Measure();
    measured_s += episode_s;
    episode.Finish();
    std::printf("episode %d: setup %.3f s, %d quanta in %.3f s\n",
                totals.episodes, setup_s, w.episode_quanta, episode_s);
    ++totals.episodes;
  }
  std::printf("peak rss: %.1f MiB after the first episode, %.1f MiB at the "
              "end\n",
              totals.peak_rss_mb, PeakRssMb());
  std::printf("episodes=%d quanta/episode=%d measured_quanta=%" PRIu64
              " measured_s=%.3f submits=%" PRIu64 "\n",
              totals.episodes, w.episode_quanta, totals.quanta, measured_s,
              totals.submits);
  if (w.journal) {
    std::printf("journal: DurableLog default sync policy (fsync on "
                "checkpoint and drain only; no checkpoint is cut)\n");
  }
  if (w.kind == Kind::kSteady) {
    std::printf("steady closed form: max |eta_multi - truth| = %.3g s "
                "(limit %.3g s), %" PRIu64 " violations\n",
                totals.max_eta_error_s, 2.0 * w.quantum,
                totals.eta_violations);
  }
  for (const auto& failure : totals.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  const std::vector<Metric> e2e = EndToEnd(w, totals);
  // The gated subset: defined on every workload, never zero, and
  // steady from run to run on a shared host (perfbench/WORKLOADS.md).
  static const char* const kGated[] = {
      "setup_s",
      "quantum_cpu_ms.p50",
      "peak_rss_mb",
  };
  std::vector<Metric> reported;
  if (args.trace) {
    PrintMetrics("per-layer metrics (traced run)", PerLayer(totals));
    PrintLayerTable(totals);
    WriteSpans(args, totals);
    reported = PerLayer(totals);
  } else {
    PrintMetrics("end-to-end metrics", e2e);
    for (const char* name : kGated) {
      bool found = false;
      for (const auto& m : e2e) {
        if (m.name == name) {
          reported.push_back(m);
          found = true;
        }
      }
      if (!found) {
        totals.Fail(std::string("metric ") + name + " has no samples");
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              totals.correct ? "true" : "false",
              totals.rpcs + totals.frames_expected,
              totals.rpc_failures + totals.sheds + totals.gaps);
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const double v = std::isfinite(reported[i].value) ? reported[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name.c_str(), v,
                reported[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
