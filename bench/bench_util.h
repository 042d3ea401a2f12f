// Shared helpers for the benches.
//
// Every bench is a standalone binary that prints (a) the paper's
// expected shape for the experiment and (b) a SeriesTable with the
// regenerated numbers. Environment variables scale effort:
//   MQPI_RUNS     - repetitions for averaged experiments (default 100)
//   MQPI_SEED     - base RNG seed (default 20060326, EDBT 2006 vintage)
// The performance benches also record their results with JsonReport.
#pragma once

#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "obs/tracer.h"
#include "sched/rdbms.h"
#include "sim/report.h"
#include "storage/tpcr_gen.h"
#include "workload/zipf_workload.h"

namespace mqpi::bench {

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

inline std::uint64_t BaseSeed() {
  return static_cast<std::uint64_t>(EnvInt("MQPI_SEED", 20060326));
}

inline int NumRuns(int fallback = 100) {
  return EnvInt("MQPI_RUNS", fallback);
}

/// Monotonic wall clock in nanoseconds, for timing bench phases.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One scalar JSON value, rendered on construction: strings escaped,
/// integers exactly, doubles to six significant digits (whole from 1e6
/// to 1e15, so ns timings never take exponent form; non-finite: null).
struct JsonValue {
  JsonValue(std::string_view s) : text("\"") {
    obs::AppendJsonEscaped(&text, std::string(s).c_str());
    text += '"';
  }
  JsonValue(const std::string& s) : JsonValue(std::string_view(s)) {}
  JsonValue(const char* s) : JsonValue(std::string_view(s)) {}
  JsonValue(bool b) : text(b ? "true" : "false") {}
  JsonValue(double d) : text("null") {
    if (!std::isfinite(d)) return;
    char buf[32];
    const bool whole = std::fabs(d) >= 1e6 && std::fabs(d) < 1e15;
    std::snprintf(buf, sizeof(buf), whole ? "%.0f" : "%.6g", d);
    text = buf;
  }
  template <std::integral T>
  JsonValue(T i) : text(std::to_string(i)) {}

  std::string text;
};

struct JsonField {
  std::string key;
  JsonValue value;
};
/// A JSON object whose keys render in the order given.
using JsonObject = std::vector<JsonField>;

/// A bench's results file, BENCH_<bench>.json, in one envelope:
///   {"bench": <name>, "nproc": <hardware threads>,
///    "config": {<setting>: <value>, ...}, "rows": [{<column>: ...}, ...]}
/// `config` holds the settings the bench ran with, each row one case.
class JsonReport {
 public:
  explicit JsonReport(std::string bench, JsonObject config = {})
      : bench_(std::move(bench)), config_(std::move(config)) {}

  void AddRow(JsonObject row) { rows_.push_back(std::move(row)); }

  std::string Render() const {
    std::string out = "{\n  \"bench\": " + JsonValue(bench_).text +
                      ",\n  \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ",\n  \"config\": " + RenderObject(config_) +
                      ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i == 0 ? "\n    " : ",\n    ") + RenderObject(rows_[i]);
    }
    return out + (rows_.empty() ? "]\n}\n" : "\n  ]\n}\n");
  }

  /// `BENCH_<bench>.json`, the file Save() writes.
  std::string FileName() const { return "BENCH_" + bench_ + ".json"; }

  /// Writes Render() to `path`; any failure to open, write or close
  /// the file is an error.
  Status Write(const std::string& path) const {
    std::ofstream out(path);
    out << Render();
    out.close();
    if (!out) return Status::Internal("cannot write " + path);
    return Status::OK();
  }

  /// Writes FileName() in the working directory. On failure prints why
  /// and returns false, so the bench can exit non-zero.
  bool Save() const {
    const Status status = Write(FileName());
    if (!status.ok()) std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return status.ok();
  }

 private:
  static std::string RenderObject(const JsonObject& object) {
    std::string out = "{";
    for (const JsonField& field : object) {
      if (out.size() > 1) out += ", ";
      out += JsonValue(field.key).text + ": " + field.value.text;
    }
    return out + "}";
  }

  std::string bench_;
  JsonObject config_;
  std::vector<JsonObject> rows_;
};

/// Owns the generated data plus the workload view over it. Data is
/// built once per process and shared read-only across runs.
struct WorkloadFixture {
  storage::Catalog catalog;
  std::unique_ptr<storage::TpcrGenerator> generator;
  std::unique_ptr<workload::ZipfWorkload> workload;
};

inline std::unique_ptr<WorkloadFixture> MakeWorkload(
    workload::ZipfWorkloadOptions options,
    storage::TpcrConfig tpcr = {.num_part_keys = 5000,
                                .matches_per_key = 30,
                                .seed = 42}) {
  auto fixture = std::make_unique<WorkloadFixture>();
  fixture->generator = std::make_unique<storage::TpcrGenerator>(tpcr);
  fixture->workload = std::make_unique<workload::ZipfWorkload>(
      &fixture->catalog, fixture->generator.get(), options);
  const Status status = fixture->workload->MaterializeTables();
  if (!status.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return fixture;
}

/// Instantaneous single-query PI estimate (t = c / s with the speed
/// observed over the last scheduler quantum), used where no smoothed
/// trace is required.
inline SimTime InstantSingleEstimate(const sched::QueryInfo& info) {
  if (info.last_step_duration <= 0.0 || info.consumed_last_step <= 0.0) {
    return kInfiniteTime;
  }
  const double speed = info.consumed_last_step / info.last_step_duration;
  return info.estimated_remaining_cost / speed;
}

/// Prints the table as text, and additionally as CSV when MQPI_CSV=1
/// (for plotting pipelines).
inline void PrintTable(const sim::SeriesTable& table) {
  table.PrintText();
  if (EnvInt("MQPI_CSV", 0) != 0) {
    std::printf("\n");
    table.PrintCsv();
  }
}

inline void Banner(const char* figure, const char* expectation) {
  std::printf("\n################################################------\n");
  std::printf("# %s\n", figure);
  std::printf("# Paper expectation: %s\n", expectation);
  std::printf("########################################################\n\n");
}

}  // namespace mqpi::bench
