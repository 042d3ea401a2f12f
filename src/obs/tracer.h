// Tracer: the always-available runtime event recorder — a bounded,
// lock-striped ring buffer of spans and instant events that the whole
// stack (Rdbms::Step quanta, PiManager recomputations, snapshot
// publication, WLM decisions) writes into when tracing is enabled.
//
// Design goals, in order:
//   1. Tracing-off overhead must be negligible: every entry point is a
//      single relaxed atomic load (`enabled()`); call sites cache the
//      tracer pointer, and `TraceSpan` degrades to a no-op object.
//   2. Bounded memory: events land in per-stripe fixed-capacity rings
//      (stripe chosen by thread id, so unrelated threads rarely share a
//      lock). When a ring is full the *oldest* events are overwritten —
//      a trace always holds the most recent window — and the overwrite
//      count is reported as `dropped()`.
//   3. Standard export: `ExportJsonl` (one JSON object per line, easy
//      to grep) and `ExportChromeTrace` (the Chrome `trace_event` JSON
//      array format, openable in chrome://tracing or Perfetto).
//
// Strings passed as `category` / `name` / arg keys must be string
// literals (static storage, JSON-safe): events store the pointers only,
// which is what keeps recording allocation-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace mqpi::obs {

/// Chrome trace_event phases this tracer emits.
enum class TracePhase : char {
  kComplete = 'X',  // span with a duration
  kInstant = 'i',   // point event
  kCounter = 'C',   // sampled numeric series
};

/// One recorded event. Plain value type, fixed size, no allocation.
struct TraceEvent {
  const char* category = "";
  const char* name = "";
  TracePhase phase = TracePhase::kInstant;
  /// Wall-clock nanoseconds since the tracer's construction.
  std::uint64_t ts_ns = 0;
  /// Span duration (complete events only).
  std::uint64_t dur_ns = 0;
  /// Small dense id of the recording thread.
  std::uint32_t tid = 0;
  /// Global record sequence — total order across stripes.
  std::uint64_t seq = 0;
  /// Subject query, if any (rendered as args.query).
  QueryId query = kInvalidQueryId;
  /// Up to two numeric arguments with literal keys.
  const char* arg1_key = nullptr;
  double arg1 = 0.0;
  const char* arg2_key = nullptr;
  double arg2 = 0.0;
};

/// Renders one event as a single Chrome-trace-style JSON object
/// (`{"ts":..,"ph":"X","cat":..,"name":..,...}`, timestamps in
/// microseconds). String fields are JSON-escaped. Shared by the
/// Tracer's exports and the FlightRecorder's dumps.
std::string RenderTraceEventJson(const TraceEvent& event);

/// Appends `s` JSON-escaped (no surrounding quotes). Categories and
/// names are *supposed* to be JSON-safe literals, but a stray quote,
/// backslash, or control character must not corrupt the whole export.
void AppendJsonEscaped(std::string* out, const char* s);

struct TracerOptions {
  /// Total event capacity, split across the stripes. Rings are
  /// allocated lazily on each stripe's first event.
  std::size_t capacity = 16384;
  /// Number of independently locked rings.
  std::size_t stripes = 8;
  /// Start enabled? Default off: zero cost until someone opts in.
  bool enabled = false;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  /// The hot-path gate: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records `event`, stamping timestamp, thread id, and sequence
  /// number. No-op while disabled.
  void Record(TraceEvent event);

  /// Convenience recorders (all no-ops while disabled).
  void Instant(const char* category, const char* name,
               QueryId query = kInvalidQueryId,
               const char* arg_key = nullptr, double arg = 0.0);
  void CounterValue(const char* category, const char* name, double value);

  /// All retained events, merged across stripes in record order.
  std::vector<TraceEvent> Events() const;

  /// Events ever recorded (including overwritten ones).
  std::uint64_t recorded() const;
  /// Events lost to ring overwrites — the drop policy is oldest-first.
  std::uint64_t dropped() const;

  void Clear();

  /// One JSON object per line: {"ts":..,"ph":"X","cat":..,"name":..,...}.
  /// Timestamps are microseconds (Chrome convention).
  void ExportJsonl(std::ostream& os) const;
  /// The Chrome trace_event format: {"traceEvents":[...]}. Open the
  /// file in chrome://tracing or https://ui.perfetto.dev.
  void ExportChromeTrace(std::ostream& os) const;
  Status WriteJsonl(const std::string& path) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<TraceEvent> ring;  // allocated on first event
    std::size_t next = 0;          // ring insertion cursor
    std::uint64_t count = 0;       // events ever recorded here
  };

  Stripe& StripeForThisThread();

  TracerOptions options_;
  std::size_t stripe_capacity_;
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// The process-wide tracer every subsystem records into. Disabled by
/// default; `PiService::tracer()` and the shell's `trace on` enable it.
Tracer* GlobalTracer();

/// RAII span: records a complete event covering its lifetime. If
/// tracing is off at construction the span is inert (no clock read, no
/// destructor work beyond a null check).
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* category, const char* name,
            QueryId query = kInvalidQueryId)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    event_.category = category;
    event_.name = name;
    event_.phase = TracePhase::kComplete;
    event_.query = query;
    start_ = std::chrono::steady_clock::now();
  }

  ~TraceSpan() {
    if (tracer_ == nullptr) return;
    event_.dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    tracer_->Record(event_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument (first two stick, extras dropped).
  void arg(const char* key, double value) {
    if (tracer_ == nullptr) return;
    if (event_.arg1_key == nullptr) {
      event_.arg1_key = key;
      event_.arg1 = value;
    } else if (event_.arg2_key == nullptr) {
      event_.arg2_key = key;
      event_.arg2 = value;
    }
  }

 private:
  Tracer* tracer_;
  TraceEvent event_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mqpi::obs
