// FaultInjector: a seeded, deterministic chaos harness for the whole
// PI stack.
//
// The injector owns a catalog of *named fault points* — places in
// sched::Rdbms, pi::MultiQueryPi, service::PiService, and the network
// layer (net::PiServer + the snapshot fan-out) that ask
// "should this fault fire now?" once per opportunity (per quantum, per
// control call, per tick). A point fires either
//   - probability-driven: with probability p per evaluation, drawn from
//     a per-point RNG stream, or
//   - schedule-driven: exactly on the listed 0-based evaluation
//     indices (e.g. "stall the ticker on its 3rd tick"),
// optionally capped at `max_fires` total fires, and optionally carrying
// a numeric payload (`value`) — a rate multiplier for collapse/spike
// faults, a stall duration in wall seconds, a corruption value.
//
// Determinism contract: every point forks its own RNG stream from
// {injector seed, point name}, so the fire sequence of one point
// depends only on the seed and on how many times *that point* was
// evaluated — never on which other points are armed or on the
// interleaving of evaluations across points. A single-threaded run
// (manual-mode PiService, bare Rdbms) therefore replays exactly from
// the seed; in ticker mode the decisions are still seed-deterministic
// per point, only their wall-clock placement varies.
//
// Thread-safety: all methods are internally locked (evaluations are
// rare and cheap — one map lookup + one RNG draw). The hot-path gate
// is `enabled()`, a single relaxed atomic load that is false while no
// point is armed, so a wired-but-quiet injector costs a branch.
//
// Fault-point names must be string literals (static storage): the
// injector records a trace instant per fire through the process
// tracer, which stores name pointers only.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::fault {

// ---- fault-point catalog ----------------------------------------------------
// Every point wired into the stack, in one place. Arms use these
// constants; the strings double as the `point` label on the
// `fault.injected` counter.

/// Rdbms: abort one running query, chosen by the point's RNG.
inline constexpr const char* kSchedSpuriousAbort = "sched.spurious_abort";
/// Rdbms: toggle the admission gate (open<->closed).
inline constexpr const char* kSchedAdmissionFlap = "sched.admission_flap";
/// Rdbms: multiply this quantum's aggregate rate by `value` (< 1).
inline constexpr const char* kSchedRateCollapse = "sched.rate_collapse";
/// Rdbms: multiply this quantum's aggregate rate by `value` (> 1).
inline constexpr const char* kSchedRateSpike = "sched.rate_spike";
/// Rdbms: the quantum serves no work at all (clock still advances).
inline constexpr const char* kSchedQuantumStall = "sched.quantum_stall";
/// Rdbms: the quantum serves `value`x its nominal capacity.
inline constexpr const char* kSchedQuantumOvershoot =
    "sched.quantum_overshoot";
/// PiService ticker: park for `value` wall seconds, ignoring work
/// notifications (the watchdog's prey).
inline constexpr const char* kServiceTickerStall = "service.ticker_stall";
/// PiService: suppress this quantum's fresh snapshot; readers keep the
/// previous one, re-published with staleness tags.
inline constexpr const char* kServicePublishDelay = "service.publish_delay";
/// PiService: fail the session control call (Block/Resume/Abort/
/// SetPriority) with an Internal error.
inline constexpr const char* kServiceSessionControlFail =
    "service.session_control_fail";
/// PiServer: a freshly accepted connection is torn down immediately
/// (as if the accept syscall failed / the handshake died).
inline constexpr const char* kNetAcceptFail = "net.accept_fail";
/// PiServer: the next socket write moves at most `value` bytes
/// (default 1) — exercises the partial-write resume path.
inline constexpr const char* kNetPartialWrite = "net.partial_write";
/// Fan-out: one subscriber's consumer goes deaf (stops draining /
/// stops being writable), driving the bounded write queue into the
/// shedding path.
inline constexpr const char* kNetSlowConsumer = "net.slow_consumer";
/// Fan-out / server: one live connection or subscription is dropped
/// outright.
inline constexpr const char* kNetConnDrop = "net.conn_drop";
/// net::ResilientClient: the next connect attempt fails before the
/// socket is even tried (exercises backoff + retry scheduling).
inline constexpr const char* kNetClientConnectFail = "net.client.connect_fail";
/// recover::DurableLog: the next journal append is dropped on the
/// floor, poisoning the active segment until the next checkpoint.
inline constexpr const char* kRecoverJournalWriteFail =
    "recover.journal_write_fail";
/// recover::DurableLog: the checkpoint image being written has one
/// byte flipped before publication — recovery must fall back to the
/// previous checkpoint.
inline constexpr const char* kRecoverCheckpointCorrupt =
    "recover.checkpoint_corrupt";
/// MultiQueryPi: drop the memoized forecast and base-load snapshot
/// (correctness no-op by construction; costs a recomputation).
inline constexpr const char* kPiCacheInvalidate = "pi.cache_invalidate";
/// MultiQueryPi: overwrite the rate-measurement window accumulator
/// with `value` (NaN, negative, garbage) — exercises the rate guards.
inline constexpr const char* kPiWindowCorrupt = "pi.window_corrupt";

/// How one fault point fires. Probability and schedule compose: the
/// point fires when either says so (arm only one for the usual cases).
struct FaultSpec {
  /// Chance of firing per evaluation, in [0, 1].
  double probability = 0.0;
  /// Explicit 0-based evaluation indices to fire on (schedule-driven).
  std::vector<std::uint64_t> schedule;
  /// Stop firing after this many fires (the point stays armed and
  /// keeps counting evaluations).
  std::uint64_t max_fires = ~std::uint64_t{0};
  /// Payload delivered on fire (rate factor, stall seconds, ...).
  double value = 0.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0xC4A05u);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // ---- arming ---------------------------------------------------------------

  /// Arms (or re-arms, resetting counters) a fault point. `point` must
  /// be a string literal (see header comment).
  void Arm(const char* point, FaultSpec spec);
  void ArmProbability(const char* point, double probability,
                      double value = 0.0);
  void ArmSchedule(const char* point, std::vector<std::uint64_t> schedule,
                   double value = 0.0);
  void Disarm(std::string_view point);
  void DisarmAll();

  /// True while at least one point is armed — the wiring's hot-path
  /// gate (one relaxed atomic load).
  bool enabled() const {
    return armed_points_.load(std::memory_order_relaxed) != 0;
  }

  // ---- evaluation (called from the wired fault points) ----------------------

  struct Fire {
    bool fired = false;
    double value = 0.0;
  };

  /// One evaluation of `point`: returns whether it fires now and the
  /// armed payload. Unarmed points never fire (and are not counted).
  Fire Evaluate(std::string_view point);

  bool ShouldFire(std::string_view point) { return Evaluate(point).fired; }

  /// Evaluates `point` and returns its payload when it fires,
  /// `fallback` otherwise — the rate-multiplier idiom.
  double ScaleOr(std::string_view point, double fallback);

  /// Deterministic victim selection in [0, n): drawn from the point's
  /// own RNG stream (call only after a fire; requires n > 0).
  std::uint64_t PickIndex(std::string_view point, std::uint64_t n);

  // ---- accounting -----------------------------------------------------------

  struct PointStats {
    const char* point = nullptr;
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;  // since the point was last armed
    std::uint64_t lifetime_fires = 0;  // never reset, not even by Arm()
  };

  /// Stats for every point ever armed (alive through Disarm, so chaos
  /// runs can audit what actually fired). Sorted by point name.
  std::vector<PointStats> Stats() const;

  /// Total fires across all points.
  std::uint64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  struct Point {
    const char* name = nullptr;  // literal, stable for tracing
    FaultSpec spec;
    bool armed = false;
    Rng rng{0};
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
    std::uint64_t lifetime_fires = 0;
    std::size_t next_scheduled = 0;  // cursor into spec.schedule
  };

  /// Requires mu_. Creates the point on first touch with its forked
  /// RNG stream.
  Point* FindOrCreate(const char* literal_name, std::string_view point);

  const std::uint64_t seed_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  mutable std::mutex mu_;
  /// Keyed by point name; node-based so Point addresses are stable.
  std::map<std::string, Point, std::less<>> points_;
  std::atomic<std::uint64_t> armed_points_{0};
  std::atomic<std::uint64_t> total_fires_{0};
};

}  // namespace mqpi::fault
