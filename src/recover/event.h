// Lifecycle events: the durable input history of a PiService.
//
// The whole stack below the service is a deterministic simulator:
// given the same options, the same fault-injector seed, and the same
// ordered sequence of *inputs* — session opens/closes, submissions,
// control calls, admission flips, and clock advances — every estimator
// window, engine table, EWMA, and published snapshot is reproduced bit for
// bit. That determinism is the recovery story's foundation: instead of
// serializing megabytes of internal estimator state (and chasing every
// new field forever), the journal records the input events and
// recovery *replays* them. See recover/durable_log.h for the on-disk
// format and recover/recovery.h for the replay driver.
//
// This header is intentionally dependency-light (engine spec + sched
// enums only) so service::PiService can append events through the
// EventSink interface without the service library depending on the
// recover library (which in turn links service + net for replay and
// wire-format encoding).
#pragma once

#include <cstdint>
#include <string>

#include "common/priority.h"
#include "common/units.h"
#include "engine/planner.h"
#include "sched/rdbms.h"

namespace mqpi::recover {

/// One durable input to the service. Field usage by kind:
///   kSessionOpen   session_id, name
///   kSessionClose  session_id
///   kSubmit        session_id, query_id (the id the service assigned,
///                  verified on replay), spec, priority
///   kSubmitAt      session_id, time (absolute arrival time), spec,
///                  priority
///   kControl       session_id, query_id, op, priority (op ==
///                  kPriorityChanged only)
///   kAdmission     flag (admission gate open?)
///   kStep          time (dt the service advanced by; one event per
///                  published quantum)
///   kPublish       — (an off-tick PublishNow)
///   kProbe         — (an unpublished snapshot build: checkpoint
///                  verification or any BuildUnpublishedSnapshot call;
///                  replayed because building a snapshot advances the
///                  last-credible-ETA carry state)
///   kDrain         — (audit marker: a graceful drain began)
enum class EventKind : std::uint8_t {
  kSessionOpen = 1,
  kSessionClose = 2,
  kSubmit = 3,
  kSubmitAt = 4,
  kControl = 5,
  kAdmission = 6,
  kStep = 7,
  kPublish = 8,
  kProbe = 9,
  kDrain = 10,
};

std::string_view EventKindName(EventKind kind);

struct Event {
  EventKind kind = EventKind::kStep;
  std::uint64_t session_id = 0;
  QueryId query_id = kInvalidQueryId;
  /// kSubmitAt: absolute arrival time. kStep: the dt advanced.
  SimTime time = 0.0;
  Priority priority = Priority::kNormal;
  sched::QueryEventKind op = sched::QueryEventKind::kSubmitted;
  bool flag = false;
  engine::QuerySpec spec;
  std::string name;
};

/// Where the service appends its input history. Append must be cheap
/// and must never throw or block recovery-critical paths: persistent-
/// layer failures are absorbed by the implementation (counted, the
/// sink turns unhealthy) so a full disk degrades durability, never
/// availability.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void Append(const Event& event) = 0;
};

}  // namespace mqpi::recover
