#include "recover/recovery.h"

#include <utility>

#include "net/fanout.h"

namespace mqpi::recover {

std::string EncodeSnapshotBytes(const service::SnapshotPtr& snapshot) {
  return net::DeltaEncoder::Encode(/*base=*/nullptr, *snapshot);
}

Status Checkpoint(service::PiService* service, DurableLog* log) {
  // BuildUnpublishedSnapshot journals the kProbe first, so the probe
  // is part of the checkpoint image and replay rebuilds the snapshot
  // at exactly this point in the history.
  const std::string verification =
      EncodeSnapshotBytes(service->BuildUnpublishedSnapshot());
  MQPI_RETURN_NOT_OK(log->WriteCheckpoint(verification));
  return Status::OK();
}

namespace {

Status ReplayMismatch(std::size_t index, const Event& event,
                      const std::string& detail) {
  return Status::Internal(
      "replay diverged at event " + std::to_string(index) + " (" +
      std::string(EventKindName(event.kind)) + "): " + detail);
}

}  // namespace

Result<RecoveredService> Recover(const storage::Catalog* catalog,
                                 const std::string& dir,
                                 service::PiServiceOptions options,
                                 DurableLog::Options log_options) {
  LoadedState loaded;
  {
    auto load = DurableLog::Load(dir);
    if (load.ok()) {
      loaded = std::move(*load);
    } else if (!load.status().IsNotFound()) {
      return load.status();
    }
    // NotFound: fresh start — no history, an empty log directory will
    // be created below.
  }

  RecoveredService out;
  out.had_checkpoint = loaded.had_checkpoint;
  out.tail_truncated = loaded.tail_truncated;
  out.dropped_bytes = loaded.dropped_bytes;
  out.corrupt_checkpoints = loaded.corrupt_checkpoints;

  // Replay runs in manual mode with no sink attached; the caller's
  // ticker preference is honored only after the history is applied.
  const bool start_ticker = options.start_ticker;
  options.start_ticker = false;
  options.event_sink = nullptr;
  out.service = std::make_unique<service::PiService>(catalog, options);

  // The checkpoint verification snapshot was built at the last probe
  // before the cut (Checkpoint() journals kProbe, then cuts; appends
  // racing the cut may land between them).
  std::size_t verify_at = loaded.events.size();  // "never" by default
  if (loaded.had_checkpoint) {
    for (std::size_t i = loaded.verification_prefix; i-- > 0;) {
      if (loaded.events[i].kind == EventKind::kProbe) {
        verify_at = i;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < loaded.events.size(); ++i) {
    const Event& event = loaded.events[i];
    switch (event.kind) {
      case EventKind::kSessionOpen: {
        auto session = out.service->OpenSession(event.name);
        if (session->id() != event.session_id) {
          return ReplayMismatch(
              i, event,
              "engine assigned session id " + std::to_string(session->id()) +
                  ", journal recorded " + std::to_string(event.session_id));
        }
        out.sessions.emplace(event.session_id, std::move(session));
        break;
      }
      case EventKind::kSessionClose: {
        auto it = out.sessions.find(event.session_id);
        if (it == out.sessions.end()) {
          return ReplayMismatch(i, event, "session not open");
        }
        MQPI_RETURN_NOT_OK(it->second->Close());
        out.sessions.erase(it);
        break;
      }
      case EventKind::kSubmit: {
        auto it = out.sessions.find(event.session_id);
        if (it == out.sessions.end()) {
          return ReplayMismatch(i, event, "session not open");
        }
        auto id = it->second->Submit(event.spec, event.priority);
        if (!id.ok()) return ReplayMismatch(i, event, id.status().ToString());
        if (*id != event.query_id) {
          return ReplayMismatch(
              i, event,
              "engine assigned query id " + std::to_string(*id) +
                  ", journal recorded " + std::to_string(event.query_id));
        }
        break;
      }
      case EventKind::kSubmitAt: {
        auto it = out.sessions.find(event.session_id);
        if (it == out.sessions.end()) {
          return ReplayMismatch(i, event, "session not open");
        }
        MQPI_RETURN_NOT_OK(
            it->second->SubmitAt(event.time, event.spec, event.priority));
        break;
      }
      case EventKind::kControl: {
        auto it = out.sessions.find(event.session_id);
        if (it == out.sessions.end()) {
          return ReplayMismatch(i, event, "session not open");
        }
        Status status;
        switch (event.op) {
          case sched::QueryEventKind::kBlocked:
            status = it->second->Block(event.query_id);
            break;
          case sched::QueryEventKind::kResumed:
            status = it->second->Resume(event.query_id);
            break;
          case sched::QueryEventKind::kAborted:
            status = it->second->Abort(event.query_id);
            break;
          case sched::QueryEventKind::kPriorityChanged:
            status = it->second->SetPriority(event.query_id, event.priority);
            break;
          default:
            status = Status::InvalidArgument("unsupported journaled op");
            break;
        }
        // Journaled controls succeeded pre-crash; replay must agree.
        if (!status.ok()) return ReplayMismatch(i, event, status.ToString());
        break;
      }
      case EventKind::kAdmission:
        out.service->SetAdmissionOpen(event.flag);
        break;
      case EventKind::kStep:
        MQPI_RETURN_NOT_OK(out.service->Advance(event.time));
        break;
      case EventKind::kPublish:
        out.service->PublishNow();
        break;
      case EventKind::kProbe: {
        const service::SnapshotPtr probe =
            out.service->BuildUnpublishedSnapshot();
        if (i == verify_at) {
          out.verified = EncodeSnapshotBytes(probe) == loaded.verification;
        }
        break;
      }
      case EventKind::kDrain:
        break;  // audit marker only
    }
    ++out.events_replayed;
  }

  // History applied: reopen the log (truncating any torn tail) and
  // resume journaling where the pre-crash process left off.
  out.log = std::make_unique<DurableLog>();
  MQPI_RETURN_NOT_OK(out.log->Open(dir, log_options, &loaded));
  out.service->SetEventSink(out.log.get());
  if (start_ticker) out.service->Start();
  return out;
}

std::string ShardJournalDir(const std::string& root, int shard) {
  return root + "/shard-" + std::to_string(shard);
}

Result<RecoveredShardedService> RecoverSharded(
    const storage::Catalog* catalog, const std::string& root, int num_shards,
    service::PiServiceOptions options, DurableLog::Options log_options,
    std::function<void(int shard, service::PiServiceOptions*)> per_shard) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  RecoveredShardedService out;
  out.shards.reserve(static_cast<std::size_t>(num_shards));
  out.all_verified = true;
  // Shards recover independently — separate directories, separate
  // logs, separate replay timelines. A corrupt shard fails only its
  // own recovery (and therefore the whole call, loudly), never by
  // silently diverging a sibling.
  for (int i = 0; i < num_shards; ++i) {
    service::PiServiceOptions shard_options = options;
    if (per_shard) per_shard(i, &shard_options);
    auto recovered = Recover(catalog, ShardJournalDir(root, i),
                             std::move(shard_options), log_options);
    if (!recovered.ok()) return recovered.status();
    out.events_replayed += recovered.value().events_replayed;
    if (recovered.value().had_checkpoint && !recovered.value().verified) {
      out.all_verified = false;
    }
    out.shards.push_back(std::move(recovered).value());
  }
  std::vector<service::PiService*> services;
  services.reserve(out.shards.size());
  for (RecoveredService& shard : out.shards) {
    services.push_back(shard.service.get());
  }
  out.coordinator =
      std::make_unique<service::ShardedPiService>(std::move(services));
  return out;
}

}  // namespace mqpi::recover
