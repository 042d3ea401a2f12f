#include "net/wire.h"

#include <cstring>
#include <iterator>

namespace mqpi::net {

namespace {

// Little-endian byte packing, independent of host representation.
void PutLe(std::string* buf, const void* src, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(src);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  for (std::size_t i = n; i-- > 0;) {
    buf->push_back(static_cast<char>(bytes[i]));
  }
#else
  buf->append(reinterpret_cast<const char*>(bytes), n);
#endif
}

void GetLe(const char* src, void* dst, std::size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  auto* bytes = static_cast<unsigned char*>(dst);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[n - 1 - i] = static_cast<unsigned char>(src[i]);
  }
#else
  std::memcpy(dst, src, n);
#endif
}

constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kStatsReply);

bool ValidFrameType(std::uint8_t type) {
  if (type >= static_cast<std::uint8_t>(FrameType::kSubmit) &&
      type <= static_cast<std::uint8_t>(FrameType::kStats)) {
    return true;
  }
  return type >= static_cast<std::uint8_t>(FrameType::kSubmitReply) &&
         type <= kMaxFrameType;
}

bool ValidStatusCode(std::uint8_t code) {
  return code <= static_cast<std::uint8_t>(StatusCode::kUnavailable);
}

bool ValidQueryState(std::uint8_t state) {
  return state <= static_cast<std::uint8_t>(sched::QueryState::kAborted);
}

bool ValidPriority(std::uint8_t priority) {
  return priority < static_cast<std::uint8_t>(kNumPriorities);
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kCancel: return "CANCEL";
    case FrameType::kProgress: return "PROGRESS";
    case FrameType::kSubscribe: return "SUBSCRIBE";
    case FrameType::kUnsubscribe: return "UNSUBSCRIBE";
    case FrameType::kWhatIf: return "WHATIF";
    case FrameType::kPing: return "PING";
    case FrameType::kStats: return "STATS";
    case FrameType::kSubmitReply: return "SUBMIT_REPLY";
    case FrameType::kCancelReply: return "CANCEL_REPLY";
    case FrameType::kProgressReply: return "PROGRESS_REPLY";
    case FrameType::kSubscribeReply: return "SUBSCRIBE_REPLY";
    case FrameType::kUnsubscribeReply: return "UNSUBSCRIBE_REPLY";
    case FrameType::kWhatIfReply: return "WHATIF_REPLY";
    case FrameType::kPong: return "PONG";
    case FrameType::kSnapshotFull: return "SNAPSHOT_FULL";
    case FrameType::kSnapshotDelta: return "SNAPSHOT_DELTA";
    case FrameType::kError: return "ERROR";
    case FrameType::kStatsReply: return "STATS_REPLY";
  }
  return "UNKNOWN";
}

Status ErrorReply::ToStatus() const {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(message);
    case StatusCode::kNotFound: return Status::NotFound(message);
    case StatusCode::kAlreadyExists: return Status::AlreadyExists(message);
    case StatusCode::kOutOfRange: return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kAborted: return Status::Aborted(message);
    case StatusCode::kUnimplemented: return Status::Unimplemented(message);
    case StatusCode::kInternal: return Status::Internal(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kUnavailable: return Status::Unavailable(message);
  }
  return Status::Internal(message);
}

ErrorReply ErrorReply::From(const Status& status) {
  ErrorReply error;
  error.code = status.code();
  error.message = status.message();
  return error;
}

// ---- writer / reader --------------------------------------------------------

void WireWriter::U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
void WireWriter::U16(std::uint16_t v) { PutLe(&buf_, &v, sizeof v); }
void WireWriter::U32(std::uint32_t v) { PutLe(&buf_, &v, sizeof v); }
void WireWriter::U64(std::uint64_t v) { PutLe(&buf_, &v, sizeof v); }
void WireWriter::I32(std::int32_t v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  U32(u);
}
void WireWriter::F64(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  U64(u);
}
void WireWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

bool WireReader::Take(void* out, std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  GetLe(data_ + pos_, out, n);
  pos_ += n;
  return true;
}

bool WireReader::U8(std::uint8_t* v) { return Take(v, sizeof *v); }
bool WireReader::U16(std::uint16_t* v) { return Take(v, sizeof *v); }
bool WireReader::U32(std::uint32_t* v) { return Take(v, sizeof *v); }
bool WireReader::U64(std::uint64_t* v) { return Take(v, sizeof *v); }
bool WireReader::I32(std::int32_t* v) {
  std::uint32_t u = 0;
  if (!U32(&u)) return false;
  std::memcpy(v, &u, sizeof u);
  return true;
}
bool WireReader::F64(double* v) {
  std::uint64_t u = 0;
  if (!U64(&u)) return false;
  std::memcpy(v, &u, sizeof u);
  return true;
}
bool WireReader::Str(std::string* s) {
  std::uint32_t len = 0;
  if (!U32(&len)) return false;
  if (len > kMaxStringBytes || size_ - pos_ < len) {
    ok_ = false;
    return false;
  }
  s->assign(data_ + pos_, len);
  pos_ += len;
  return true;
}

// ---- snapshot rows ----------------------------------------------------------

void EncodeSnapshotRow(WireWriter* w, const service::QueryProgress& row) {
  w->U64(row.id);
  w->U64(row.session_id);
  w->U8(static_cast<std::uint8_t>(row.state));
  w->U8(static_cast<std::uint8_t>(row.priority));
  w->U8(row.degraded ? 1 : 0);
  w->I32(row.queue_position);
  w->F64(row.weight);
  w->F64(row.completed_work);
  w->F64(row.remaining_cost);
  w->F64(row.fraction_done);
  w->F64(row.speed);
  w->F64(row.eta_single);
  w->F64(row.eta_multi);
  w->F64(row.arrival_time);
  w->F64(row.start_time);
  w->F64(row.finish_time);
  w->Str(row.label);
}

bool DecodeSnapshotRow(WireReader* r, service::QueryProgress* row) {
  std::uint8_t state = 0;
  std::uint8_t priority = 0;
  std::uint8_t degraded = 0;
  if (!r->U64(&row->id) || !r->U64(&row->session_id) || !r->U8(&state) ||
      !r->U8(&priority) || !r->U8(&degraded) ||
      !r->I32(&row->queue_position) || !r->F64(&row->weight) ||
      !r->F64(&row->completed_work) || !r->F64(&row->remaining_cost) ||
      !r->F64(&row->fraction_done) || !r->F64(&row->speed) ||
      !r->F64(&row->eta_single) || !r->F64(&row->eta_multi) ||
      !r->F64(&row->arrival_time) || !r->F64(&row->start_time) ||
      !r->F64(&row->finish_time) || !r->Str(&row->label)) {
    return false;
  }
  if (!ValidQueryState(state) || !ValidPriority(priority) || degraded > 1) {
    return false;
  }
  row->state = static_cast<sched::QueryState>(state);
  row->priority = static_cast<Priority>(priority);
  row->degraded = degraded != 0;
  return true;
}

std::size_t EncodedRowBytes(const service::QueryProgress& row) {
  // 2x u64 + 3x u8 + i32 + 10x f64 + (u32 + label).
  return 16 + 3 + 4 + 80 + 4 + row.label.size();
}

// ---- payload encode ---------------------------------------------------------

namespace {

void EncodeBody(WireWriter* w, const SubmitRequest& p) {
  w->U8(static_cast<std::uint8_t>(p.priority));
  w->U8(p.is_sql ? 1 : 0);
  w->Str(p.sql);
  w->F64(p.synthetic_cost);
  w->Str(p.label);
}
void EncodeBody(WireWriter* w, const SubmitReply& p) { w->U64(p.id); }
void EncodeBody(WireWriter* w, const CancelRequest& p) { w->U64(p.id); }
void EncodeBody(WireWriter*, const CancelReply&) {}
void EncodeBody(WireWriter* w, const ProgressRequest& p) { w->U64(p.id); }
void EncodeBody(WireWriter* w, const ProgressReply& p) {
  w->U64(p.sequence);
  w->F64(p.sim_time);
  EncodeSnapshotRow(w, p.row);
}
void EncodeBody(WireWriter* w, const SubscribeRequest& p) {
  w->I32(p.shard);
}
void EncodeBody(WireWriter* w, const SubscribeReply& p) { w->U64(p.sequence); }
void EncodeBody(WireWriter*, const UnsubscribeRequest&) {}
void EncodeBody(WireWriter*, const UnsubscribeReply&) {}
void EncodeBody(WireWriter* w, const WhatIfRequest& p) {
  w->U64(p.target);
  w->U32(static_cast<std::uint32_t>(p.blocked.size()));
  for (QueryId id : p.blocked) w->U64(id);
  w->U32(static_cast<std::uint32_t>(p.aborted.size()));
  for (QueryId id : p.aborted) w->U64(id);
  w->U32(static_cast<std::uint32_t>(p.reweighted.size()));
  for (const auto& [id, weight] : p.reweighted) {
    w->U64(id);
    w->F64(weight);
  }
}
void EncodeBody(WireWriter* w, const WhatIfReply& p) { w->F64(p.eta); }
void EncodeBody(WireWriter* w, const PingRequest& p) { w->U64(p.nonce); }
void EncodeBody(WireWriter* w, const PongReply& p) { w->U64(p.nonce); }
void EncodeBody(WireWriter*, const StatsRequest&) {}
void EncodeBody(WireWriter* w, const StatsReply& p) {
  w->U64(p.uptime_quanta);
  w->F64(p.ticker_age_quanta);
  w->U64(p.snapshots_published);
  w->U64(p.watchdog_restarts);
  w->U8(p.degraded ? 1 : 0);
  w->U64(p.connections);
  w->U64(p.subscriptions);
  w->U64(p.frames_sent);
  w->U64(p.bytes_sent);
  w->U64(p.consumers_shed);
  w->U64(p.conn_frames_sent);
  w->U64(p.conn_bytes_sent);
  w->U64(p.conn_full_frames);
  w->U64(p.conn_delta_frames);
  w->U64(p.conn_queue_hw_frames);
  w->U64(p.conn_queue_hw_bytes);
  w->U32(static_cast<std::uint32_t>(p.shards.size()));
  for (const ShardStatsRow& row : p.shards) {
    w->I32(row.shard);
    w->U64(row.uptime_quanta);
    w->F64(row.ticker_age_quanta);
    w->U64(row.snapshots_published);
    w->U64(row.watchdog_restarts);
    w->U8(row.degraded ? 1 : 0);
    w->I32(row.num_running);
    w->I32(row.num_queued);
  }
}
void EncodeBody(WireWriter* w, const ErrorReply& p) {
  w->U8(static_cast<std::uint8_t>(p.code));
  w->Str(p.message);
}
void EncodeBody(WireWriter* w, const SnapshotFrame& p) {
  w->U64(p.sequence);
  w->U64(p.base_sequence);
  w->F64(p.sim_time);
  w->I32(p.num_running);
  w->I32(p.num_queued);
  w->I32(p.num_blocked);
  w->F64(p.measured_rate);
  w->F64(p.quiescent_eta);
  w->I32(p.age_quanta);
  w->U8(p.degraded ? 1 : 0);
  w->U32(p.total_rows);
  w->U32(static_cast<std::uint32_t>(p.rows.size()));
  for (const auto& row : p.rows) EncodeSnapshotRow(w, row);
  w->U32(static_cast<std::uint32_t>(p.shard_loads.size()));
  for (const service::ShardLoad& load : p.shard_loads) {
    w->I32(load.shard);
    w->U64(load.sequence);
    w->F64(load.sim_time);
    w->I32(load.num_running);
    w->I32(load.num_queued);
    w->F64(load.measured_rate);
    w->F64(load.quiescent_eta);
    w->U8(load.degraded ? 1 : 0);
  }
}

FrameType TypeOf(const FrameBody& body, bool full_snapshot) {
  // FrameBody's alternatives, in declaration order (the round-trip
  // property test decodes every type back into its own alternative).
  static constexpr FrameType kTypes[] = {
      FrameType::kSubmit,         FrameType::kSubmitReply,
      FrameType::kCancel,         FrameType::kCancelReply,
      FrameType::kProgress,       FrameType::kProgressReply,
      FrameType::kSubscribe,      FrameType::kSubscribeReply,
      FrameType::kUnsubscribe,    FrameType::kUnsubscribeReply,
      FrameType::kWhatIf,         FrameType::kWhatIfReply,
      FrameType::kPing,           FrameType::kPong,
      FrameType::kStats,          FrameType::kStatsReply,
      FrameType::kError,          FrameType::kSnapshotFull};
  static_assert(std::size(kTypes) == std::variant_size_v<FrameBody>);
  if (std::holds_alternative<SnapshotFrame>(body) && !full_snapshot) {
    return FrameType::kSnapshotDelta;
  }
  return kTypes[body.index()];
}

}  // namespace

std::string EncodeFrame(std::uint64_t request_id, const FrameBody& body,
                        bool full_snapshot) {
  WireWriter payload;
  std::visit([&](const auto& p) { EncodeBody(&payload, p); }, body);

  const FrameType type = TypeOf(body, full_snapshot);
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.bytes().size());
  WireWriter header;
  header.U32(static_cast<std::uint32_t>(payload.bytes().size()));
  header.U8(kWireVersion);
  header.U8(static_cast<std::uint8_t>(type));
  header.U16(0);  // flags, reserved
  header.U64(request_id);
  out = header.Take();
  out += payload.bytes();
  return out;
}

std::string EncodeFrame(const Frame& frame) {
  const bool full = frame.header.type != FrameType::kSnapshotDelta;
  return EncodeFrame(frame.header.request_id, frame.body, full);
}

// ---- payload decode ---------------------------------------------------------

namespace {

bool DecodeBody(WireReader* r, SubmitRequest* p) {
  std::uint8_t priority = 0;
  std::uint8_t is_sql = 0;
  if (!r->U8(&priority) || !r->U8(&is_sql) || !r->Str(&p->sql) ||
      !r->F64(&p->synthetic_cost) || !r->Str(&p->label)) {
    return false;
  }
  if (!ValidPriority(priority) || is_sql > 1) return false;
  p->priority = static_cast<Priority>(priority);
  p->is_sql = is_sql != 0;
  return true;
}
bool DecodeBody(WireReader* r, SubmitReply* p) { return r->U64(&p->id); }
bool DecodeBody(WireReader* r, CancelRequest* p) { return r->U64(&p->id); }
bool DecodeBody(WireReader*, CancelReply*) { return true; }
bool DecodeBody(WireReader* r, ProgressRequest* p) { return r->U64(&p->id); }
bool DecodeBody(WireReader* r, ProgressReply* p) {
  return r->U64(&p->sequence) && r->F64(&p->sim_time) &&
         DecodeSnapshotRow(r, &p->row);
}
bool DecodeBody(WireReader* r, SubscribeRequest* p) {
  // Legacy peers sent an empty payload; that still means "global".
  if (r->remaining() == 0) {
    p->shard = -1;
    return true;
  }
  return r->I32(&p->shard);
}
bool DecodeBody(WireReader* r, SubscribeReply* p) {
  return r->U64(&p->sequence);
}
bool DecodeBody(WireReader*, UnsubscribeRequest*) { return true; }
bool DecodeBody(WireReader*, UnsubscribeReply*) { return true; }
bool DecodeBody(WireReader* r, WhatIfRequest* p) {
  if (!r->U64(&p->target)) return false;
  std::uint32_t n = 0;
  if (!r->U32(&n) || n > kMaxSnapshotRows) return false;
  p->blocked.resize(n);
  for (auto& id : p->blocked) {
    if (!r->U64(&id)) return false;
  }
  if (!r->U32(&n) || n > kMaxSnapshotRows) return false;
  p->aborted.resize(n);
  for (auto& id : p->aborted) {
    if (!r->U64(&id)) return false;
  }
  if (!r->U32(&n) || n > kMaxSnapshotRows) return false;
  p->reweighted.resize(n);
  for (auto& [id, weight] : p->reweighted) {
    if (!r->U64(&id) || !r->F64(&weight)) return false;
  }
  return true;
}
bool DecodeBody(WireReader* r, WhatIfReply* p) { return r->F64(&p->eta); }
bool DecodeBody(WireReader* r, PingRequest* p) { return r->U64(&p->nonce); }
bool DecodeBody(WireReader* r, PongReply* p) { return r->U64(&p->nonce); }
bool DecodeBody(WireReader*, StatsRequest*) { return true; }
bool DecodeBody(WireReader* r, StatsReply* p) {
  std::uint8_t degraded = 0;
  const bool ok = r->U64(&p->uptime_quanta) && r->F64(&p->ticker_age_quanta) &&
                  r->U64(&p->snapshots_published) &&
                  r->U64(&p->watchdog_restarts) && r->U8(&degraded) &&
                  r->U64(&p->connections) && r->U64(&p->subscriptions) &&
                  r->U64(&p->frames_sent) && r->U64(&p->bytes_sent) &&
                  r->U64(&p->consumers_shed) && r->U64(&p->conn_frames_sent) &&
                  r->U64(&p->conn_bytes_sent) &&
                  r->U64(&p->conn_full_frames) &&
                  r->U64(&p->conn_delta_frames) &&
                  r->U64(&p->conn_queue_hw_frames) &&
                  r->U64(&p->conn_queue_hw_bytes);
  p->degraded = degraded != 0;
  if (!ok) return false;
  // Legacy peers end the payload here (unsharded reply).
  if (r->remaining() == 0) return true;
  std::uint32_t shard_count = 0;
  if (!r->U32(&shard_count) || shard_count > kMaxShardRows) return false;
  p->shards.resize(shard_count);
  for (ShardStatsRow& row : p->shards) {
    std::uint8_t row_degraded = 0;
    if (!r->I32(&row.shard) || !r->U64(&row.uptime_quanta) ||
        !r->F64(&row.ticker_age_quanta) ||
        !r->U64(&row.snapshots_published) ||
        !r->U64(&row.watchdog_restarts) || !r->U8(&row_degraded) ||
        !r->I32(&row.num_running) || !r->I32(&row.num_queued)) {
      return false;
    }
    if (row_degraded > 1) return false;
    row.degraded = row_degraded != 0;
  }
  return true;
}
bool DecodeBody(WireReader* r, ErrorReply* p) {
  std::uint8_t code = 0;
  if (!r->U8(&code) || !r->Str(&p->message)) return false;
  if (!ValidStatusCode(code)) return false;
  p->code = static_cast<StatusCode>(code);
  return true;
}
bool DecodeBody(WireReader* r, SnapshotFrame* p) {
  std::uint8_t degraded = 0;
  std::uint32_t row_count = 0;
  if (!r->U64(&p->sequence) || !r->U64(&p->base_sequence) ||
      !r->F64(&p->sim_time) || !r->I32(&p->num_running) ||
      !r->I32(&p->num_queued) || !r->I32(&p->num_blocked) ||
      !r->F64(&p->measured_rate) || !r->F64(&p->quiescent_eta) ||
      !r->I32(&p->age_quanta) || !r->U8(&degraded) || !r->U32(&p->total_rows) ||
      !r->U32(&row_count)) {
    return false;
  }
  if (degraded > 1 || row_count > kMaxSnapshotRows ||
      p->total_rows > kMaxSnapshotRows) {
    return false;
  }
  // A row is >= 107 bytes on the wire; reject counts the remaining
  // payload cannot possibly hold before allocating.
  if (static_cast<std::size_t>(row_count) * 107 > r->remaining()) {
    return false;
  }
  p->degraded = degraded != 0;
  p->rows.resize(row_count);
  for (auto& row : p->rows) {
    if (!DecodeSnapshotRow(r, &row)) return false;
  }
  // Legacy peers end the payload here (single-shard stream).
  if (r->remaining() == 0) return true;
  std::uint32_t load_count = 0;
  if (!r->U32(&load_count) || load_count > kMaxShardRows) return false;
  p->shard_loads.resize(load_count);
  for (service::ShardLoad& load : p->shard_loads) {
    std::uint8_t load_degraded = 0;
    std::int32_t shard = 0;
    std::int32_t running = 0;
    std::int32_t queued = 0;
    if (!r->I32(&shard) || !r->U64(&load.sequence) ||
        !r->F64(&load.sim_time) || !r->I32(&running) || !r->I32(&queued) ||
        !r->F64(&load.measured_rate) || !r->F64(&load.quiescent_eta) ||
        !r->U8(&load_degraded)) {
      return false;
    }
    if (load_degraded > 1) return false;
    load.shard = shard;
    load.num_running = running;
    load.num_queued = queued;
    load.degraded = load_degraded != 0;
  }
  return true;
}

template <typename T>
bool DecodeInto(WireReader* r, FrameBody* body) {
  T payload;
  if (!DecodeBody(r, &payload) || !r->Exhausted()) return false;
  *body = std::move(payload);
  return true;
}

bool DecodePayload(FrameType type, WireReader* r, FrameBody* body) {
  switch (type) {
    case FrameType::kSubmit: return DecodeInto<SubmitRequest>(r, body);
    case FrameType::kSubmitReply: return DecodeInto<SubmitReply>(r, body);
    case FrameType::kCancel: return DecodeInto<CancelRequest>(r, body);
    case FrameType::kCancelReply: return DecodeInto<CancelReply>(r, body);
    case FrameType::kProgress: return DecodeInto<ProgressRequest>(r, body);
    case FrameType::kProgressReply: return DecodeInto<ProgressReply>(r, body);
    case FrameType::kSubscribe: return DecodeInto<SubscribeRequest>(r, body);
    case FrameType::kSubscribeReply:
      return DecodeInto<SubscribeReply>(r, body);
    case FrameType::kUnsubscribe:
      return DecodeInto<UnsubscribeRequest>(r, body);
    case FrameType::kUnsubscribeReply:
      return DecodeInto<UnsubscribeReply>(r, body);
    case FrameType::kWhatIf: return DecodeInto<WhatIfRequest>(r, body);
    case FrameType::kWhatIfReply: return DecodeInto<WhatIfReply>(r, body);
    case FrameType::kPing: return DecodeInto<PingRequest>(r, body);
    case FrameType::kPong: return DecodeInto<PongReply>(r, body);
    case FrameType::kStats: return DecodeInto<StatsRequest>(r, body);
    case FrameType::kStatsReply: return DecodeInto<StatsReply>(r, body);
    case FrameType::kError: return DecodeInto<ErrorReply>(r, body);
    case FrameType::kSnapshotFull:
    case FrameType::kSnapshotDelta:
      return DecodeInto<SnapshotFrame>(r, body);
  }
  return false;
}

}  // namespace

DecodeResult TryDecodeFrame(const char* data, std::size_t size,
                            std::size_t max_payload, Frame* out,
                            std::size_t* consumed, Status* error) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) return DecodeResult::kNeedMore;

  WireReader header(data, kFrameHeaderBytes);
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  header.U32(&payload_len);
  header.U8(&version);
  header.U8(&type);
  header.U16(&flags);
  header.U64(&request_id);

  if (version != kWireVersion) {
    *error = Status::InvalidArgument(
        "unsupported wire version " + std::to_string(version) + " (speak " +
        std::to_string(kWireVersion) + ")");
    return DecodeResult::kError;
  }
  if (flags != 0) {
    *error = Status::InvalidArgument("reserved frame flags must be 0");
    return DecodeResult::kError;
  }
  if (!ValidFrameType(type)) {
    *error = Status::InvalidArgument("unknown frame type " +
                                     std::to_string(type));
    return DecodeResult::kError;
  }
  const std::size_t cap = std::min(max_payload, kMaxPayloadBytes);
  if (payload_len > cap) {
    *error = Status::OutOfRange(
        "frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(cap) + "-byte cap");
    return DecodeResult::kError;
  }
  if (size - kFrameHeaderBytes < payload_len) return DecodeResult::kNeedMore;

  out->header.payload_len = payload_len;
  out->header.version = version;
  out->header.type = static_cast<FrameType>(type);
  out->header.flags = flags;
  out->header.request_id = request_id;

  WireReader payload(data + kFrameHeaderBytes, payload_len);
  if (!DecodePayload(out->header.type, &payload, &out->body)) {
    *error = Status::InvalidArgument(
        std::string("malformed ") + std::string(FrameTypeName(out->header.type)) +
        " payload");
    return DecodeResult::kError;
  }
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeResult::kFrame;
}

}  // namespace mqpi::net
