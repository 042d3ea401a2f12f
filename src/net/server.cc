#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "engine/sql_parser.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace mqpi::net {
namespace {

constexpr int kEpollBatch = 64;

}  // namespace

void PiServer::LoopWaker::Signal() {
  if (event_fd < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore EAGAIN.
  [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
}

PiServer::PiServer(service::PiService* service, PiServerOptions options)
    : service_(service),
      coordinator_(nullptr),
      options_(std::move(options)),
      fault_(options_.fault),
      tracer_(service->tracer()),
      metrics_(std::make_unique<NetMetrics>(service->metrics())) {
  SubscriberPool::Options pool_options;
  pool_options.threads = options_.pool_threads;
  pool_options.subscription = options_.subscription;
  pool_options.fault = fault_;
  pool_ = std::make_unique<SubscriberPool>(&fanout_, metrics_.get(),
                                           pool_options);
}

PiServer::PiServer(service::ShardedPiService* coordinator,
                   PiServerOptions options)
    : service_(coordinator->shard_service(0)),
      coordinator_(coordinator),
      options_(std::move(options)),
      fault_(options_.fault),
      // The tracer is process-wide by design (one trace stream per
      // process); reaching it through shard 0 is just the access path.
      tracer_(service_->tracer()),
      // Server-wide net.* metrics belong to the coordinator's
      // registry, not any one shard's.
      metrics_(std::make_unique<NetMetrics>(coordinator->metrics())) {
  shard_fanouts_.reserve(
      static_cast<std::size_t>(coordinator_->num_shards()));
  for (int i = 0; i < coordinator_->num_shards(); ++i) {
    shard_fanouts_.push_back(std::make_unique<SnapshotFanout>());
  }
  pushed_shard_epochs_.assign(shard_fanouts_.size(), 0);
  SubscriberPool::Options pool_options;
  pool_options.threads = options_.pool_threads;
  pool_options.subscription = options_.subscription;
  pool_options.fault = fault_;
  // In-process subscribers ride the merged/global stream.
  pool_ = std::make_unique<SubscriberPool>(&fanout_, metrics_.get(),
                                           pool_options);
}

PiServer::~PiServer() { Stop(); }

Status PiServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, options_.listen_backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("bind/listen failed: ") +
                            std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::Internal("epoll/eventfd setup failed");
  }

  // The telemetry listener rides this same epoll loop: its fds are
  // routed to the exporter in LoopThread via Owns()/OnEvent().
  if (options_.http_port >= 0) {
    HttpExporter::Options http_options;
    http_options.host = options_.http_host;
    http_options.port = static_cast<std::uint16_t>(options_.http_port);
    http_ = coordinator_ != nullptr
                ? std::make_unique<HttpExporter>(coordinator_, metrics_.get(),
                                                 http_options)
                : std::make_unique<HttpExporter>(service_, metrics_.get(),
                                                 http_options);
    const Status started = http_->Start(epoll_fd_);
    if (!started.ok()) {
      http_.reset();
      Stop();
      return started;
    }
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  // Publish path: ticker -> fanout (pointer swap) -> one eventfd write
  // for the TCP loop + one Wakeup::Notify per pool. O(1) in subscribers.
  waker_.event_fd = wake_fd_;
  fanout_.RegisterWaker(&waker_);
  pool_->Start();
  if (coordinator_ == nullptr) {
    service_->SetPublishHook(
        [this](const service::SnapshotPtr& snapshot) {
          fanout_.Publish(snapshot);
        });
    // Seed the fanout so subscribers joining before the next tick see
    // the current state immediately.
    fanout_.Publish(service_->snapshot());
  } else {
    // Sharded publish path: each shard's ticker lands in its OWN
    // fanout (pointer swap + the shared loop waker — still O(1), and
    // no shard ever waits on another shard's publish or on the merge).
    // The loop thread folds shard publishes into the merged/global
    // fanout_ once per wake in MaybePublishMerged().
    for (int i = 0; i < coordinator_->num_shards(); ++i) {
      SnapshotFanout* shard_fanout = shard_fanouts_[std::size_t(i)].get();
      shard_fanout->RegisterWaker(&waker_);
      coordinator_->shard_service(i)->SetPublishHook(
          [shard_fanout](const service::SnapshotPtr& snapshot) {
            shard_fanout->Publish(snapshot);
          });
      shard_fanout->Publish(coordinator_->shard_service(i)->snapshot());
    }
    last_merged_ = coordinator_->GlobalSnapshot();
    fanout_.Publish(last_merged_);
  }

  loop_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void PiServer::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    // Detach from the service(s) first: after this returns no new
    // publishes enter any fanout, so tearing down wakers is safe.
    if (coordinator_ == nullptr) {
      service_->SetPublishHook(nullptr);
    } else {
      for (int i = 0; i < coordinator_->num_shards(); ++i) {
        coordinator_->shard_service(i)->SetPublishHook(nullptr);
      }
    }
    stop_.store(true, std::memory_order_release);
    waker_.Signal();
    if (loop_.joinable()) loop_.join();
    pool_->Stop();
    fanout_.UnregisterWaker(&waker_);
    for (auto& shard_fanout : shard_fanouts_) {
      shard_fanout->UnregisterWaker(&waker_);
    }
    waker_.event_fd = -1;
  }
  // Loop thread is gone; its state is ours to reap.
  for (auto& [id, conn] : conns_) {
    if (conn->session) conn->session->Close();
    metrics_->AddConnections(-1);
    if (conn->subscribed) metrics_->AddSubscriptions(-1);
  }
  conns_.clear();
  conn_by_fd_.clear();
  if (http_ != nullptr) {
    http_->Stop();
    http_.reset();
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  wake_fd_ = epoll_fd_ = listen_fd_ = -1;
}

// ---- event loop -------------------------------------------------------------

void PiServer::LoopThread() {
  std::vector<epoll_event> events(kEpollBatch);
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 100);
    if (stop_.load(std::memory_order_acquire)) break;
    bool snapshot_wake = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        snapshot_wake = true;
        continue;
      }
      if (http_ != nullptr && http_->Owns(fd)) {
        http_->OnEvent(fd, events[i].events);
        continue;
      }
      auto it = conn_by_fd_.find(fd);
      if (it == conn_by_fd_.end()) continue;
      const std::uint64_t conn_id = it->second;
      Connection* conn = conns_.at(conn_id).get();
      bool alive = true;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        alive = false;
      } else {
        if ((events[i].events & EPOLLIN) != 0) {
          alive = ServiceConnection(conn);
        }
        if (alive && (events[i].events & EPOLLOUT) != 0) {
          FlushConnection(conn);
          alive = conn->fd() >= 0;
        }
      }
      if (!alive) {
        CloseConnection(conn_id, /*count_dropped=*/false);
      } else if (conn->closing() && !conn->wants_write()) {
        CloseConnection(conn_id, /*count_dropped=*/false);
      } else {
        UpdateEpollInterest(conn);
      }
    }
    if (drain_requested_.exchange(false, std::memory_order_acq_rel)) {
      DrainOnLoop();
    }
    // Coalesced push: however many publishes landed, merge once (the
    // coordinator quantum — sharded only) and encode once per stream
    // against its latest snapshot.
    if (snapshot_wake || PushPending()) {
      MaybePublishMerged();
      PushSnapshots();
    }
    if (fault_ != nullptr && fault_->enabled()) EvaluateConnFaults();
  }
  drain_wake_.Notify();  // a Drain() caller sees running_ cleared
}

void PiServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      metrics_->accept_failures->Increment();
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (fault_ != nullptr && fault_->enabled() &&
        fault_->ShouldFire(fault::kNetAcceptFail)) {
      metrics_->accept_failures->Increment();
      ::close(fd);
      continue;
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      metrics_->accept_failures->Increment();
      ::close(fd);
      continue;
    }
    metrics_->accepts->Increment();

    Connection::Options conn_options;
    conn_options.max_frame_bytes = options_.max_frame_bytes;
    conn_options.write_queue_max_frames = options_.write_queue_max_frames;
    conn_options.write_queue_max_bytes = options_.write_queue_max_bytes;
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(fd, id, conn_options);
    if (coordinator_ != nullptr) {
      int shard = 0;
      conn->session = coordinator_->OpenSession(
          "tcp-conn-" + std::to_string(id), &shard);
      conn->session_shard = shard;
    } else {
      conn->session =
          service_->OpenSession("tcp-conn-" + std::to_string(id));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn_by_fd_[fd] = id;
    conns_[id] = std::move(conn);
    metrics_->AddConnections(1);
  }
}

bool PiServer::ServiceConnection(Connection* conn) {
  std::vector<Frame> frames;
  const bool keep = conn->ReadFrames(&frames);
  for (Frame& frame : frames) {
    metrics_->requests->Increment();
    metrics_->frames_received->Increment();
    metrics_->bytes_received->Increment(kFrameHeaderBytes +
                                        frame.header.payload_len);

    // Transport-level verbs first: they touch connection push state.
    if (frame.header.type == FrameType::kSubscribe) {
      HandleSubscribe(conn, frame);
      continue;
    }
    if (frame.header.type == FrameType::kUnsubscribe) {
      if (conn->subscribed) {
        conn->subscribed = false;
        metrics_->AddSubscriptions(-1);
      }
      QueueOnConn(conn, EncodeFrame(frame.header.request_id,
                                    FrameBody{UnsubscribeReply{}}));
      continue;
    }

    FrameBody reply = Dispatch(conn->session.get(), frame,
                               conn->session_shard);
    if (std::holds_alternative<ErrorReply>(reply)) {
      metrics_->request_errors->Increment();
    }
    if (auto* stats = std::get_if<StatsReply>(&reply)) {
      stats->conn_frames_sent = conn->stats.frames_sent;
      stats->conn_bytes_sent = conn->stats.bytes_sent;
      stats->conn_full_frames = conn->stats.full_frames;
      stats->conn_delta_frames = conn->stats.delta_frames;
      stats->conn_queue_hw_frames = conn->stats.queue_hw_frames;
      stats->conn_queue_hw_bytes = conn->stats.queue_hw_bytes;
    }
    QueueOnConn(conn, EncodeFrame(frame.header.request_id, reply));
  }
  FlushConnection(conn);
  return keep && !(conn->closing() && !conn->wants_write());
}

namespace {

// Request dispatcher body: local classes cannot hold member templates,
// so the visitor lives at namespace scope.
struct DispatchVisitor {
  PiServer* server;
  service::Session* session;
  /// Which shard `session` lives on; 0 on unsharded servers. Sharded
  /// dispatch speaks global ids on the wire ((shard << 48) | local)
  /// and the shard's local ids inward.
  int shard;

    bool sharded() const { return server->coordinator() != nullptr; }
    /// Wire id -> this session's shard-local id. False when the id
    /// names a different shard (the caller answers NotFound: ids are
    /// session-scoped, and a session lives on exactly one shard).
    bool ToLocal(QueryId wire_id, QueryId* local) const {
      if (!sharded()) {
        *local = wire_id;
        return true;
      }
      if (service::ShardOfGlobalId(wire_id) != shard) return false;
      *local = service::LocalIdOf(wire_id);
      return true;
    }
    QueryId ToWire(QueryId local) const {
      return sharded() ? service::GlobalId(shard, local) : local;
    }

    FrameBody operator()(const SubmitRequest& req) {
      engine::QuerySpec spec;
      if (req.is_sql) {
        auto parsed = engine::ParseSql(req.sql);
        if (!parsed.ok()) return ErrorReply::From(parsed.status());
        spec = std::move(parsed).value();
      } else {
        spec = engine::QuerySpec::Synthetic(req.synthetic_cost);
      }
      auto id = session->Submit(spec, req.priority);
      if (!id.ok()) return ErrorReply::From(id.status());
      return SubmitReply{ToWire(id.value())};
    }
    FrameBody operator()(const CancelRequest& req) {
      QueryId local = kInvalidQueryId;
      if (!ToLocal(req.id, &local)) {
        return ErrorReply{StatusCode::kNotFound,
                          "query is not on this session's shard"};
      }
      Status status = session->Abort(local);
      if (!status.ok()) return ErrorReply::From(status);
      return CancelReply{};
    }
    FrameBody operator()(const ProgressRequest& req) {
      QueryId local = kInvalidQueryId;
      if (!ToLocal(req.id, &local)) {
        return ErrorReply{StatusCode::kNotFound,
                          "query is not on this session's shard"};
      }
      auto row = session->Progress(local);
      if (!row.ok()) return ErrorReply::From(row.status());
      const service::SnapshotPtr snapshot = session->snapshot();
      ProgressReply reply;
      reply.sequence = snapshot ? snapshot->sequence : 0;
      reply.sim_time = snapshot ? snapshot->sim_time : 0.0;
      reply.row = std::move(row).value();
      reply.row.id = ToWire(reply.row.id);
      if (sharded() && reply.row.session_id != 0) {
        // Session ids get the same global encoding the merged snapshot
        // uses, so a Progress row matches the stream's rows verbatim.
        reply.row.session_id = service::GlobalId(shard, reply.row.session_id);
      }
      return reply;
    }
    FrameBody operator()(const WhatIfRequest& req) {
      pi::MultiQueryPi::WhatIf scenario;
      scenario.blocked = req.blocked;
      scenario.aborted = req.aborted;
      scenario.reweighted = req.reweighted;
      if (sharded()) {
        // Global-id scenario straight to the coordinator: it validates
        // shard consistency and translates to the target's shard.
        auto eta =
            server->coordinator()->EstimateWhatIf(scenario, req.target);
        if (!eta.ok()) return ErrorReply::From(eta.status());
        return WhatIfReply{eta.value()};
      }
      auto eta = server->service()->EstimateWhatIf(scenario, req.target);
      if (!eta.ok()) return ErrorReply::From(eta.status());
      return WhatIfReply{eta.value()};
    }
    FrameBody operator()(const PingRequest& req) {
      return PongReply{req.nonce};
    }
    FrameBody operator()(const StatsRequest&) {
      // Server-wide fields only; the TCP loop overlays the conn_*
      // fields for socket clients (LocalClient sees them as zero).
      return server->BuildStats();
    }
    FrameBody operator()(const SubscribeRequest&) {
      return ErrorReply{StatusCode::kFailedPrecondition,
                        "SUBSCRIBE is transport-level"};
    }
    FrameBody operator()(const UnsubscribeRequest&) {
      return ErrorReply{StatusCode::kFailedPrecondition,
                        "UNSUBSCRIBE is transport-level"};
    }
    // Reply/push types arriving as requests are client bugs.
    template <typename T>
    FrameBody operator()(const T&) {
      return ErrorReply{StatusCode::kInvalidArgument,
                        "frame type is not a request"};
    }
};

}  // namespace

FrameBody PiServer::Dispatch(service::Session* session, const Frame& request,
                             int session_shard) {
  obs::TraceSpan span(tracer_, "net", "dispatch");
  return std::visit(DispatchVisitor{this, session, session_shard},
                    request.body);
}

StatsReply PiServer::BuildStats() {
  StatsReply stats;
  if (coordinator_ == nullptr) {
    const service::PiService::Liveness live = service_->CheckLiveness();
    stats.uptime_quanta = live.uptime_quanta;
    stats.ticker_age_quanta = live.age_quanta;
    stats.watchdog_restarts =
        service_->metrics()->counter("service.watchdog_restarts")->value();
  } else {
    // Aggregate liveness across shards: uptime/age are the worst case
    // (max), restarts sum, and per-shard detail rides stats.shards.
    for (int i = 0; i < coordinator_->num_shards(); ++i) {
      service::PiService* shard = coordinator_->shard_service(i);
      const service::PiService::Liveness live = shard->CheckLiveness();
      stats.uptime_quanta = std::max(stats.uptime_quanta, live.uptime_quanta);
      stats.ticker_age_quanta =
          std::max(stats.ticker_age_quanta, live.age_quanta);
      stats.watchdog_restarts +=
          shard->metrics()->counter("service.watchdog_restarts")->value();

      ShardStatsRow row;
      row.shard = i;
      row.uptime_quanta = live.uptime_quanta;
      row.ticker_age_quanta = live.age_quanta;
      row.watchdog_restarts =
          shard->metrics()->counter("service.watchdog_restarts")->value();
      const service::SnapshotPtr shard_latest =
          shard_fanouts_[std::size_t(i)]->Latest();
      if (shard_latest != nullptr) {
        row.snapshots_published = shard_latest->sequence;
        row.degraded = shard_latest->degraded;
        row.num_running = shard_latest->num_running;
        row.num_queued = shard_latest->num_queued;
      }
      stats.shards.push_back(row);
    }
  }
  const service::SnapshotPtr latest = fanout_.Latest();
  if (latest != nullptr) {
    stats.snapshots_published = latest->sequence;
    stats.degraded = latest->degraded;
  }
  stats.connections = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, metrics_->connection_count.load(std::memory_order_relaxed)));
  stats.subscriptions = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, metrics_->subscription_count.load(std::memory_order_relaxed)));
  stats.frames_sent = metrics_->frames_sent->value();
  stats.bytes_sent = metrics_->bytes_sent->value();
  stats.consumers_shed = metrics_->slow_consumers_shed->value();
  return stats;
}

void PiServer::MaybePublishMerged() {
  if (coordinator_ == nullptr) return;
  // One merge per loop wake, not per shard publish: GlobalSnapshot()
  // returns the coordinator's cached pointer when no shard published,
  // so the idle case is a handful of pointer compares.
  service::SnapshotPtr merged = coordinator_->GlobalSnapshot();
  if (merged != last_merged_) {
    last_merged_ = merged;
    fanout_.Publish(std::move(merged));
  }
}

bool PiServer::PushPending() const {
  if (fanout_.epoch() != pushed_epoch_) return true;
  for (std::size_t i = 0; i < shard_fanouts_.size(); ++i) {
    if (shard_fanouts_[i]->epoch() != pushed_shard_epochs_[i]) return true;
  }
  return false;
}

void PiServer::HandleSubscribe(Connection* conn, const Frame& frame) {
  const auto* req = std::get_if<SubscribeRequest>(&frame.body);
  int scope = req != nullptr ? req->shard : -1;
  // Unsharded servers have exactly one stream; shard 0 is a synonym
  // for it so single-shard tools work unchanged against either server.
  const int num_shards =
      coordinator_ != nullptr ? coordinator_->num_shards() : 1;
  if (scope >= num_shards) {
    QueueOnConn(conn,
                EncodeFrame(frame.header.request_id,
                            FrameBody{ErrorReply{
                                StatusCode::kInvalidArgument,
                                "subscribe shard out of range"}}));
    return;
  }
  if (scope < 0 || coordinator_ == nullptr) scope = -1;
  if (!conn->subscribed) {
    conn->subscribed = true;
    conn->delta.Reset();
    conn->pushed_sequence = 0;
    metrics_->AddSubscriptions(1);
  } else if (conn->subscribe_shard != scope) {
    // Re-scoping resets the stream: the delta chain restarts from a
    // full frame of the new scope.
    conn->delta.Reset();
    conn->pushed_sequence = 0;
  }
  conn->subscribe_shard = scope;

  SnapshotFanout* source =
      scope >= 0 ? shard_fanouts_[std::size_t(scope)].get() : &fanout_;
  SubscribeReply reply;
  const service::SnapshotPtr latest = source->Latest();
  reply.sequence = latest ? latest->sequence : 0;
  QueueOnConn(conn, EncodeFrame(frame.header.request_id, FrameBody{reply}));
  // Immediate full frame so the subscriber has a base to patch.
  if (latest != nullptr) {
    std::string push = conn->delta.Encode(latest);
    metrics_->full_frames->Increment();
    ++conn->stats.full_frames;
    conn->pushed_sequence = latest->sequence;
    QueueOnConn(conn, std::move(push));
  }
}

void PiServer::PushSnapshots() {
  MQPI_PROF_SITE(prof, "net.push_snapshots");
  std::uint64_t epoch = 0;
  const service::SnapshotPtr global = fanout_.Latest(&epoch);
  pushed_epoch_ = epoch;
  // Mark every shard stream caught up front: the push below reads the
  // same latests, so nothing published before this point is missed.
  std::vector<service::SnapshotPtr> shard_latests(shard_fanouts_.size());
  for (std::size_t i = 0; i < shard_fanouts_.size(); ++i) {
    std::uint64_t shard_epoch = 0;
    shard_latests[i] = shard_fanouts_[i]->Latest(&shard_epoch);
    pushed_shard_epochs_[i] = shard_epoch;
  }
  // Push-gap/shed evidence lands in shard 0's recorder when sharded
  // (service_ is shard 0): the loop is one thread and one recorder
  // keeps its story in one place, rather than duplicating it N ways.
  obs::FlightRecorder* flight = service_->flight_recorder();
  std::vector<std::uint64_t> done;
  for (auto& [id, conn] : conns_) {
    if (!conn->subscribed || conn->closing()) continue;
    const bool shard_scoped =
        conn->subscribe_shard >= 0 &&
        conn->subscribe_shard < static_cast<int>(shard_latests.size());
    SnapshotFanout* source =
        shard_scoped ? shard_fanouts_[std::size_t(conn->subscribe_shard)].get()
                     : &fanout_;
    const service::SnapshotPtr& latest =
        shard_scoped ? shard_latests[std::size_t(conn->subscribe_shard)]
                     : global;
    if (latest == nullptr) continue;
    if (conn->pushed_sequence >= latest->sequence) continue;
    // Publishes the loop slept through surface as sequence gaps: the
    // delta encoder folds them into one patch, but the recorder keeps
    // the evidence that this consumer skipped snapshots.
    if (conn->pushed_sequence != 0) {
      flight->ObserveGap("net", "conn_push", conn->pushed_sequence + 1,
                         latest->sequence);
    }
    bool is_full = false;
    std::string frame = conn->delta.Encode(latest, &is_full);
    conn->pushed_sequence = latest->sequence;
    (is_full ? metrics_->full_frames : metrics_->delta_frames)->Increment();
    ++(is_full ? conn->stats.full_frames : conn->stats.delta_frames);
    if (!QueueOnConn(conn.get(), std::move(frame))) {
      metrics_->slow_consumers_shed->Increment();
      flight->Record(obs::FlightEventKind::kShed, "net", "consumer_shed",
                     static_cast<double>(id), latest->sequence);
      flight->Trigger("consumer_shed");
    }
    metrics_->ObservePublishToWrite(*source, latest->sequence);
    FlushConnection(conn.get());
    if (conn->closing() && !conn->wants_write()) {
      done.push_back(id);
    } else {
      UpdateEpollInterest(conn.get());
    }
  }
  for (std::uint64_t id : done) {
    CloseConnection(id, /*count_dropped=*/false);
  }
}

bool PiServer::QueueOnConn(Connection* conn, std::string frame) {
  metrics_->frames_sent->Increment();
  metrics_->bytes_sent->Increment(frame.size());
  return conn->QueueFrame(std::move(frame));
}

void PiServer::FlushConnection(Connection* conn) {
  MQPI_PROF_SITE(prof, "net.socket_write");
  if (conn->stall_flushes > 0) {
    --conn->stall_flushes;
    return;
  }
  std::size_t cap = 0;
  if (fault_ != nullptr && fault_->enabled()) {
    const auto fire = fault_->Evaluate(fault::kNetPartialWrite);
    if (fire.fired) {
      cap = fire.value >= 1.0 ? static_cast<std::size_t>(fire.value) : 1;
    }
  }
  if (!conn->FlushWrites(cap)) {
    // Fatal write error; reap on the next loop pass via EPOLLERR or
    // directly here by marking closing with an empty queue.
    conn->set_closing();
  }
}

void PiServer::UpdateEpollInterest(Connection* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->wants_write() ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
}

void PiServer::CloseConnection(std::uint64_t conn_id, bool count_dropped) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if (conn->was_shed()) {
    // Best-effort goodbye for sheds torn down before draining.
    conn->FlushWrites();
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
  conn_by_fd_.erase(conn->fd());
  if (conn->subscribed) metrics_->AddSubscriptions(-1);
  if (conn->session) conn->session->Close();
  metrics_->AddConnections(-1);
  if (count_dropped) metrics_->conns_dropped->Increment();
  conns_.erase(it);
}

Status PiServer::Drain(double timeout_s) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server not running");
  }
  const std::uint64_t target =
      drains_done_.load(std::memory_order_acquire) + 1;
  drain_requested_.store(true, std::memory_order_release);
  waker_.Signal();
  const auto deadline = Wakeup::After(timeout_s);
  std::uint64_t seen = 0;
  while (drains_done_.load(std::memory_order_acquire) < target) {
    if (!running_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("server stopped during drain");
    }
    if (Wakeup::Clock::now() >= deadline) {
      return Status::Internal("drain timed out waiting for the event loop");
    }
    drain_wake_.WaitUntil(&seen, deadline);
  }
  return Status::OK();
}

void PiServer::DrainOnLoop() {
  ErrorReply goodbye;
  goodbye.code = StatusCode::kUnavailable;
  goodbye.message = "server draining; stream closed";
  const std::string frame = EncodeFrame(0, FrameBody{goodbye});
  std::vector<std::uint64_t> done;
  for (auto& [id, conn] : conns_) {
    if (!conn->subscribed || conn->closing()) continue;
    // Queue the goodbye BEFORE set_closing (a closing connection drops
    // queued frames silently), then let the normal flush/reap path
    // retire the connection once the frame is on the wire.
    QueueOnConn(conn.get(), frame);
    conn->set_closing();
    FlushConnection(conn.get());
    if (!conn->wants_write()) {
      done.push_back(id);
    } else {
      UpdateEpollInterest(conn.get());
    }
  }
  for (std::uint64_t id : done) {
    CloseConnection(id, /*count_dropped=*/false);
  }
  drains_done_.fetch_add(1, std::memory_order_acq_rel);
  drain_wake_.Notify();
}

void PiServer::EvaluateConnFaults() {
  if (conns_.empty()) return;
  const auto drop = fault_->Evaluate(fault::kNetConnDrop);
  if (drop.fired) {
    const std::uint64_t victim_index =
        fault_->PickIndex(fault::kNetConnDrop, conns_.size());
    auto it = conns_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(victim_index));
    CloseConnection(it->first, /*count_dropped=*/true);
  }
  if (conns_.empty()) return;
  const auto stall = fault_->Evaluate(fault::kNetSlowConsumer);
  if (stall.fired) {
    const std::uint64_t victim_index =
        fault_->PickIndex(fault::kNetSlowConsumer, conns_.size());
    auto it = conns_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(victim_index));
    // Freeze enough flushes that the write queue overflows and sheds.
    it->second->stall_flushes =
        static_cast<int>(options_.write_queue_max_frames) + 8;
  }
}

}  // namespace mqpi::net
