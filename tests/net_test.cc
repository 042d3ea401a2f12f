// Network-layer tests: wire-format round-trip property tests (every
// encoded frame decodes byte-identically; truncated / oversized /
// bad-version input is rejected with a Status, never a crash), the
// snapshot fan-out (O(1) publish, per-subscriber delta encoding,
// bounded-queue shedding), the TCP server end to end, TSan-checked
// subscribe/unsubscribe churn during publication, and a chaos soak
// over the kNet* fault points with seed-replayable fire streams.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "net/client.h"
#include "net/conn.h"
#include "net/fanout.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi::net {
namespace {

using engine::QuerySpec;
using service::PiService;
using service::PiServiceOptions;
using service::ProgressSnapshot;
using service::QueryProgress;
using service::SnapshotPtr;

PiServiceOptions ManualOptions() {
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  return options;
}

double RandomDouble(Rng* rng) {
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return kUnknown;
    case 1:
      return kInfiniteTime;
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return 0.0;
    default:
      return rng->Uniform(-1e6, 1e6);
  }
}

std::string RandomLabel(Rng* rng) {
  std::string label;
  const int len = static_cast<int>(rng->UniformInt(0, 24));
  for (int i = 0; i < len; ++i) {
    label += static_cast<char>(rng->UniformInt(32, 126));
  }
  return label;
}

QueryProgress RandomRow(Rng* rng) {
  QueryProgress row;
  row.id = static_cast<QueryId>(rng->UniformInt(0, 1 << 20));
  row.session_id = static_cast<std::uint64_t>(rng->UniformInt(0, 1 << 10));
  row.label = RandomLabel(rng);
  row.state = static_cast<sched::QueryState>(rng->UniformInt(0, 4));
  row.priority = static_cast<Priority>(rng->UniformInt(0, 3));
  row.weight = RandomDouble(rng);
  row.completed_work = RandomDouble(rng);
  row.remaining_cost = RandomDouble(rng);
  row.fraction_done = rng->NextDouble();
  row.speed = RandomDouble(rng);
  row.eta_single = RandomDouble(rng);
  row.eta_multi = RandomDouble(rng);
  row.queue_position = static_cast<int>(rng->UniformInt(-1, 64));
  row.arrival_time = RandomDouble(rng);
  row.start_time = RandomDouble(rng);
  row.finish_time = RandomDouble(rng);
  row.degraded = rng->UniformInt(0, 1) == 1;
  return row;
}

FrameBody RandomBody(Rng* rng) {
  switch (rng->UniformInt(0, 15)) {
    case 0: {
      SubmitRequest body;
      body.priority = static_cast<Priority>(rng->UniformInt(0, 3));
      body.is_sql = rng->UniformInt(0, 1) == 1;
      body.sql = RandomLabel(rng);
      body.synthetic_cost = RandomDouble(rng);
      body.label = RandomLabel(rng);
      return body;
    }
    case 1:
      return SubmitReply{static_cast<QueryId>(rng->UniformInt(0, 1 << 20))};
    case 2:
      return CancelRequest{static_cast<QueryId>(rng->UniformInt(0, 99))};
    case 3:
      return CancelReply{};
    case 4:
      return ProgressRequest{static_cast<QueryId>(rng->UniformInt(0, 99))};
    case 5: {
      ProgressReply body;
      body.sequence = static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
      body.sim_time = RandomDouble(rng);
      body.row = RandomRow(rng);
      return body;
    }
    case 6:
      // Spans the merged scope (-1) and shard scopes, including ones no
      // real server would accept — the codec must carry them verbatim.
      return SubscribeRequest{
          static_cast<std::int32_t>(rng->UniformInt(-1, 8))};
    case 7:
      return SubscribeReply{
          static_cast<std::uint64_t>(rng->UniformInt(0, 1000))};
    case 8:
      return UnsubscribeRequest{};
    case 9:
      return UnsubscribeReply{};
    case 10: {
      WhatIfRequest body;
      body.target = static_cast<QueryId>(rng->UniformInt(0, 99));
      const int blocked = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < blocked; ++i) {
        body.blocked.push_back(static_cast<QueryId>(rng->UniformInt(0, 99)));
      }
      const int aborted = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < aborted; ++i) {
        body.aborted.push_back(static_cast<QueryId>(rng->UniformInt(0, 99)));
      }
      const int reweighted = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < reweighted; ++i) {
        body.reweighted.emplace_back(
            static_cast<QueryId>(rng->UniformInt(0, 99)),
            rng->Uniform(0.1, 8.0));
      }
      return body;
    }
    case 11:
      return WhatIfReply{RandomDouble(rng)};
    case 12:
      return PingRequest{rng->Next()};
    case 13:
      return PongReply{rng->Next()};
    case 14: {
      ErrorReply body;
      body.code = static_cast<StatusCode>(rng->UniformInt(1, 9));
      body.message = RandomLabel(rng);
      return body;
    }
    default: {
      SnapshotFrame body;
      body.sequence = static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
      body.base_sequence =
          static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
      body.sim_time = RandomDouble(rng);
      body.num_running = static_cast<std::int32_t>(rng->UniformInt(0, 40));
      body.num_queued = static_cast<std::int32_t>(rng->UniformInt(0, 40));
      body.num_blocked = static_cast<std::int32_t>(rng->UniformInt(0, 40));
      body.measured_rate = RandomDouble(rng);
      body.quiescent_eta = RandomDouble(rng);
      body.age_quanta = static_cast<std::int32_t>(rng->UniformInt(0, 9));
      body.degraded = rng->UniformInt(0, 1) == 1;
      const int rows = static_cast<int>(rng->UniformInt(0, 12));
      for (int i = 0; i < rows; ++i) body.rows.push_back(RandomRow(rng));
      body.total_rows = static_cast<std::uint32_t>(
          rng->UniformInt(rows, rows + 100));
      const int shard_loads = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < shard_loads; ++i) {
        service::ShardLoad load;
        load.shard = i;
        load.sequence = static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
        load.sim_time = RandomDouble(rng);
        load.num_running = static_cast<int>(rng->UniformInt(0, 40));
        load.num_queued = static_cast<int>(rng->UniformInt(0, 40));
        load.measured_rate = RandomDouble(rng);
        load.quiescent_eta = RandomDouble(rng);
        load.degraded = rng->UniformInt(0, 1) == 1;
        body.shard_loads.push_back(load);
      }
      return body;
    }
  }
}

// A snapshot with synthetic rows, sorted by id (the invariant the
// delta encoder leans on).
SnapshotPtr MakeSnapshot(std::uint64_t sequence,
                         std::vector<QueryProgress> rows) {
  auto snapshot = std::make_shared<ProgressSnapshot>();
  snapshot->sequence = sequence;
  snapshot->sim_time = static_cast<double>(sequence) * 0.1;
  snapshot->queries = std::move(rows);
  return snapshot;
}

QueryProgress Row(QueryId id, double fraction) {
  QueryProgress row;
  row.id = id;
  row.state = sched::QueryState::kRunning;
  row.fraction_done = fraction;
  row.eta_multi = 10.0 * (1.0 - fraction);
  return row;
}

// ---- wire round-trip property tests -----------------------------------------

TEST(WireFormatTest, RandomFramesRoundTripByteIdentically) {
  Rng rng(0xC0FFEEu);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t request_id = rng.Next();
    const FrameBody body = RandomBody(&rng);
    const bool full = rng.UniformInt(0, 1) == 1;
    const std::string bytes = EncodeFrame(request_id, body, full);

    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r = TryDecodeFrame(bytes.data(), bytes.size(),
                                          kMaxPayloadBytes, &decoded,
                                          &consumed, &error);
    ASSERT_EQ(r, DecodeResult::kFrame) << error.ToString();
    ASSERT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded.header.request_id, request_id);
    EXPECT_EQ(decoded.body.index(), body.index());

    // Re-encoding the decoded frame must reproduce the exact bytes —
    // byte-identity subsumes field-by-field equality (including NaN
    // payload bits).
    const std::string reencoded =
        EncodeFrame(decoded.header.request_id, decoded.body, full);
    EXPECT_EQ(reencoded, bytes);
  }
}

TEST(WireFormatTest, EveryTruncationReportsNeedMoreNeverCrashes) {
  Rng rng(0xBEEFu);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string bytes = EncodeFrame(rng.Next(), RandomBody(&rng));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Frame decoded;
      std::size_t consumed = 0;
      Status error;
      const DecodeResult r = TryDecodeFrame(bytes.data(), cut,
                                            kMaxPayloadBytes, &decoded,
                                            &consumed, &error);
      ASSERT_EQ(r, DecodeResult::kNeedMore)
          << "cut=" << cut << " of " << bytes.size();
    }
  }
}

TEST(WireFormatTest, BadVersionFlagsTypeAndLengthAreStatusErrors) {
  const std::string good = EncodeFrame(7, FrameBody{PingRequest{42}});
  Frame decoded;
  std::size_t consumed = 0;
  Status error;

  std::string bad = good;
  bad[4] = 9;  // version
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);

  bad = good;
  bad[6] = 1;  // flags must be zero
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);

  bad = good;
  bad[5] = static_cast<char>(200);  // unknown frame type
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);

  // Oversized declared length: rejected before any payload arrives.
  bad = good;
  const std::uint32_t huge = 1u << 30;
  std::memcpy(bad.data(), &huge, sizeof(huge));
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error.code(), StatusCode::kOutOfRange);
}

TEST(WireFormatTest, CorruptPayloadsNeverCrash) {
  Rng rng(0xFADEDu);
  int errors = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string bytes = EncodeFrame(rng.Next(), RandomBody(&rng));
    // Flip a few bytes anywhere in the frame.
    const int flips = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r = TryDecodeFrame(bytes.data(), bytes.size(),
                                          kMaxPayloadBytes, &decoded,
                                          &consumed, &error);
    if (r == DecodeResult::kError) {
      ++errors;
      EXPECT_FALSE(error.ok());
    }
  }
  EXPECT_GT(errors, 0);  // corruption is actually being detected
}

TEST(WireFormatTest, MultipleFramesDecodeInSequenceFromOneBuffer) {
  std::string stream;
  stream += EncodeFrame(1, FrameBody{PingRequest{11}});
  stream += EncodeFrame(2, FrameBody{CancelRequest{5}});
  stream += EncodeFrame(3, FrameBody{SubscribeRequest{}});

  std::size_t pos = 0;
  std::vector<std::uint64_t> ids;
  for (;;) {
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r =
        TryDecodeFrame(stream.data() + pos, stream.size() - pos,
                       kMaxPayloadBytes, &decoded, &consumed, &error);
    if (r != DecodeResult::kFrame) break;
    pos += consumed;
    ids.push_back(decoded.header.request_id);
  }
  EXPECT_EQ(pos, stream.size());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
}

// ---- delta encoder ----------------------------------------------------------

TEST(DeltaEncoderTest, FirstContactIsFullThenOnlyChangedRows) {
  bool full = false;

  const auto s1 = MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.5), Row(3, 0.9)});
  std::string f1 = DeltaEncoder::Encode(nullptr, *s1, &full);
  EXPECT_TRUE(full);

  // Only row 2 changes.
  auto rows = s1->queries;
  rows[1].fraction_done = 0.6;
  const auto s2 = MakeSnapshot(2, rows);
  std::string f2 = DeltaEncoder::Encode(s1.get(), *s2, &full);
  EXPECT_FALSE(full);

  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(f2.data(), f2.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(decoded.header.type, FrameType::kSnapshotDelta);
  const auto& frame = std::get<SnapshotFrame>(decoded.body);
  ASSERT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(frame.rows[0].id, 2u);
  EXPECT_EQ(frame.base_sequence, 1u);
  EXPECT_EQ(frame.total_rows, 3u);  // the two unchanged rows elided

  // Nothing changes: a header-only delta, never an empty string.
  const auto s3 = MakeSnapshot(3, rows);
  std::string f3 = DeltaEncoder::Encode(s2.get(), *s3, &full);
  EXPECT_FALSE(full);
  ASSERT_EQ(TryDecodeFrame(f3.data(), f3.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_TRUE(std::get<SnapshotFrame>(decoded.body).rows.empty());
}

TEST(DeltaEncoderTest, NewQueriesRideDeltasVanishedIdsForceFull) {
  bool full = false;

  const auto s1 = MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.2)});

  // A new id appended: still a delta, carrying just the new row.
  const auto s2 =
      MakeSnapshot(2, {Row(1, 0.1), Row(2, 0.2), Row(7, 0.0)});
  std::string f2 = DeltaEncoder::Encode(s1.get(), *s2, &full);
  EXPECT_FALSE(full);
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(f2.data(), f2.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  ASSERT_EQ(std::get<SnapshotFrame>(decoded.body).rows.size(), 1u);
  EXPECT_EQ(std::get<SnapshotFrame>(decoded.body).rows[0].id, 7u);

  // Id 2 vanishes (stream restart): full-frame fallback.
  const auto s3 = MakeSnapshot(3, {Row(1, 0.1), Row(7, 0.1)});
  DeltaEncoder::Encode(s2.get(), *s3, &full);
  EXPECT_TRUE(full);
}

TEST(DeltaEncoderTest, BitwiseComparisonTreatsNanAndInfSanely) {
  auto a = Row(1, 0.5);
  auto b = a;
  EXPECT_FALSE(DeltaEncoder::RowChanged(a, b));
  b.eta_multi = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(DeltaEncoder::RowChanged(a, b));
  a.eta_multi = b.eta_multi;
  // NaN == NaN bitwise: no spurious "changed" every tick.
  EXPECT_FALSE(DeltaEncoder::RowChanged(a, b));
  b.eta_single = kInfiniteTime;
  EXPECT_TRUE(DeltaEncoder::RowChanged(a, b));
}

TEST(DeltaEncoderTest, CoalescingSkippedSnapshotsYieldsNetDelta) {
  bool full = false;
  const auto s1 = MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.2)});

  // The subscriber misses sequences 2..9; encoding 10 directly gives
  // one delta with the net change, based on sequence 1.
  auto rows = s1->queries;
  rows[0].fraction_done = 0.9;
  const auto s10 = MakeSnapshot(10, rows);
  std::string f = DeltaEncoder::Encode(s1.get(), *s10, &full);
  EXPECT_FALSE(full);
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(f.data(), f.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  const auto& frame = std::get<SnapshotFrame>(decoded.body);
  EXPECT_EQ(frame.base_sequence, 1u);
  EXPECT_EQ(frame.sequence, 10u);
  ASSERT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(frame.rows[0].id, 1u);
}

// ---- snapshot view (client-side merge) --------------------------------------

TEST(SnapshotViewTest, FullThenDeltasRebuildTheSnapshot) {
  SnapshotPtr last;
  SnapshotView view;
  auto apply = [&](const SnapshotPtr& snapshot) {
    bool full = false;
    const std::string bytes =
        DeltaEncoder::Encode(last.get(), *snapshot, &full);
    last = snapshot;
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), kMaxPayloadBytes,
                             &decoded, &consumed, &error),
              DecodeResult::kFrame);
    ASSERT_TRUE(view.Apply(std::get<SnapshotFrame>(decoded.body), full).ok());
  };

  apply(MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.2)}));
  EXPECT_EQ(view.sequence(), 1u);
  EXPECT_EQ(view.rows(), 2u);

  auto rows = std::vector<QueryProgress>{Row(1, 0.5), Row(2, 0.2),
                                         Row(3, 0.0)};
  apply(MakeSnapshot(2, rows));
  EXPECT_EQ(view.sequence(), 2u);
  EXPECT_EQ(view.rows(), 3u);
  ASSERT_NE(view.Find(1), nullptr);
  EXPECT_DOUBLE_EQ(view.Find(1)->fraction_done, 0.5);
  EXPECT_EQ(view.deltas_applied(), 1u);
}

TEST(SnapshotViewTest, GapInDeltaStreamIsRejected) {
  SnapshotView view;
  SnapshotFrame full;
  full.sequence = 5;
  full.total_rows = 0;
  ASSERT_TRUE(view.Apply(full, /*is_full=*/true).ok());

  SnapshotFrame delta;
  delta.sequence = 9;
  delta.base_sequence = 8;  // view holds 5 — a gap
  delta.total_rows = 0;
  const Status status = view.Apply(delta, /*is_full=*/false);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// ---- fan-out hub ------------------------------------------------------------

TEST(SnapshotFanoutTest, PublishCostIsIndependentOfSubscriberCount) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 2;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  auto ops_per_publish = [&](int subscribers, int publishes) {
    std::vector<std::shared_ptr<Subscription>> subs;
    for (int i = 0; i < subscribers; ++i) subs.push_back(pool.Subscribe());
    const std::uint64_t ops0 = fanout.publish_ops();
    const std::uint64_t pubs0 = fanout.publishes();
    for (int i = 0; i < publishes; ++i) {
      fanout.Publish(MakeSnapshot(fanout.epoch() + 1, {Row(1, 0.1)}));
    }
    const double ops = static_cast<double>(fanout.publish_ops() - ops0);
    const double pubs = static_cast<double>(fanout.publishes() - pubs0);
    for (auto& sub : subs) pool.Unsubscribe(sub);
    return ops / pubs;
  };

  const double small = ops_per_publish(1, 50);
  const double large = ops_per_publish(512, 50);
  // O(1): per-publish op count identical at 1 and 512 subscribers.
  EXPECT_DOUBLE_EQ(small, large);
  pool.Stop();
}

TEST(SnapshotFanoutTest, SubscribersReceiveEveryPublishOrCoalesced) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 1;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  auto sub = pool.Subscribe();
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    fanout.Publish(MakeSnapshot(seq, {Row(1, 0.01 * seq)}));
  }
  // Wait until the pool has delivered the newest sequence.
  LocalSubscriber consumer(sub);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (consumer.view().sequence() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    consumer.Pump();
    std::this_thread::yield();
  }
  EXPECT_EQ(consumer.view().sequence(), 20u);
  EXPECT_EQ(consumer.view().rows(), 1u);
  // Coalescing means <= 20 frames were materialized for this consumer.
  EXPECT_LE(consumer.view().fulls_applied() + consumer.view().deltas_applied(),
            20u);
  pool.Unsubscribe(sub);
  pool.Stop();
}

TEST(SnapshotFanoutTest, PublishWallNsStampsAreReadable) {
  SnapshotFanout fanout;
  fanout.Publish(MakeSnapshot(41, {}));
  fanout.Publish(MakeSnapshot(42, {}));
  EXPECT_GT(fanout.PublishWallNs(42), 0);
  EXPECT_GT(fanout.PublishWallNs(41), 0);
  EXPECT_EQ(fanout.PublishWallNs(40), 0);  // never published
}

// ---- bounded-queue shedding -------------------------------------------------

TEST(SubscriptionShedTest, OverflowClearsQueueAndLeavesErrorGoodbye) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout(metrics.frames_encoded);
  Subscription::Options options;
  options.max_queued_frames = 4;
  Subscription subscription(options);
  DeliveryTally tally;
  auto deliver = [&](std::uint64_t seq, std::vector<QueryProgress> rows) {
    fanout.Publish(MakeSnapshot(seq, std::move(rows)));
    FrameLookup frames(&fanout, fanout.Latest());
    return subscription.Deliver(&frames, &tally, &metrics);
  };

  // Nobody drains: the 5th delivery overflows and sheds.
  bool shed_seen = false;
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    if (!deliver(seq, {Row(1, 0.1 * seq)})) {
      shed_seen = true;
      break;
    }
  }
  EXPECT_EQ(tally.frames, 4u);
  EXPECT_EQ(tally.full_frames, 1u);
  EXPECT_EQ(metrics.frames_encoded->value(), 5u);
  ASSERT_TRUE(shed_seen);
  EXPECT_TRUE(subscription.shed());
  EXPECT_EQ(metrics.slow_consumers_shed->value(), 1u);

  // The queue holds exactly one frame: the kResourceExhausted goodbye.
  SharedFrame bytes;
  ASSERT_TRUE(subscription.TryPop(&bytes));
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(bytes->data(), bytes->size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kFrame);
  const auto* goodbye = std::get_if<ErrorReply>(&decoded.body);
  ASSERT_NE(goodbye, nullptr);
  EXPECT_EQ(goodbye->code, StatusCode::kResourceExhausted);
  EXPECT_FALSE(subscription.TryPop(&bytes));
  // Deliveries after the shed are refused.
  EXPECT_FALSE(deliver(9, {}));
}

TEST(SubscriptionShedTest, PoolShedsStalledConsumerAndOthersKeepFlowing) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 1;
  options.subscription.max_queued_frames = 4;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  auto victim = pool.Subscribe();
  auto healthy = pool.Subscribe();
  victim->StallPops(1 << 20);  // the consumer goes deaf
  LocalSubscriber healthy_consumer(healthy);

  for (std::uint64_t seq = 1; seq <= 64 && !victim->shed(); ++seq) {
    fanout.Publish(MakeSnapshot(seq, {Row(1, 0.01 * seq)}));
    healthy_consumer.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!victim->shed() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(victim->shed());
  EXPECT_GE(metrics.slow_consumers_shed->value(), 1u);

  // The healthy consumer still converges on the latest sequence.
  fanout.Publish(MakeSnapshot(100, {Row(1, 0.99)}));
  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (healthy_consumer.view().sequence() < 100 &&
         std::chrono::steady_clock::now() < deadline2) {
    healthy_consumer.Pump();
    std::this_thread::yield();
  }
  EXPECT_EQ(healthy_consumer.view().sequence(), 100u);
  pool.Unsubscribe(healthy);
  pool.Stop();
}

// ---- concurrency (the TSan-label suite) -------------------------------------

TEST(FanoutConcurrencyTest, ChurnDuringPublicationIsRaceFree) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 3;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      fanout.Publish(MakeSnapshot(++seq, {Row(1, 0.5), Row(2, 0.25)}));
    }
  });

  // Churners subscribe, pump a little, and unsubscribe, mid-publish.
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&, t] {
      Rng rng(1000u + static_cast<std::uint64_t>(t));
      for (int round = 0; round < 200; ++round) {
        auto sub = pool.Subscribe();
        LocalSubscriber consumer(sub);
        const int pumps = static_cast<int>(rng.UniformInt(0, 8));
        for (int i = 0; i < pumps; ++i) consumer.Pump();
        if (rng.UniformInt(0, 1) == 0) {
          pool.Unsubscribe(sub);
        } else {
          sub->Cancel();  // lazy sweep removal path
        }
      }
    });
  }
  for (auto& churner : churners) churner.join();
  stop.store(true, std::memory_order_release);
  publisher.join();
  pool.Stop();
}

// A subscribe racing a publish must still end at the final sequence.
// Subscribe joins its shard before it seeds from Latest(), so a publish
// landing in between is swept with the new subscriber on the roster.
// (Seeding first let a worker sweep that publish without it, mark the
// epoch swept, and leave it one sequence behind until the next publish:
// in manual mode, forever.) Each round publishes once, while the
// round's subscriber is inside Subscribe (a wide snapshot keeps its
// seed encode busy), then stops and waits for that subscriber.
TEST(FanoutConcurrencyTest, SubscribesRacingPublishesReachTheFinalSequence) {
  constexpr int kRounds = 200;
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 2;
  options.subscription.max_queued_frames = kRounds + 8;  // never shed
  options.subscription.max_queued_bytes = std::size_t{1} << 30;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();
  std::vector<QueryProgress> rows;
  for (QueryId id = 1; id <= 2000; ++id) rows.push_back(Row(id, 0.5));
  fanout.Publish(MakeSnapshot(1, rows));

  std::atomic<int> subscribing{0};
  std::thread publisher([&] {
    for (int round = 2; round <= kRounds; ++round) {
      while (subscribing.load(std::memory_order_acquire) < round) {
        std::this_thread::yield();
      }
      fanout.Publish(MakeSnapshot(static_cast<std::uint64_t>(round), rows));
    }
  });
  std::vector<std::shared_ptr<Subscription>> subs;
  for (int round = 2; round <= kRounds; ++round) {
    subscribing.store(round, std::memory_order_release);
    subs.push_back(pool.Subscribe());
    const auto target = static_cast<std::uint64_t>(round);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (subs.back()->delivered_sequence() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (subs.back()->delivered_sequence() != target) {
      ADD_FAILURE() << "subscriber of round " << round << " stuck at "
                    << subs.back()->delivered_sequence();
      // Release the publisher: the remaining rounds need no subscriber.
      subscribing.store(kRounds, std::memory_order_release);
      break;
    }
  }
  publisher.join();
  EXPECT_EQ(metrics.slow_consumers_shed->value(), 0u);
  pool.Stop();
}

TEST(FanoutConcurrencyTest, StopWithLiveSubscribersIsClean) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool pool(&fanout, &metrics);
  pool.Start();
  std::vector<std::shared_ptr<Subscription>> subs;
  for (int i = 0; i < 32; ++i) subs.push_back(pool.Subscribe());
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    fanout.Publish(MakeSnapshot(seq, {Row(1, 0.1)}));
  }
  // Let the workers actually deliver before stopping, so the test also
  // covers "stop with queued frames still unconsumed".
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (subs[0]->delivered_sequence() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  pool.Stop();  // live subscriptions still registered: must not hang
  // Subscriptions stay poppable after the pool is gone.
  SharedFrame bytes;
  EXPECT_TRUE(subs[0]->TryPop(&bytes));
}

// ---- differential: shared frames vs the per-subscriber encoder --------------

// The encoder every subscriber owned before frames were shared: it
// remembers the last snapshot it encoded for its one subscriber and
// diffs the next against it. Kept here, independent of the library, as
// the reference the shared frames must match byte for byte.
class ReferenceEncoder {
 public:
  std::string Encode(const SnapshotPtr& next) {
    SnapshotFrame frame;
    frame.sequence = next->sequence;
    frame.sim_time = next->sim_time;
    frame.num_running = next->num_running;
    frame.num_queued = next->num_queued;
    frame.num_blocked = next->num_blocked;
    frame.measured_rate = next->measured_rate;
    frame.quiescent_eta = next->quiescent_eta;
    frame.age_quanta = next->age_quanta;
    frame.degraded = next->degraded;
    frame.total_rows = static_cast<std::uint32_t>(next->queries.size());
    frame.shard_loads = next->shard_loads;
    bool full = last_ == nullptr;
    if (!full) {
      const auto& old_rows = last_->queries;
      std::size_t oi = 0;
      for (const auto& row : next->queries) {
        if (oi < old_rows.size() && old_rows[oi].id == row.id) {
          if (RowBits(old_rows[oi], /*wire_delta_fields=*/true) !=
              RowBits(row, /*wire_delta_fields=*/true)) {
            frame.rows.push_back(row);
          }
          ++oi;
        } else if (oi < old_rows.size() && old_rows[oi].id < row.id) {
          full = true;
          break;
        } else {
          frame.rows.push_back(row);
        }
      }
      if (oi < old_rows.size()) full = true;
      frame.base_sequence = last_->sequence;
    }
    if (full) {
      frame.rows = next->queries;
      frame.base_sequence = 0;
    }
    last_ = next;
    return EncodeFrame(0, FrameBody(std::move(frame)), full);
  }
  void Reset() { last_.reset(); }

  // The row's bits; `wire_delta_fields` keeps only the fields a delta
  // compares (everything but id, session, label and arrival time).
  static std::string RowBits(const QueryProgress& r, bool wire_delta_fields) {
    std::string out;
    auto put = [&out](const auto& v) {
      out.append(reinterpret_cast<const char*>(&v), sizeof v);
    };
    put(r.state);
    put(r.priority);
    put(r.degraded);
    put(r.queue_position);
    for (double v : {r.weight, r.fraction_done, r.speed, r.eta_single,
                     r.eta_multi, r.completed_work, r.remaining_cost,
                     r.start_time, r.finish_time}) {
      put(v);
    }
    if (!wire_delta_fields) {
      put(r.id);
      put(r.session_id);
      put(r.arrival_time);
      out += r.label;
    }
    return out;
  }

 private:
  SnapshotPtr last_;
};

// The view holds exactly `snapshot`: header fields and every row,
// compared bitwise.
void ExpectViewEquals(const SnapshotView& view, const ProgressSnapshot& snapshot,
                      const std::string& who) {
  EXPECT_EQ(view.sequence(), snapshot.sequence) << who;
  const SimTime view_time = view.sim_time();
  EXPECT_EQ(std::memcmp(&view_time, &snapshot.sim_time, sizeof view_time), 0)
      << who;
  EXPECT_EQ(view.num_running(), snapshot.num_running) << who;
  EXPECT_EQ(view.num_queued(), snapshot.num_queued) << who;
  EXPECT_EQ(view.degraded(), snapshot.degraded) << who;
  const std::vector<QueryProgress> rows = view.Rows();
  ASSERT_EQ(rows.size(), snapshot.queries.size()) << who;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(ReferenceEncoder::RowBits(rows[i], false),
              ReferenceEncoder::RowBits(snapshot.queries[i], false))
        << who << " row " << i;
  }
}

// Checks one received push against the subscriber's reference encoder
// and applies it to its view.
struct StreamChecker {
  const std::map<std::uint64_t, SnapshotPtr>* published = nullptr;
  ReferenceEncoder reference;
  SnapshotView view;
  int frames = 0;

  void OnSnapshot(const std::string& bytes, const Frame& frame,
                  const std::string& who) {
    const auto& body = std::get<SnapshotFrame>(frame.body);
    const auto it = published->find(body.sequence);
    ASSERT_NE(it, published->end())
        << who << " got unpublished sequence " << body.sequence;
    EXPECT_EQ(bytes, reference.Encode(it->second))
        << who << " frame for sequence " << body.sequence;
    EXPECT_TRUE(
        view.Apply(body, frame.header.type == FrameType::kSnapshotFull).ok())
        << who;
    ++frames;
  }
};

// A raw TCP subscriber that sees every pushed frame's exact bytes.
class RawTcpSubscriber {
 public:
  RawTcpSubscriber(std::uint16_t port,
                   const std::map<std::uint64_t, SnapshotPtr>* published)
      : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    checker_.published = published;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~RawTcpSubscriber() { ::close(fd_); }

  bool connected() const { return connected_; }
  const SnapshotView& view() const { return checker_.view; }
  int frames() const { return checker_.frames; }

  void Send(const FrameBody& body) {
    const std::string bytes = EncodeFrame(next_request_id_++, body);
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  // Reads what arrives within `timeout_ms` and checks every frame.
  void Drain(int timeout_ms, const std::string& who) {
    pollfd pfd{fd_, POLLIN, 0};
    while (::poll(&pfd, 1, timeout_ms) > 0) {
      char chunk[64 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n <= 0) break;
      buf_.append(chunk, static_cast<std::size_t>(n));
      timeout_ms = 0;
    }
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      Status error;
      const DecodeResult r =
          TryDecodeFrame(buf_.data() + pos_, buf_.size() - pos_,
                         kMaxPayloadBytes, &frame, &consumed, &error);
      if (r != DecodeResult::kFrame) {
        ASSERT_NE(r, DecodeResult::kError) << who << ": " << error.ToString();
        break;
      }
      const std::string bytes = buf_.substr(pos_, consumed);
      pos_ += consumed;
      if (std::holds_alternative<SnapshotFrame>(frame.body)) {
        checker_.OnSnapshot(bytes, frame, who);
      } else if (std::holds_alternative<SubscribeReply>(frame.body)) {
        // Every SUBSCRIBE restarts the stream with a full frame.
        checker_.reference.Reset();
      } else if (const auto* e = std::get_if<ErrorReply>(&frame.body)) {
        ADD_FAILURE() << who << " error frame: " << e->message;
      }
    }
    buf_.erase(0, pos_);
    pos_ = 0;
  }

  void WaitFor(std::uint64_t sequence, const std::string& who) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (checker_.view.sequence() < sequence &&
           std::chrono::steady_clock::now() < deadline) {
      Drain(10, who);
    }
  }

 private:
  const int fd_;
  bool connected_ = false;
  std::string buf_;
  std::size_t pos_ = 0;
  std::uint64_t next_request_id_ = 1;
  StreamChecker checker_;
};

// Random publishes, pumps and subscriber churn against one server: in-
// process subscribers (pumped eagerly or lagging, stalled until shed,
// subscribed mid-stream, unsubscribed) and TCP subscribers (lagging,
// resubscribed on the same stream, unsubscribed and resubscribed). Two
// pool workers and the loop thread share the frame memo. Every frame a
// subscriber pops must equal what the per-subscriber reference encoder
// produces for the snapshots that subscriber was sent, and every live
// view must end bitwise equal to PiService::snapshot().
TEST(FanoutDifferentialTest, SharedFramesMatchPerSubscriberReference) {
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  PiServerOptions server_options;
  server_options.pool_threads = 2;
  server_options.subscription.max_queued_frames = 24;
  PiServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto session = service.OpenSession("diff");

  std::map<std::uint64_t, SnapshotPtr> published;
  auto record = [&] {
    const SnapshotPtr latest = server.fanout()->Latest();
    ASSERT_NE(latest, nullptr);
    const auto [it, inserted] = published.emplace(latest->sequence, latest);
    // A sequence is never published twice with different contents.
    EXPECT_EQ(it->second, latest);
  };
  record();

  struct InProcess {
    std::shared_ptr<Subscription> sub;
    StreamChecker checker;
    bool lagging = false;
    bool stalled = false;
    bool gone = false;  // shed (goodbye consumed) or unsubscribed
  };
  std::vector<std::unique_ptr<InProcess>> locals;
  auto add_local = [&](bool lagging) {
    auto local = std::make_unique<InProcess>();
    local->sub = server.pool()->Subscribe();
    local->checker.published = &published;
    local->lagging = lagging;
    locals.push_back(std::move(local));
  };
  auto pump = [&](std::size_t i) {
    InProcess& local = *locals[i];
    const std::string who = "local " + std::to_string(i);
    SharedFrame bytes;
    while (!local.gone && local.sub->TryPop(&bytes)) {
      Frame frame;
      std::size_t consumed = 0;
      Status error;
      ASSERT_EQ(TryDecodeFrame(bytes->data(), bytes->size(),
                               kMaxPayloadBytes, &frame, &consumed, &error),
                DecodeResult::kFrame)
          << who;
      ASSERT_EQ(consumed, bytes->size()) << who;
      if (std::holds_alternative<ErrorReply>(frame.body)) {
        EXPECT_TRUE(local.sub->shed()) << who;
        local.gone = true;
      } else {
        local.checker.OnSnapshot(*bytes, frame, who);
      }
    }
  };
  std::vector<std::unique_ptr<RawTcpSubscriber>> tcps;
  auto add_tcp = [&] {
    tcps.push_back(
        std::make_unique<RawTcpSubscriber>(server.port(), &published));
    ASSERT_TRUE(tcps.back()->connected());
    tcps.back()->Send(SubscribeRequest{-1});
  };

  for (int i = 0; i < 4; ++i) add_local(/*lagging=*/i % 2 == 1);
  for (int i = 0; i < 2; ++i) add_tcp();
  locals[0]->sub->StallPops(1 << 30);  // never drains: must be shed
  locals[0]->stalled = true;
  std::vector<QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(*session->Submit(QuerySpec::Synthetic(50.0 + 30.0 * i)));
  }

  Rng rng(20261018);
  for (int step = 0; step < 300; ++step) {
    const auto op = rng.UniformInt(0, 99);
    if (op < 30) {
      ASSERT_TRUE(service.Advance(0.1).ok());
      record();
    } else if (op < 36) {
      service.PublishNow();  // often no row changed: header-only deltas
      record();
    } else if (op < 42) {
      ids.push_back(*session->Submit(
          QuerySpec::Synthetic(rng.Uniform(5.0, 200.0))));
    } else if (op < 48) {
      const QueryId id = ids[rng.UniformInt(0, ids.size() - 1)];
      (void)(rng.UniformInt(0, 1) == 0 ? session->Block(id)
                                        : session->Resume(id));
    } else if (op < 66) {
      // Pump every eager subscriber; laggers only now and then.
      for (std::size_t i = 0; i < locals.size(); ++i) {
        if (!locals[i]->stalled &&
            (!locals[i]->lagging || rng.UniformInt(0, 3) == 0)) {
          pump(i);
        }
      }
    } else if (op < 78) {
      const std::size_t i = rng.UniformInt(0, tcps.size() - 1);
      tcps[i]->Drain(/*timeout_ms=*/rng.UniformInt(0, 2),
                     "tcp " + std::to_string(i));
    } else if (op < 83) {
      add_local(/*lagging=*/rng.UniformInt(0, 1) == 1);
    } else if (op < 85) {
      const std::size_t i = rng.UniformInt(0, locals.size() - 1);
      if (!locals[i]->gone) {
        server.pool()->Unsubscribe(locals[i]->sub);
        locals[i]->gone = true;
      }
    } else if (op < 90) {
      // Same stream again (shard 0 is the unsharded stream's synonym),
      // as a gap-healing client does: it restarts from a full frame.
      tcps[rng.UniformInt(0, tcps.size() - 1)]->Send(
          SubscribeRequest{static_cast<std::int32_t>(rng.UniformInt(-1, 0))});
    } else if (op < 94) {
      RawTcpSubscriber& tcp = *tcps[rng.UniformInt(0, tcps.size() - 1)];
      tcp.Send(UnsubscribeRequest{});
      tcp.Send(SubscribeRequest{-1});
    } else if (op < 96) {
      add_tcp();
    }
  }
  // A sweep that lands mid-publish-burst coalesces the burst into one
  // frame, so how many frames the stalled subscriber holds by now
  // depends on thread scheduling. Publish one sweep at a time, pumping
  // the others, until its bounded queue overflows.
  const auto shed_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!locals[0]->sub->shed() &&
         std::chrono::steady_clock::now() < shed_deadline) {
    const std::uint64_t sweeps = server.pool()->sweeps();
    service.PublishNow();
    record();
    while (server.pool()->sweeps() == sweeps &&
           std::chrono::steady_clock::now() < shed_deadline) {
      std::this_thread::yield();
    }
    for (std::size_t i = 0; i < locals.size(); ++i) {
      if (!locals[i]->stalled) pump(i);
    }
  }
  ASSERT_TRUE(service.Advance(0.1).ok());
  record();
  const SnapshotPtr final_snapshot = service.snapshot();
  ASSERT_EQ(final_snapshot, server.fanout()->Latest());

  int live_locals = 0;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    InProcess& local = *locals[i];
    if (local.stalled) {
      EXPECT_TRUE(local.sub->shed()) << "local " << i;
      continue;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!local.gone && !local.sub->shed() &&
           local.checker.view.sequence() < final_snapshot->sequence &&
           std::chrono::steady_clock::now() < deadline) {
      pump(i);
      std::this_thread::yield();
    }
    pump(i);
    if (local.gone || local.sub->shed()) continue;  // a lagger may shed
    ++live_locals;
    ExpectViewEquals(local.checker.view, *final_snapshot,
                     "local " + std::to_string(i));
  }
  EXPECT_GE(live_locals, 2);
  for (std::size_t i = 0; i < tcps.size(); ++i) {
    const std::string who = "tcp " + std::to_string(i);
    tcps[i]->WaitFor(final_snapshot->sequence, who);
    EXPECT_GT(tcps[i]->frames(), 0) << who;
    ExpectViewEquals(tcps[i]->view(), *final_snapshot, who);
  }
  // Shared frames: far fewer encodes than deliveries.
  EXPECT_LT(server.metrics()->frames_encoded->value(),
            server.metrics()->full_frames->value() +
                server.metrics()->delta_frames->value());
  session->Close();
  server.Stop();
}

TEST(ServerConcurrencyTest, TcpSubscribersDuringTickerPublishes) {
  storage::Catalog catalog;
  PiServiceOptions options = ManualOptions();
  options.start_ticker = true;  // live ticker: publishes race the churn
  options.time_scale = 0.0;
  PiService service(&catalog, options);
  PiServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  auto session = service.OpenSession("loadgen");
  for (int i = 0; i < 8; ++i) {
    (void)session->Submit(QuerySpec::Synthetic(400.0 + 10.0 * i));
  }

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        auto client = Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (!(*client)->Ping().ok() || !(*client)->Subscribe().ok()) {
          failures.fetch_add(1);
          return;
        }
        auto sequence = (*client)->WaitForSequence(1, 5.0);
        if (!sequence.ok()) failures.fetch_add(1);
        if (round % 2 == 0) (void)(*client)->Unsubscribe();
        // Destructor closes mid-stream on odd rounds: the server must
        // reap the connection without disturbing others.
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  session->Close();
  server.Stop();
  service.Stop();
}

// ---- TCP end to end ---------------------------------------------------------

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<PiService>(&catalog_, ManualOptions());
    server_ = std::make_unique<PiServer>(service_.get());
    ASSERT_TRUE(server_->Start().ok());
    auto client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).value();
  }

  void TearDown() override {
    client_.reset();
    server_->Stop();
    service_.reset();
  }

  storage::Catalog catalog_;
  std::unique_ptr<PiService> service_;
  std::unique_ptr<PiServer> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(TcpServerTest, PingSubmitProgressCancelRoundTrip) {
  ASSERT_TRUE(client_->Ping().ok());

  auto id = client_->SubmitSynthetic(500.0);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  service_->PublishNow();

  auto progress = client_->Progress(*id);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress->row.id, *id);
  EXPECT_TRUE(progress->row.state == sched::QueryState::kRunning ||
              progress->row.state == sched::QueryState::kQueued);
  EXPECT_DOUBLE_EQ(progress->row.fraction_done, 0.0);

  // Progress on an unknown id: a Status error, connection survives.
  auto missing = client_->Progress(999999);
  EXPECT_FALSE(missing.ok());
  ASSERT_TRUE(client_->Ping().ok());

  ASSERT_TRUE(client_->Cancel(*id).ok());
  service_->PublishNow();
  auto after = client_->Progress(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->row.state, sched::QueryState::kAborted);
}

TEST_F(TcpServerTest, AbortAndProgressOutsideTheTableGetErrors) {
  auto id = client_->SubmitSynthetic(500.0);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  service_->PublishNow();
  for (const QueryId bad : {QueryId{0}, *id + 1, QueryId{1} << 47}) {
    SCOPED_TRACE(bad);
    EXPECT_TRUE(client_->Cancel(bad).IsNotFound());
    EXPECT_TRUE(client_->Progress(bad).status().IsNotFound());
    ASSERT_TRUE(client_->Ping().ok());  // the server keeps serving
  }
  auto progress = client_->Progress(*id);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress->row.id, *id);
  ASSERT_TRUE(client_->Cancel(*id).ok());
}

TEST_F(TcpServerTest, SqlSubmissionPlansServerSide) {
  auto id = client_->SubmitSql(
      "select count(*) from lineitem where l.quantity > 25");
  // The empty test catalog has no lineitem: either parse or plan may
  // reject it, but always as a Status — never a torn connection.
  if (!id.ok()) {
    EXPECT_NE(id.status().code(), StatusCode::kOk);
  }
  ASSERT_TRUE(client_->Ping().ok());

  auto bad = client_->SubmitSql("selekt garbage frum nowhere");
  EXPECT_FALSE(bad.ok());
  ASSERT_TRUE(client_->Ping().ok());
}

TEST_F(TcpServerTest, SubscribePushesFullThenDeltas) {
  auto a = client_->SubmitSynthetic(300.0);
  auto b = client_->SubmitSynthetic(700.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  service_->PublishNow();
  const std::uint64_t base = service_->snapshot()->sequence;

  ASSERT_TRUE(client_->Subscribe().ok());
  auto seq = client_->WaitForSequence(base, 5.0);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(client_->view().rows(), 2u);
  EXPECT_EQ(client_->view().fulls_applied(), 1u);

  // Advance simulated time: the subscriber's view converges onto the
  // service's own snapshot through delta frames alone.
  for (int tick = 0; tick < 5; ++tick) {
    ASSERT_TRUE(service_->Advance(0.1).ok());
  }
  const auto latest = service_->snapshot();
  auto final_seq = client_->WaitForSequence(latest->sequence, 5.0);
  ASSERT_TRUE(final_seq.ok()) << final_seq.status().ToString();
  EXPECT_GE(client_->view().deltas_applied(), 1u);

  for (const auto& row : latest->queries) {
    const auto* got = client_->view().Find(row.id);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(got->fraction_done, row.fraction_done);
    EXPECT_EQ(got->state, row.state);
  }

  ASSERT_TRUE(client_->Unsubscribe().ok());
}

// A repeat SUBSCRIBE on the same stream restarts it from a full frame:
// that is how a client heals a gap (ResilientClient resets its view and
// resubscribes). A delta against the connection's old cursor would not
// apply to the reset view.
TEST_F(TcpServerTest, ResubscribeRestartsTheStreamWithAFullFrame) {
  ASSERT_TRUE(client_->SubmitSynthetic(300.0).ok());
  ASSERT_TRUE(client_->Subscribe().ok());
  ASSERT_TRUE(service_->Advance(0.1).ok());
  auto seq = client_->WaitForSequence(service_->snapshot()->sequence, 5.0);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(client_->view().fulls_applied(), 1u);

  client_->mutable_view()->Reset();
  const Status resubscribed = client_->Subscribe();
  ASSERT_TRUE(resubscribed.ok()) << resubscribed.ToString();
  ASSERT_TRUE(service_->Advance(0.1).ok());
  seq = client_->WaitForSequence(service_->snapshot()->sequence, 5.0);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(client_->view().fulls_applied(), 2u);
  EXPECT_EQ(client_->view().rows(), 1u);
}

TEST_F(TcpServerTest, WhatIfAnswersOverTheWire) {
  auto target = client_->SubmitSynthetic(500.0);
  auto rival = client_->SubmitSynthetic(500.0);
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(rival.ok());
  ASSERT_TRUE(service_->Advance(0.1).ok());

  WhatIfRequest baseline;
  baseline.target = *target;
  auto eta_shared = client_->WhatIf(baseline);
  ASSERT_TRUE(eta_shared.ok()) << eta_shared.status().ToString();

  WhatIfRequest solo;
  solo.target = *target;
  solo.aborted.push_back(*rival);
  auto eta_solo = client_->WhatIf(solo);
  ASSERT_TRUE(eta_solo.ok()) << eta_solo.status().ToString();
  // Killing the rival can only help the target.
  EXPECT_LE(*eta_solo, *eta_shared + 1e-9);

  WhatIfRequest absurd;
  absurd.target = 424242;
  EXPECT_FALSE(client_->WhatIf(absurd).ok());
}

TEST_F(TcpServerTest, GarbageBytesGetErrorFrameThenClose) {
  // Speak raw garbage on a fresh socket.
  auto raw = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  std::string garbage(64, '\xFF');
  // Reuse Call's plumbing is impossible (it frames correctly), so poke
  // the view: send via a throwaway Ping first to prove liveness, then
  // the garbage through the public API is not expressible — use a
  // second socket directly instead.
  ASSERT_TRUE((*raw)->Ping().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
  // The server answers with one ERROR frame and closes.
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(reply.data(), reply.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kFrame);
  const auto* goodbye = std::get_if<ErrorReply>(&decoded.body);
  ASSERT_NE(goodbye, nullptr);
  EXPECT_FALSE(goodbye->ToStatus().ok());
  // The well-behaved connection was untouched.
  EXPECT_TRUE((*raw)->Ping().ok());
}

TEST_F(TcpServerTest, ConnectionMetricsTrackLifecycles) {
  // A round trip guarantees the loop has accepted SetUp's connection.
  ASSERT_TRUE(client_->Ping().ok());
  EXPECT_EQ(server_->metrics()->connections->value(), 1.0);
  {
    auto second = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE((*second)->Ping().ok());
    EXPECT_EQ(server_->metrics()->connections->value(), 2.0);
  }
  // Destructor closed the socket; the loop reaps it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->metrics()->connections->value() > 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->metrics()->connections->value(), 1.0);
  // One PONG went out (SetUp's client never spoke).
  EXPECT_GE(server_->metrics()->frames_sent->value(), 1u);
  EXPECT_GE(server_->metrics()->bytes_sent->value(), kFrameHeaderBytes);
}

// ---- publish hook -----------------------------------------------------------

TEST(PublishHookTest, HookSeesEveryPublishAndDetachesCleanly) {
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  std::vector<std::uint64_t> seen;
  service.SetPublishHook([&](const SnapshotPtr& snapshot) {
    seen.push_back(snapshot->sequence);
  });
  auto session = service.OpenSession();
  (void)session->Submit(QuerySpec::Synthetic(100.0));
  service.PublishNow();
  ASSERT_TRUE(service.Advance(0.3).ok());
  ASSERT_FALSE(seen.empty());
  // Strictly increasing by 1: the hook never misses or reorders.
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] + 1);
  }
  service.SetPublishHook(nullptr);
  const auto count = seen.size();
  service.PublishNow();
  EXPECT_EQ(seen.size(), count);  // detached
}

// ---- chaos (deterministic fault injection) ----------------------------------

TEST(NetChaosTest, SlowConsumerFaultStreamIsSeedReplayable) {
  // Drive Subscription + injector by hand: with the same seed the
  // kNetSlowConsumer stream must stall the same delivery indices, so
  // the shed lands on the same publish in both runs.
  auto run = [](std::uint64_t seed) {
    fault::FaultInjector injector(seed);
    injector.ArmProbability(fault::kNetSlowConsumer, 0.2);
    service::MetricsRegistry registry;
    NetMetrics metrics(&registry);
    Subscription::Options options;
    options.max_queued_frames = 3;
    Subscription subscription(options);
    SnapshotFanout fanout;
    DeliveryTally tally;
    int shed_at = -1;
    SharedFrame bytes;
    for (int i = 0; i < 200; ++i) {
      if (injector.ShouldFire(fault::kNetSlowConsumer)) {
        subscription.StallPops(2);
      }
      fanout.Publish(MakeSnapshot(static_cast<std::uint64_t>(i + 1),
                                  {Row(1, 0.001 * i)}));
      FrameLookup frames(&fanout, fanout.Latest());
      if (!subscription.Deliver(&frames, &tally, &metrics)) {
        shed_at = i;
        break;
      }
      (void)subscription.TryPop(&bytes);  // drains unless stalled
    }
    return shed_at;
  };
  const int first = run(0xABCDEFu);
  const int second = run(0xABCDEFu);
  EXPECT_EQ(first, second);
  EXPECT_GE(first, 0);  // the fault actually drove a shed
  // A different seed gives a different (still deterministic) story.
  const int other = run(0x123456u);
  EXPECT_EQ(other, run(0x123456u));
}

TEST(NetChaosTest, ServerSurvivesAllNetFaultsUnderLoad) {
  fault::FaultInjector injector(0xC4A05u);
  injector.ArmProbability(fault::kNetAcceptFail, 0.15);
  injector.ArmProbability(fault::kNetPartialWrite, 0.3, /*value=*/3);
  injector.ArmProbability(fault::kNetSlowConsumer, 0.05);
  injector.ArmProbability(fault::kNetConnDrop, 0.05);

  storage::Catalog catalog;
  PiServiceOptions options = ManualOptions();
  options.fault = &injector;
  PiService service(&catalog, options);
  PiServerOptions server_options;
  server_options.fault = &injector;
  server_options.write_queue_max_frames = 8;
  PiServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto session = service.OpenSession("chaos-load");
  for (int i = 0; i < 6; ++i) {
    (void)session->Submit(QuerySpec::Synthetic(200.0 + 25.0 * i));
  }

  // Clients hammer the server while faults fire; every outcome must be
  // a Status or a closed connection — never a crash or a hang.
  int ok_rounds = 0;
  for (int round = 0; round < 30; ++round) {
    auto client = Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) continue;  // accept faults legitimately refuse
    bool alive = (*client)->Ping().ok();
    if (alive && (*client)->Subscribe().ok()) {
      (void)(*client)->WaitForSequence(service.snapshot()->sequence, 1.0);
    }
    ASSERT_TRUE(service.Advance(0.1).ok());
    if (alive) ++ok_rounds;
  }
  EXPECT_GT(ok_rounds, 0);

  // In-process subscribers take kNetSlowConsumer / kNetConnDrop hits.
  std::vector<std::shared_ptr<Subscription>> subs;
  for (int i = 0; i < 16; ++i) subs.push_back(server.pool()->Subscribe());
  for (int tick = 0; tick < 40; ++tick) {
    ASSERT_TRUE(service.Advance(0.1).ok());
  }

  injector.DisarmAll();
  // Drain back to health: new clients work, estimates stay sane.
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  for (const auto& row : service.snapshot()->queries) {
    EXPECT_FALSE(std::isnan(row.fraction_done));
  }
  EXPECT_GT(injector.total_fires(), 0u);

  session->Close();
  server.Stop();
}

}  // namespace
}  // namespace mqpi::net
