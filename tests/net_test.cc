// Transport-layer tests: wire framing round trips, totality of the
// decoders on garbage/truncated input (property-style, deterministic), the
// payload codecs of cluster/protocol.h, real-TCP frame exchange with
// deadlines, and the fault-injection seam. The framing invariant under
// test everywhere: a frame either decodes exactly or is rejected whole —
// no partial effect, no crash, no silent acceptance of corrupt bytes.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/protocol.h"
#include "net/fault.h"
#include "net/frame_conn.h"
#include "net/socket.h"
#include "net/wire.h"

// While non-zero, the largest single heap allocation a test allows: a
// larger request throws std::bad_alloc instead of being attempted. The
// decoder fuzz below sets it, so a decoder that honours a lying count
// fails the test instead of exhausting memory.
static std::atomic<size_t> g_alloc_limit{0};

void* operator new(size_t n) {
  const size_t limit = g_alloc_limit.load(std::memory_order_relaxed);
  if (limit != 0 && n > limit) throw std::bad_alloc();
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs this free() with an inlined
// operator new and warns about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace zeus {
namespace {

// Deterministic byte generator (no std::random — identical on every
// platform and run).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint8_t Byte() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state_ >> 33);
  }
  std::string Bytes(size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(Byte());
    return s;
  }

 private:
  uint64_t state_;
};

std::string BodyOf(const net::Frame& frame) {
  // EncodeFrame emits the 4-byte length prefix + body; DecodeFrameBody
  // consumes the body.
  return net::EncodeFrame(frame).substr(4);
}

// ---- Framing ---------------------------------------------------------------

TEST(WireTest, FrameRoundTripsEveryTypeAndPayloadSize) {
  Lcg lcg(7);
  const net::FrameType types[] = {
      net::FrameType::kPing,      net::FrameType::kExecute,
      net::FrameType::kSubmit,    net::FrameType::kCancel,
      net::FrameType::kStats,     net::FrameType::kRegisterDataset,
      net::FrameType::kTicketState, net::FrameType::kTicketWait,
      net::FrameType::kRemoveDataset, net::FrameType::kSyncPlans,
      net::FrameType::kEpochQuery, net::FrameType::kPong,
      net::FrameType::kOk,        net::FrameType::kError,
      net::FrameType::kResult,    net::FrameType::kStatsReply,
      net::FrameType::kSubmitReply, net::FrameType::kTicketStateReply,
      net::FrameType::kRegisterReply, net::FrameType::kSyncReply,
      net::FrameType::kEpochReply, net::FrameType::kAppendFrames,
      net::FrameType::kSubscribe, net::FrameType::kStreamPoll,
      net::FrameType::kUnsubscribe, net::FrameType::kAppendReply,
      net::FrameType::kSubscribeReply, net::FrameType::kStreamResult};
  for (net::FrameType type : types) {
    for (size_t payload_size : {0u, 1u, 7u, 255u, 4096u}) {
      net::Frame in;
      in.type = type;
      in.request_id = lcg.Byte() * 1000003ull + payload_size;
      in.payload = lcg.Bytes(payload_size);
      net::Frame out;
      ASSERT_TRUE(net::DecodeFrameBody(BodyOf(in), &out).ok())
          << net::FrameTypeName(type) << " size " << payload_size;
      EXPECT_EQ(out.type, in.type);
      EXPECT_EQ(out.request_id, in.request_id);
      EXPECT_EQ(out.payload, in.payload);
    }
  }
}

TEST(WireTest, EveryTruncationIsRejected) {
  net::Frame frame;
  frame.type = net::FrameType::kExecute;
  frame.request_id = 42;
  frame.payload = Lcg(11).Bytes(64);
  const std::string body = BodyOf(frame);
  for (size_t len = 0; len < body.size(); ++len) {
    net::Frame out;
    EXPECT_FALSE(net::DecodeFrameBody(body.substr(0, len), &out).ok())
        << "prefix of length " << len << " decoded";
  }
}

TEST(WireTest, EverySingleByteFlipIsRejected) {
  net::Frame frame;
  frame.type = net::FrameType::kResult;
  frame.request_id = 7;
  frame.payload = Lcg(13).Bytes(48);
  const std::string body = BodyOf(frame);
  for (size_t i = 0; i < body.size(); ++i) {
    for (uint8_t flip : {0x01, 0x80}) {
      std::string corrupt = body;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      net::Frame out;
      EXPECT_FALSE(net::DecodeFrameBody(corrupt, &out).ok())
          << "flip 0x" << std::hex << int(flip) << " at byte " << std::dec
          << i << " accepted";
    }
  }
}

TEST(WireTest, GarbageNeverCrashesTheDecoder) {
  Lcg lcg(17);
  for (int round = 0; round < 500; ++round) {
    const std::string garbage = lcg.Bytes(round % 97);
    net::Frame out;
    net::DecodeFrameBody(garbage, &out);  // must not crash; result unused
  }
}

TEST(WireTest, WrongVersionIsRejected) {
  net::Frame frame;
  frame.type = net::FrameType::kPing;
  std::string body = BodyOf(frame);
  body[0] = static_cast<char>(net::kWireVersion + 1);
  net::Frame out;
  EXPECT_FALSE(net::DecodeFrameBody(body, &out).ok());
}

TEST(WireTest, IdempotencyClassification) {
  // The retry contract hangs off this classification; pin it.
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kPing));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kCancel));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kStats));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kRegisterDataset));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kTicketState));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kRemoveDataset));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kSyncPlans));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kEpochQuery));
  // The stream set is idempotent BY CONSTRUCTION (absolute append targets,
  // caller-chosen subscription ids, explicit poll cursors) — that is what
  // lets a lost response retry through a failover.
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kAppendFrames));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kSubscribe));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kStreamPoll));
  EXPECT_TRUE(net::IsIdempotent(net::FrameType::kUnsubscribe));
  EXPECT_FALSE(net::IsIdempotent(net::FrameType::kExecute));
  EXPECT_FALSE(net::IsIdempotent(net::FrameType::kSubmit));
  EXPECT_FALSE(net::IsIdempotent(net::FrameType::kTicketWait));
}

TEST(WireTest, ReaderRejectsLyingStringLength) {
  net::WireWriter w;
  w.U32(1u << 30);  // claims a 1GB string in a 4-byte buffer
  net::WireReader r(w.str());
  std::string s;
  EXPECT_FALSE(r.Str(&s));
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, F64RoundTripsExactBits) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-308, 1e308, -123.456};
  net::WireWriter w;
  for (double v : values) w.F64(v);
  net::WireReader r(w.str());
  for (double v : values) {
    double out = 0;
    ASSERT_TRUE(r.F64(&out));
    uint64_t a, b;
    std::memcpy(&a, &v, 8);
    std::memcpy(&b, &out, 8);
    EXPECT_EQ(a, b);
  }
  EXPECT_TRUE(r.AtEnd());
}

// ---- Protocol payload codecs ----------------------------------------------

TEST(ProtocolTest, DatasetSpecRoundTrip) {
  cluster::DatasetSpec in;
  in.name = "bdd-sliced";
  in.family = video::DatasetFamily::kKittiLike;
  in.seed = 9917;
  in.num_videos = 28;
  in.frames_per_video = 400;
  in.native_resolution = 720;
  in.warm_plans = false;
  in.epoch = 41;
  cluster::DatasetSpec out;
  ASSERT_TRUE(cluster::DecodeDatasetSpec(cluster::EncodeDatasetSpec(in), &out));
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.family, in.family);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.num_videos, in.num_videos);
  EXPECT_EQ(out.frames_per_video, in.frames_per_video);
  EXPECT_EQ(out.native_resolution, in.native_resolution);
  EXPECT_EQ(out.warm_plans, in.warm_plans);
  EXPECT_EQ(out.epoch, in.epoch);
}

TEST(ProtocolTest, QueryResultRoundTripIsBitExact) {
  engine::QueryResult in;
  in.segments = {{0, 10, 25}, {3, 0, 7}, {11, 99, 400}};
  in.metrics.tp = 120;
  in.metrics.fp = 4;
  in.metrics.fn = 9;
  in.metrics.tn = 10000;
  in.metrics.precision = 120.0 / 124.0;
  in.metrics.recall = 120.0 / 129.0;
  in.metrics.f1 = 0.9487179487179487;
  in.throughput_fps = 12345.6789;
  in.gpu_seconds = 1.0 / 3.0;
  in.wall_seconds = 2.718281828459045;
  in.plan_seconds = 0.0;
  in.executor = "Zeus-RL-Batched";
  in.explanation = "";
  in.consistency = engine::Consistency::kDegraded;
  in.divergence = "shard 2 served epoch 1, committed epoch is 3";
  in.epoch = 1;
  in.tier = core::QueryTier::kBestEffort;
  in.accuracy_band = 0.75;
  in.achieved_confidence = 0.8123456789012345;
  in.budget_exhausted = true;
  in.window_begin = 120;
  in.window_end = 520;
  in.frame_epoch = 6;
  engine::QueryResult out;
  ASSERT_TRUE(
      cluster::DecodeQueryResult(cluster::EncodeQueryResult(in), &out));
  EXPECT_TRUE(engine::SameSegments(in, out));
  EXPECT_EQ(out.metrics.tp, in.metrics.tp);
  EXPECT_EQ(out.metrics.tn, in.metrics.tn);
  // Doubles must survive bit-exactly — the cluster's bit-identity promise
  // includes the metrics a client sees.
  EXPECT_EQ(out.metrics.f1, in.metrics.f1);
  EXPECT_EQ(out.wall_seconds, in.wall_seconds);
  EXPECT_EQ(out.executor, in.executor);
  // The consistency annotation is part of the answer, not metadata a relay
  // may drop: it survives the wire exactly.
  EXPECT_EQ(out.consistency, in.consistency);
  EXPECT_EQ(out.divergence, in.divergence);
  EXPECT_EQ(out.epoch, in.epoch);
  // The accuracy annotation is part of the answer too: tier, band and the
  // confidence estimate survive bit-exactly.
  EXPECT_EQ(out.tier, in.tier);
  EXPECT_EQ(out.accuracy_band, in.accuracy_band);
  EXPECT_EQ(out.achieved_confidence, in.achieved_confidence);
  EXPECT_EQ(out.budget_exhausted, in.budget_exhausted);
  // The streaming window annotation is part of the answer too.
  EXPECT_EQ(out.window_begin, in.window_begin);
  EXPECT_EQ(out.window_end, in.window_end);
  EXPECT_EQ(out.frame_epoch, in.frame_epoch);

  // An inverted window is a contract violation, rejected whole.
  in.window_begin = 10;
  in.window_end = 3;
  EXPECT_FALSE(
      cluster::DecodeQueryResult(cluster::EncodeQueryResult(in), &out));
}

TEST(ProtocolTest, ExecRequestCarriesAccuracyBudget) {
  cluster::ExecRequest in;
  in.dataset = "bdd";
  in.sql = "SELECT 1";
  in.priority = 3;
  in.tier = core::QueryTier::kBalanced;
  in.min_accuracy = 0.7;
  in.max_latency_budget = 12.5;
  cluster::ExecRequest out;
  ASSERT_TRUE(
      cluster::DecodeExecRequest(cluster::EncodeExecRequest(in), &out));
  EXPECT_EQ(out.dataset, in.dataset);
  EXPECT_EQ(out.sql, in.sql);
  EXPECT_EQ(out.priority, in.priority);
  EXPECT_EQ(out.tier, in.tier);
  EXPECT_EQ(out.min_accuracy, in.min_accuracy);
  EXPECT_EQ(out.max_latency_budget, in.max_latency_budget);

  // An out-of-range tier byte is rejected whole. The tier byte sits right
  // after the i32 priority: str + str + i32 + u8 + f64 + f64.
  std::string payload = cluster::EncodeExecRequest(in);
  payload[payload.size() - 17] = 9;
  EXPECT_FALSE(cluster::DecodeExecRequest(payload, &out));
}

TEST(ProtocolTest, QueryResultRejectsContradictoryConsistency) {
  // kCertain with a divergence reason is a contract violation — the decoder
  // refuses it rather than letting one end claim certainty and explain
  // divergence at the same time.
  engine::QueryResult in;
  in.segments = {{0, 1, 2}};
  in.consistency = engine::Consistency::kCertain;
  in.divergence = "should not be here";
  engine::QueryResult out;
  EXPECT_FALSE(
      cluster::DecodeQueryResult(cluster::EncodeQueryResult(in), &out));
  // An out-of-range consistency byte is rejected whole. The trailer after
  // the consistency byte is str(4) + u64 epoch + f64 confidence + f64 band
  // + u8 tier + u8 budget_exhausted + i64 window_begin + i64 window_end +
  // u64 frame_epoch = 54 bytes.
  in.divergence.clear();
  std::string payload = cluster::EncodeQueryResult(in);
  const std::string tail = payload.substr(payload.size() - 55);
  payload[payload.size() - 55] = 5;  // consistency byte
  ASSERT_EQ(tail[0], 0);  // we really did point at the consistency byte
  EXPECT_FALSE(cluster::DecodeQueryResult(payload, &out));
  // Same for the tier byte and the budget flag, which sit just ahead of
  // the 24-byte window trailer.
  payload = cluster::EncodeQueryResult(in);
  payload[payload.size() - 26] = 7;
  EXPECT_FALSE(cluster::DecodeQueryResult(payload, &out));
  payload = cluster::EncodeQueryResult(in);
  payload[payload.size() - 25] = 2;
  EXPECT_FALSE(cluster::DecodeQueryResult(payload, &out));
}

TEST(ProtocolTest, SyncAndEpochCodecsRoundTrip) {
  cluster::SyncPlansRequest sync_in;
  sync_in.name = "bdd";
  sync_in.epoch = 7;
  cluster::SyncPlansRequest sync_out;
  ASSERT_TRUE(
      cluster::DecodeSyncPlans(cluster::EncodeSyncPlans(sync_in), &sync_out));
  EXPECT_EQ(sync_out.name, sync_in.name);
  EXPECT_EQ(sync_out.epoch, sync_in.epoch);

  cluster::SyncReply sr_in;
  sr_in.plans_warmed = 3;
  sr_in.epoch = 7;
  cluster::SyncReply sr_out;
  ASSERT_TRUE(
      cluster::DecodeSyncReply(cluster::EncodeSyncReply(sr_in), &sr_out));
  EXPECT_EQ(sr_out.plans_warmed, sr_in.plans_warmed);
  EXPECT_EQ(sr_out.epoch, sr_in.epoch);

  cluster::EpochReply ep_in;
  ep_in.epoch = 12;
  ep_in.has_dataset = true;
  cluster::EpochReply ep_out;
  ASSERT_TRUE(
      cluster::DecodeEpochReply(cluster::EncodeEpochReply(ep_in), &ep_out));
  EXPECT_EQ(ep_out.epoch, ep_in.epoch);
  EXPECT_EQ(ep_out.has_dataset, ep_in.has_dataset);

  // A sync request for the empty dataset name is malformed by definition.
  cluster::SyncPlansRequest empty;
  EXPECT_FALSE(
      cluster::DecodeSyncPlans(cluster::EncodeSyncPlans(empty), &sync_out));
}

TEST(ProtocolTest, StreamCodecsRoundTrip) {
  // kAppendFrames: the two mutually exclusive forms. Absolute (shard-bound,
  // replayable) round-trips; so does the router-only relative form; a frame
  // carrying BOTH or NEITHER is malformed by definition.
  cluster::AppendFramesRequest ap_in;
  ap_in.name = "stream";
  ap_in.target_frames = 1664;
  ap_in.epoch = 9;
  cluster::AppendFramesRequest ap_out;
  ASSERT_TRUE(
      cluster::DecodeAppendFrames(cluster::EncodeAppendFrames(ap_in), &ap_out));
  EXPECT_EQ(ap_out.name, ap_in.name);
  EXPECT_EQ(ap_out.target_frames, ap_in.target_frames);
  EXPECT_EQ(ap_out.relative_frames, 0u);
  EXPECT_EQ(ap_out.epoch, ap_in.epoch);

  cluster::AppendFramesRequest rel;
  rel.name = "stream";
  rel.relative_frames = 64;
  ASSERT_TRUE(
      cluster::DecodeAppendFrames(cluster::EncodeAppendFrames(rel), &ap_out));
  EXPECT_EQ(ap_out.relative_frames, 64u);
  EXPECT_EQ(ap_out.target_frames, 0u);

  cluster::AppendFramesRequest both = ap_in;
  both.relative_frames = 64;
  EXPECT_FALSE(
      cluster::DecodeAppendFrames(cluster::EncodeAppendFrames(both), &ap_out));
  cluster::AppendFramesRequest neither;
  neither.name = "stream";
  EXPECT_FALSE(cluster::DecodeAppendFrames(cluster::EncodeAppendFrames(neither),
                                           &ap_out));
  cluster::AppendFramesRequest unnamed = ap_in;
  unnamed.name.clear();
  EXPECT_FALSE(cluster::DecodeAppendFrames(cluster::EncodeAppendFrames(unnamed),
                                           &ap_out));

  cluster::AppendReply ar_in;
  ar_in.frame_epoch = 9;
  ar_in.stream_length = 1664;
  ar_in.appended = 64;
  cluster::AppendReply ar_out;
  ASSERT_TRUE(
      cluster::DecodeAppendReply(cluster::EncodeAppendReply(ar_in), &ar_out));
  EXPECT_EQ(ar_out.frame_epoch, ar_in.frame_epoch);
  EXPECT_EQ(ar_out.stream_length, ar_in.stream_length);
  EXPECT_EQ(ar_out.appended, ar_in.appended);
  // appended > stream_length is arithmetic nonsense, rejected whole.
  ar_in.appended = 2000;
  EXPECT_FALSE(
      cluster::DecodeAppendReply(cluster::EncodeAppendReply(ar_in), &ar_out));

  cluster::SubscribeRequest sub_in;
  sub_in.dataset = "stream";
  sub_in.sql = "SELECT frames WHERE class = 'car'";
  sub_in.sub_id = 41;
  sub_in.window_frames = 400;
  sub_in.max_buffered = 8;
  sub_in.tier = core::QueryTier::kBalanced;
  sub_in.min_accuracy = 0.8;
  sub_in.max_latency_budget = 2.5;
  cluster::SubscribeRequest sub_out;
  ASSERT_TRUE(cluster::DecodeSubscribeRequest(
      cluster::EncodeSubscribeRequest(sub_in), &sub_out));
  EXPECT_EQ(sub_out.dataset, sub_in.dataset);
  EXPECT_EQ(sub_out.sql, sub_in.sql);
  EXPECT_EQ(sub_out.sub_id, sub_in.sub_id);
  EXPECT_EQ(sub_out.window_frames, sub_in.window_frames);
  EXPECT_EQ(sub_out.max_buffered, sub_in.max_buffered);
  EXPECT_EQ(sub_out.tier, sub_in.tier);
  EXPECT_EQ(sub_out.min_accuracy, sub_in.min_accuracy);
  EXPECT_EQ(sub_out.max_latency_budget, sub_in.max_latency_budget);
  // sub_id 0 is legal on the wire (router-assigned id); the shard handler
  // is what rejects it there.
  sub_in.sub_id = 0;
  EXPECT_TRUE(cluster::DecodeSubscribeRequest(
      cluster::EncodeSubscribeRequest(sub_in), &sub_out));
  sub_in.sub_id = 41;
  sub_in.sql.clear();
  EXPECT_FALSE(cluster::DecodeSubscribeRequest(
      cluster::EncodeSubscribeRequest(sub_in), &sub_out));

  cluster::SubscribeReply sr_in;
  sr_in.sub_id = 41;
  sr_in.frame_epoch = 3;
  sr_in.attached_existing = true;
  cluster::SubscribeReply sr_out;
  ASSERT_TRUE(cluster::DecodeSubscribeReply(
      cluster::EncodeSubscribeReply(sr_in), &sr_out));
  EXPECT_EQ(sr_out.sub_id, sr_in.sub_id);
  EXPECT_EQ(sr_out.frame_epoch, sr_in.frame_epoch);
  EXPECT_EQ(sr_out.attached_existing, sr_in.attached_existing);

  cluster::StreamPollRequest poll_in;
  poll_in.sub_id = 41;
  poll_in.after_seq = 6;
  poll_in.timeout_ms = 750;
  cluster::StreamPollRequest poll_out;
  ASSERT_TRUE(
      cluster::DecodeStreamPoll(cluster::EncodeStreamPoll(poll_in), &poll_out));
  EXPECT_EQ(poll_out.sub_id, poll_in.sub_id);
  EXPECT_EQ(poll_out.after_seq, poll_in.after_seq);
  EXPECT_EQ(poll_out.timeout_ms, poll_in.timeout_ms);

  // kStreamResult nests a full QueryResult — the incremental answer crosses
  // the wire bit-exactly, window annotation included.
  cluster::StreamResultMsg msg_in;
  msg_in.seq = 7;
  msg_in.dropped = 2;
  msg_in.result.segments = {{0, 10, 25}, {3, 0, 7}};
  msg_in.result.metrics.f1 = 0.9487179487179487;
  msg_in.result.wall_seconds = 2.718281828459045;
  msg_in.result.epoch = 9;
  msg_in.result.window_begin = 1264;
  msg_in.result.window_end = 1664;
  msg_in.result.frame_epoch = 9;
  cluster::StreamResultMsg msg_out;
  ASSERT_TRUE(cluster::DecodeStreamResult(cluster::EncodeStreamResult(msg_in),
                                          &msg_out));
  EXPECT_EQ(msg_out.seq, msg_in.seq);
  EXPECT_EQ(msg_out.dropped, msg_in.dropped);
  EXPECT_TRUE(engine::SameSegments(msg_in.result, msg_out.result));
  EXPECT_EQ(msg_out.result.metrics.f1, msg_in.result.metrics.f1);
  EXPECT_EQ(msg_out.result.wall_seconds, msg_in.result.wall_seconds);
  EXPECT_EQ(msg_out.result.window_begin, msg_in.result.window_begin);
  EXPECT_EQ(msg_out.result.window_end, msg_in.result.window_end);
  EXPECT_EQ(msg_out.result.frame_epoch, msg_in.result.frame_epoch);
  // seq 0 never names a published update.
  msg_in.seq = 0;
  EXPECT_FALSE(cluster::DecodeStreamResult(cluster::EncodeStreamResult(msg_in),
                                           &msg_out));
}

TEST(ProtocolTest, StatsReplyCarriesStreamCounters) {
  // The stream counters are the newest StatsReply fields — a lossy codec
  // here would zero every cluster /metrics stream family silently.
  cluster::StatsReply in;
  in.stats.appends = 5;
  in.stats.appended_frames = 320;
  in.stats.subscribes = 2;
  in.stats.unsubscribes = 1;
  in.stats.stream_results = 12;
  in.stats.stream_dropped = 3;
  in.stats.feature_hits = 30;
  in.stats.feature_misses = 6;
  in.stats.feature_evictions = 2;
  cluster::StatsReply out;
  ASSERT_TRUE(cluster::DecodeStatsReply(cluster::EncodeStatsReply(in), &out));
  EXPECT_EQ(out.stats.appends, in.stats.appends);
  EXPECT_EQ(out.stats.appended_frames, in.stats.appended_frames);
  EXPECT_EQ(out.stats.subscribes, in.stats.subscribes);
  EXPECT_EQ(out.stats.unsubscribes, in.stats.unsubscribes);
  EXPECT_EQ(out.stats.stream_results, in.stats.stream_results);
  EXPECT_EQ(out.stats.stream_dropped, in.stats.stream_dropped);
  EXPECT_EQ(out.stats.feature_hits, in.stats.feature_hits);
  EXPECT_EQ(out.stats.feature_misses, in.stats.feature_misses);
  EXPECT_EQ(out.stats.feature_evictions, in.stats.feature_evictions);
}

TEST(ProtocolTest, DecodersAreTotalOnTruncationsAndGarbage) {
  cluster::DatasetSpec spec;
  spec.name = "d";
  cluster::ExecRequest exec;
  exec.dataset = "d";
  exec.sql = "SELECT 1";
  engine::QueryResult result;
  result.segments = {{1, 2, 3}};
  cluster::StatsReply stats;
  stats.stats.shard = 2;
  stats.stats.datasets.resize(2);
  stats.stats.datasets[0].dataset = "a";
  stats.stats.datasets[1].dataset = "b";

  cluster::SyncPlansRequest sync;
  sync.name = "d";
  sync.epoch = 3;
  cluster::SyncReply sync_reply;
  sync_reply.plans_warmed = 1;
  sync_reply.epoch = 3;
  cluster::EpochReply epoch_reply;
  epoch_reply.epoch = 3;
  epoch_reply.has_dataset = true;

  cluster::AppendFramesRequest append;
  append.name = "d";
  append.target_frames = 500;
  append.epoch = 2;
  cluster::AppendReply append_reply;
  append_reply.frame_epoch = 2;
  append_reply.stream_length = 500;
  append_reply.appended = 100;
  cluster::SubscribeRequest subscribe;
  subscribe.dataset = "d";
  subscribe.sql = "SELECT 1";
  subscribe.sub_id = 5;
  cluster::SubscribeReply subscribe_reply;
  subscribe_reply.sub_id = 5;
  subscribe_reply.frame_epoch = 2;
  cluster::StreamPollRequest stream_poll;
  stream_poll.sub_id = 5;
  stream_poll.after_seq = 1;
  cluster::StreamResultMsg stream_result;
  stream_result.seq = 2;
  stream_result.result = result;

  const std::string payloads[] = {
      cluster::EncodeDatasetSpec(spec), cluster::EncodeExecRequest(exec),
      cluster::EncodeQueryResult(result), cluster::EncodeStatsReply(stats),
      cluster::EncodeTicketId(77), cluster::EncodeSyncPlans(sync),
      cluster::EncodeSyncReply(sync_reply),
      cluster::EncodeEpochReply(epoch_reply),
      cluster::EncodeAppendFrames(append),
      cluster::EncodeAppendReply(append_reply),
      cluster::EncodeSubscribeRequest(subscribe),
      cluster::EncodeSubscribeReply(subscribe_reply),
      cluster::EncodeStreamPoll(stream_poll),
      cluster::EncodeStreamResult(stream_result)};
  for (const std::string& payload : payloads) {
    for (size_t len = 0; len < payload.size(); ++len) {
      const std::string prefix = payload.substr(0, len);
      cluster::DatasetSpec s;
      cluster::ExecRequest e;
      engine::QueryResult r;
      cluster::StatsReply st;
      uint64_t id = 0;
      cluster::SyncPlansRequest sp;
      cluster::SyncReply srp;
      cluster::EpochReply ep;
      cluster::AppendFramesRequest af;
      cluster::AppendReply afr;
      cluster::SubscribeRequest sq;
      cluster::SubscribeReply sqr;
      cluster::StreamPollRequest spl;
      cluster::StreamResultMsg srm;
      EXPECT_FALSE(cluster::DecodeDatasetSpec(prefix, &s) &&
                   cluster::DecodeExecRequest(prefix, &e) &&
                   cluster::DecodeQueryResult(prefix, &r) &&
                   cluster::DecodeStatsReply(prefix, &st) &&
                   cluster::DecodeTicketId(prefix, &id) &&
                   cluster::DecodeSyncPlans(prefix, &sp) &&
                   cluster::DecodeSyncReply(prefix, &srp) &&
                   cluster::DecodeEpochReply(prefix, &ep) &&
                   cluster::DecodeAppendFrames(prefix, &af) &&
                   cluster::DecodeAppendReply(prefix, &afr) &&
                   cluster::DecodeSubscribeRequest(prefix, &sq) &&
                   cluster::DecodeSubscribeReply(prefix, &sqr) &&
                   cluster::DecodeStreamPoll(prefix, &spl) &&
                   cluster::DecodeStreamResult(prefix, &srm));
    }
    // Trailing junk is also rejected (AtEnd discipline).
    cluster::DatasetSpec s;
    EXPECT_FALSE(cluster::DecodeDatasetSpec(payload + "x", &s));
    cluster::SyncPlansRequest sp;
    EXPECT_FALSE(cluster::DecodeSyncPlans(payload + "x", &sp));
  }
  // The replication frames are small and fixed-shape: every strict prefix
  // must be rejected by the frame's OWN decoder, not just the weak
  // all-decoders conjunction above.
  {
    const std::string p = cluster::EncodeSyncPlans(sync);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::SyncPlansRequest sp;
      EXPECT_FALSE(cluster::DecodeSyncPlans(p.substr(0, len), &sp))
          << "SyncPlans prefix of length " << len << " decoded";
    }
  }
  {
    const std::string p = cluster::EncodeSyncReply(sync_reply);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::SyncReply srp;
      EXPECT_FALSE(cluster::DecodeSyncReply(p.substr(0, len), &srp))
          << "SyncReply prefix of length " << len << " decoded";
    }
  }
  {
    const std::string p = cluster::EncodeEpochReply(epoch_reply);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::EpochReply ep;
      EXPECT_FALSE(cluster::DecodeEpochReply(p.substr(0, len), &ep))
          << "EpochReply prefix of length " << len << " decoded";
    }
    // has_dataset is a strict bool on the wire: 2 is rejected, not coerced.
    // It sits ahead of the trailing u64 stream_length.
    std::string bogus = p;
    bogus[bogus.size() - 9] = 2;
    cluster::EpochReply ep;
    EXPECT_FALSE(cluster::DecodeEpochReply(bogus, &ep));
  }
  // The stream codecs get their own strict-prefix sweep too: every one of
  // them crosses process boundaries during a failover, where a torn frame
  // is the NORMAL case, not the exotic one.
  {
    const std::string p = cluster::EncodeAppendFrames(append);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::AppendFramesRequest af;
      EXPECT_FALSE(cluster::DecodeAppendFrames(p.substr(0, len), &af))
          << "AppendFrames prefix of length " << len << " decoded";
    }
  }
  {
    const std::string p = cluster::EncodeAppendReply(append_reply);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::AppendReply afr;
      EXPECT_FALSE(cluster::DecodeAppendReply(p.substr(0, len), &afr))
          << "AppendReply prefix of length " << len << " decoded";
    }
  }
  {
    const std::string p = cluster::EncodeSubscribeRequest(subscribe);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::SubscribeRequest sq;
      EXPECT_FALSE(cluster::DecodeSubscribeRequest(p.substr(0, len), &sq))
          << "SubscribeRequest prefix of length " << len << " decoded";
    }
  }
  {
    const std::string p = cluster::EncodeStreamPoll(stream_poll);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::StreamPollRequest spl;
      EXPECT_FALSE(cluster::DecodeStreamPoll(p.substr(0, len), &spl))
          << "StreamPoll prefix of length " << len << " decoded";
    }
  }
  {
    const std::string p = cluster::EncodeStreamResult(stream_result);
    for (size_t len = 0; len < p.size(); ++len) {
      cluster::StreamResultMsg srm;
      EXPECT_FALSE(cluster::DecodeStreamResult(p.substr(0, len), &srm))
          << "StreamResult prefix of length " << len << " decoded";
    }
  }
  Lcg lcg(23);
  for (int round = 0; round < 200; ++round) {
    const std::string garbage = lcg.Bytes(round % 61);
    cluster::StatsReply st;
    cluster::DecodeStatsReply(garbage, &st);  // must not crash
    engine::QueryResult r;
    cluster::DecodeQueryResult(garbage, &r);  // must not crash
    cluster::SyncPlansRequest sp;
    cluster::DecodeSyncPlans(garbage, &sp);  // must not crash
    cluster::EpochReply ep;
    cluster::DecodeEpochReply(garbage, &ep);  // must not crash
    cluster::AppendFramesRequest af;
    cluster::DecodeAppendFrames(garbage, &af);  // must not crash
    cluster::SubscribeRequest sq;
    cluster::DecodeSubscribeRequest(garbage, &sq);  // must not crash
    cluster::StreamResultMsg srm;
    cluster::DecodeStreamResult(garbage, &srm);  // must not crash
  }
}

TEST(ProtocolTest, ErrorFrameCarriesStatusAcrossTheWire) {
  const common::Status in = common::Status::NotFound("no such dataset");
  net::Frame frame = cluster::MakeErrorFrame(9, in);
  EXPECT_EQ(frame.type, net::FrameType::kError);
  const common::Status out = cluster::DecodeErrorFrame(frame);
  EXPECT_EQ(out.code(), in.code());
  EXPECT_EQ(out.message(), in.message());

  // A malformed error frame degrades to kUnavailable, never to kOk.
  net::Frame bogus;
  bogus.type = net::FrameType::kError;
  bogus.payload = "";
  EXPECT_EQ(cluster::DecodeErrorFrame(bogus).code(),
            common::StatusCode::kUnavailable);
}

// ---- Golden bytes ----------------------------------------------------------

// One payload type on the wire: the encoding of a fully populated instance,
// and a decode-then-re-encode of arbitrary bytes (nullopt when the decoder
// rejects them).
struct WireSample {
  std::string name;
  std::string bytes;
  std::function<std::optional<std::string>(const std::string&)> reencode;
};

template <typename T, typename Encode, typename Decode>
WireSample Sample(std::string name, const T& value, Encode encode,
                  Decode decode) {
  return {std::move(name), encode(value),
          [encode, decode](const std::string& p) -> std::optional<std::string> {
            T out{};
            if (!decode(p, &out)) return std::nullopt;
            return encode(out);
          }};
}

engine::QueryResult FullQueryResult() {
  engine::QueryResult r;
  r.segments = {{0, 10, 25}, {3, 0, 7}};
  r.metrics.tp = 120;
  r.metrics.fp = 4;
  r.metrics.fn = 9;
  r.metrics.tn = 10000;
  r.metrics.precision = 0.96875;
  r.metrics.recall = 0.9375;
  r.metrics.f1 = 0.953125;
  r.throughput_fps = 2141.5;
  r.gpu_seconds = 0.25;
  r.wall_seconds = 1.5;
  r.plan_seconds = 3.0;
  r.executor = "Zeus-RL";
  r.explanation = "plan";
  r.consistency = engine::Consistency::kDegraded;
  r.divergence = "shard 2 behind";
  r.epoch = 3;
  r.achieved_confidence = 0.8125;
  r.accuracy_band = 0.75;
  r.tier = core::QueryTier::kBestEffort;
  r.budget_exhausted = true;
  r.window_begin = 120;
  r.window_end = 520;
  r.frame_epoch = 6;
  return r;
}

engine::HistogramStats FullHistogram(long seed) {
  engine::HistogramStats h;
  h.count = seed + 2;
  h.sum_seconds = 0.5 * static_cast<double>(seed);
  h.buckets[3] = seed;
  h.buckets[39] = 2;
  return h;
}

cluster::StatsReply FullStatsReply() {
  cluster::StatsReply s;
  s.stats.shard = 2;
  s.stats.queue_depth = 1;
  s.stats.active = 2;
  s.stats.peak_queue_depth = 3;
  s.stats.submitted = 4;
  s.stats.completed = 5;
  s.stats.failed = 6;
  s.stats.cancelled = 7;
  s.stats.rejected = 8;
  s.stats.drains = 9;
  s.stats.planner_runs = 10;
  s.stats.cache_hits = 11;
  s.stats.disk_loads = 12;
  s.stats.degrade_level = 13;
  s.stats.band_degraded = 14;
  s.stats.degraded_band_seconds = 1.25;
  s.stats.band_plan_hits = {{750, 4}, {800, 9}};
  s.stats.confidence.count = 3;
  s.stats.confidence.sum = 2.5;
  s.stats.confidence.buckets[15] = 1;
  s.stats.confidence.buckets[16] = 2;
  s.stats.queue_wait = FullHistogram(5);
  s.stats.exec = FullHistogram(7);
  s.stats.appends = 15;
  s.stats.appended_frames = 16;
  s.stats.subscribes = 17;
  s.stats.unsubscribes = 18;
  s.stats.stream_results = 19;
  s.stats.stream_dropped = 20;
  s.stats.feature_hits = 21;
  s.stats.feature_misses = 22;
  s.stats.feature_evictions = 23;
  for (int i = 0; i < 2; ++i) {
    engine::DatasetStats row;
    row.dataset = i == 0 ? "bdd" : "thumos";
    row.queue_depth = 30 + i;
    row.weight = 2 + i;
    row.submitted = 40 + i;
    row.completed = 50 + i;
    row.failed = 60 + i;
    row.cancelled = 70 + i;
    row.rejected = 80 + i;
    row.queue_wait = FullHistogram(90 + i);
    row.exec = FullHistogram(100 + i);
    s.stats.datasets.push_back(row);
  }
  s.num_shards = 3;
  s.failovers = 24;
  s.rehomed_datasets = 25;
  s.dead_shards = 26;
  s.replication = 2;
  s.replicas_behind = 27;
  s.read_failovers = 28;
  s.certain_answers = 29;
  s.degraded_answers = 30;
  s.plan_resyncs = 31;
  return s;
}

// Every payload type of cluster/protocol.h, each fully populated (no field
// left at a default that would hide it), plus the kError payload.
std::vector<WireSample> AllPayloads() {
  cluster::DatasetSpec spec;
  spec.name = "bdd-sliced";
  spec.family = video::DatasetFamily::kKittiLike;
  spec.seed = 9917;
  spec.num_videos = 28;
  spec.frames_per_video = 400;
  spec.native_resolution = 720;
  spec.warm_plans = true;
  spec.epoch = 41;
  cluster::ExecRequest exec;
  exec.dataset = "bdd";
  exec.sql = "SELECT 1";
  exec.priority = -3;
  exec.tier = core::QueryTier::kBalanced;
  exec.min_accuracy = 0.7;
  exec.max_latency_budget = 12.5;
  cluster::SubscribeRequest sub;
  sub.dataset = "stream";
  sub.sql = "SELECT 2";
  sub.sub_id = 41;
  sub.window_frames = 400;
  sub.max_buffered = 8;
  sub.tier = core::QueryTier::kBestEffort;
  sub.min_accuracy = 0.8;
  sub.max_latency_budget = 2.5;
  cluster::StreamResultMsg stream_result;
  stream_result.seq = 7;
  stream_result.dropped = 2;
  stream_result.result = FullQueryResult();

  using cluster::TicketStateReply;
  return {
      Sample("DatasetSpec", spec, cluster::EncodeDatasetSpec,
             cluster::DecodeDatasetSpec),
      Sample("ExecRequest", exec, cluster::EncodeExecRequest,
             cluster::DecodeExecRequest),
      Sample("QueryResult", FullQueryResult(), cluster::EncodeQueryResult,
             cluster::DecodeQueryResult),
      Sample("SyncPlansRequest", cluster::SyncPlansRequest{"bdd", 7},
             cluster::EncodeSyncPlans, cluster::DecodeSyncPlans),
      Sample("SyncReply", cluster::SyncReply{3, 7}, cluster::EncodeSyncReply,
             cluster::DecodeSyncReply),
      Sample("EpochReply", cluster::EpochReply{12, true, 1664},
             cluster::EncodeEpochReply, cluster::DecodeEpochReply),
      Sample("AppendFramesRequest",
             cluster::AppendFramesRequest{"stream", 1664, 0, 9},
             cluster::EncodeAppendFrames, cluster::DecodeAppendFrames),
      Sample("AppendReply", cluster::AppendReply{9, 1664, 64},
             cluster::EncodeAppendReply, cluster::DecodeAppendReply),
      Sample("SubscribeRequest", sub, cluster::EncodeSubscribeRequest,
             cluster::DecodeSubscribeRequest),
      Sample("SubscribeReply", cluster::SubscribeReply{41, 3, true},
             cluster::EncodeSubscribeReply, cluster::DecodeSubscribeReply),
      Sample("StreamPollRequest", cluster::StreamPollRequest{41, 6, 750},
             cluster::EncodeStreamPoll, cluster::DecodeStreamPoll),
      Sample("StreamResultMsg", stream_result, cluster::EncodeStreamResult,
             cluster::DecodeStreamResult),
      Sample("StatsReply", FullStatsReply(), cluster::EncodeStatsReply,
             cluster::DecodeStatsReply),
      Sample("TicketId", uint64_t{77}, cluster::EncodeTicketId,
             cluster::DecodeTicketId),
      Sample("TicketStateReply",
             TicketStateReply{engine::QueryState::kExecuting, 0.5},
             cluster::EncodeTicketState, cluster::DecodeTicketState),
      Sample("RegisterReply", uint64_t{4}, cluster::EncodeRegisterReply,
             cluster::DecodeRegisterReply),
      Sample("Name", std::string("bdd"), cluster::EncodeName,
             cluster::DecodeName),
      Sample("Error", common::Status::ResourceExhausted("queue full"),
             [](const common::Status& s) {
               return cluster::MakeErrorFrame(9, s).payload;
             },
             [](const std::string& p, common::Status* out) {
               net::Frame frame;
               frame.type = net::FrameType::kError;
               frame.payload = p;
               *out = cluster::DecodeErrorFrame(frame);
               return out->message() != "malformed error frame";
             }),
  };
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// The exact bytes of every sample in AllPayloads(). A codec change that
// moves any of them is a wire-format change: it needs a kWireVersion bump,
// not an edit here.
const std::map<std::string, std::string>& GoldenHex() {
  static const auto* golden = new std::map<std::string, std::string>{
      {"DatasetSpec",
       "0a0000006264642d736c6963656404bd260000000000001c00000090010000d0"
       "020000012900000000000000"},
      {"ExecRequest",
       "030000006264640800000053454c4543542031fdffffff01666666666666e63f"
       "0000000000002940"},
      {"QueryResult",
       "02000000000000000a0000001900000003000000000000000700000078000000"
       "0000000004000000000000000900000000000000102700000000000000000000"
       "0000ef3f000000000000ee3f000000000080ee3f0000000000bba04000000000"
       "0000d03f000000000000f83f0000000000000840070000005a6575732d524c04"
       "000000706c616e010e0000007368617264203220626568696e64030000000000"
       "0000000000000000ea3f000000000000e83f0201780000000000000008020000"
       "000000000600000000000000"},
      {"SyncPlansRequest",
       "030000006264640700000000000000"},
      {"SyncReply",
       "03000000000000000700000000000000"},
      {"EpochReply",
       "0c00000000000000018006000000000000"},
      {"AppendFramesRequest",
       "0600000073747265616d80060000000000000000000000000000090000000000"
       "0000"},
      {"AppendReply",
       "090000000000000080060000000000004000000000000000"},
      {"SubscribeRequest",
       "0600000073747265616d0800000053454c454354203229000000000000009001"
       "00000000000008000000029a9999999999e93f0000000000000440"},
      {"SubscribeReply",
       "2900000000000000030000000000000001"},
      {"StreamPollRequest",
       "29000000000000000600000000000000ee020000"},
      {"StreamResultMsg",
       "07000000000000000200000000000000cc00000002000000000000000a000000"
       "1900000003000000000000000700000078000000000000000400000000000000"
       "09000000000000001027000000000000000000000000ef3f000000000000ee3f"
       "000000000080ee3f0000000000bba040000000000000d03f000000000000f83f"
       "0000000000000840070000005a6575732d524c04000000706c616e010e000000"
       "7368617264203220626568696e640300000000000000000000000000ea3f0000"
       "00000000e83f0201780000000000000008020000000000000600000000000000"},
      {"StatsReply",
       "0200000001000000000000000200000000000000030000000000000004000000"
       "0000000005000000000000000600000000000000070000000000000008000000"
       "0000000009000000000000000a000000000000000b000000000000000c000000"
       "000000000d000000000000000e00000000000000000000000000f43f02000000"
       "ee02000000000000040000000000000020030000000000000900000000000000"
       "0300000000000000000000000000044000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000010000000000000002000000000000000000000000000000"
       "0000000000000000000000000000000007000000000000000000000000000440"
       "0000000000000000000000000000000000000000000000000500000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000200000000000000"
       "09000000000000000000000000000c4000000000000000000000000000000000"
       "0000000000000000070000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "000000000000000002000000000000000f000000000000001000000000000000"
       "1100000000000000120000000000000013000000000000001400000000000000"
       "1500000000000000160000000000000017000000000000000200000003000000"
       "6264641e0000000000000002000000280000000000000032000000000000003c"
       "00000000000000460000000000000050000000000000005c0000000000000000"
       "000000008046400000000000000000000000000000000000000000000000005a"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000002"
       "0000000000000066000000000000000000000000004940000000000000000000"
       "0000000000000000000000000000006400000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000200000000000000060000007468756d6f"
       "731f0000000000000003000000290000000000000033000000000000003d0000"
       "0000000000470000000000000051000000000000005d00000000000000000000"
       "0000c046400000000000000000000000000000000000000000000000005b0000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000020000"
       "0000000000670000000000000000000000004049400000000000000000000000"
       "0000000000000000000000000065000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000002000000000000000300000018000000000000"
       "0019000000000000001a00000000000000020000001b000000000000001c0000"
       "00000000001d000000000000001e000000000000001f00000000000000"},
      {"TicketId",
       "4d00000000000000"},
      {"TicketStateReply",
       "02000000000000e03f"},
      {"RegisterReply",
       "0400000000000000"},
      {"Name",
       "03000000626464"},
      {"Error",
       "080a00000071756575652066756c6c"},
  };
  return *golden;
}

TEST(ProtocolTest, GoldenBytesPinEveryPayloadFormat) {
  const std::vector<WireSample> samples = AllPayloads();
  EXPECT_EQ(samples.size(), GoldenHex().size());
  for (const WireSample& s : samples) {
    SCOPED_TRACE(s.name);
    auto it = GoldenHex().find(s.name);
    ASSERT_NE(it, GoldenHex().end());
    EXPECT_EQ(Hex(s.bytes), it->second);
    // The decoder reads back exactly the fields the encoder wrote.
    EXPECT_EQ(s.reencode(s.bytes), std::optional<std::string>(s.bytes));
  }
}

// ---- Decoder fuzzing ---------------------------------------------------------

// Runs the sample's decoder (and, on success, its encoder) over `bytes`
// with no single allocation allowed beyond a small multiple of the input.
std::optional<std::string> DecodeWithinBudget(const WireSample& s,
                                              const std::string& bytes) {
  std::optional<std::string> out;
  bool over_allocated = false;
  g_alloc_limit.store(4 * bytes.size() + 1024);
  try {
    out = s.reencode(bytes);
  } catch (const std::bad_alloc&) {
    over_allocated = true;
  }
  g_alloc_limit.store(0);
  EXPECT_FALSE(over_allocated)
      << "over-allocated on an input of " << bytes.size() << " bytes";
  return out;
}

TEST(ProtocolTest, EveryDecoderSurvivesMutationsOfAValidEncoding) {
  Lcg lcg(41);
  for (const WireSample& s : AllPayloads()) {
    SCOPED_TRACE(s.name);
    const std::string& valid = s.bytes;
    // A flip at every byte may decode (the result is just another message)
    // or be rejected, but never crash or over-allocate.
    for (size_t i = 0; i < valid.size(); ++i) {
      std::string m = valid;
      m[i] = static_cast<char>(m[i] ^ (lcg.Byte() | 1));
      DecodeWithinBudget(s, m);
    }
    // 0xFFFFFFFF at every offset, which covers every u32 count and string
    // length: rejected before allocation, never honoured.
    for (size_t i = 0; i + 4 <= valid.size(); ++i) {
      std::string m = valid;
      m.replace(i, 4, 4, '\xff');
      DecodeWithinBudget(s, m);
    }
    // Every strict prefix is rejected by the payload's own decoder.
    for (size_t len = 0; len < valid.size(); ++len) {
      EXPECT_FALSE(DecodeWithinBudget(s, valid.substr(0, len)).has_value())
          << "prefix of length " << len << " decoded";
    }
    for (int round = 0; round < 64; ++round) {
      DecodeWithinBudget(s, lcg.Bytes(round % 61));
    }
  }
}

TEST(ProtocolTest, DatasetSpecWarmPlansIsAStrictBool) {
  cluster::DatasetSpec spec;
  spec.name = "d";
  spec.warm_plans = true;
  std::string payload = cluster::EncodeDatasetSpec(spec);
  // warm_plans is the u8 ahead of the trailing u64 epoch.
  ASSERT_EQ(payload[payload.size() - 9], 1);
  payload[payload.size() - 9] = 2;
  cluster::DatasetSpec out;
  EXPECT_FALSE(cluster::DecodeDatasetSpec(payload, &out));
}

// ---- Real TCP exchange -----------------------------------------------------

class EchoServer {
 public:
  EchoServer() {
    EXPECT_TRUE(listener_.Listen("127.0.0.1", 0).ok());
    thread_ = std::thread([this] {
      // Serve connections one after another: clients that poison a
      // connection reconnect, like RemoteShard does.
      for (;;) {
        auto accepted = listener_.Accept();
        if (!accepted.ok()) return;
        net::FrameConn conn(std::move(accepted).value(), "server:echo");
        net::Frame frame;
        while (conn.ReadFrame(&frame, 5'000).ok()) {
          if (!conn.WriteFrame(frame, 5'000).ok()) break;
        }
      }
    });
  }
  ~EchoServer() {
    listener_.Close();
    thread_.join();
  }
  int port() const { return listener_.port(); }

 private:
  net::TcpListener listener_;
  std::thread thread_;
};

net::FrameConn ConnectTo(int port, const std::string& tag = "client:test") {
  net::TcpSocket socket;
  EXPECT_TRUE(socket.Connect("127.0.0.1", port, 2'000).ok());
  return net::FrameConn(std::move(socket), tag);
}

TEST(SocketTest, FramesSurviveRealTcp) {
  EchoServer server;
  net::FrameConn conn = ConnectTo(server.port());
  Lcg lcg(31);
  for (size_t size : {0u, 1u, 1000u, 100000u}) {
    net::Frame out;
    out.type = net::FrameType::kExecute;
    out.request_id = size;
    out.payload = lcg.Bytes(size);
    ASSERT_TRUE(conn.WriteFrame(out, 5'000).ok());
    net::Frame in;
    ASSERT_TRUE(conn.ReadFrame(&in, 5'000).ok());
    EXPECT_EQ(in.request_id, out.request_id);
    EXPECT_EQ(in.payload, out.payload);
  }
}

TEST(SocketTest, ReadDeadlineSurfacesUnavailable) {
  EchoServer server;
  net::FrameConn conn = ConnectTo(server.port());
  net::Frame in;
  common::Status st = conn.ReadFrame(&in, 100);  // nothing is coming
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::StatusCode::kUnavailable);
  EXPECT_TRUE(common::IsRetryable(st.code()));
}

TEST(SocketTest, CleanPeerCloseBetweenFramesIsNotFound) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0).ok());
  std::thread server([&] {
    auto accepted = listener.Accept();
    // Close immediately: a clean FIN before any frame.
  });
  net::FrameConn conn = ConnectTo(listener.port());
  net::Frame in;
  common::Status st = conn.ReadFrame(&in, 2'000);
  EXPECT_EQ(st.code(), common::StatusCode::kNotFound);
  server.join();
}

TEST(SocketTest, GarbageStreamIsRejectedAsCorrupt) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0).ok());
  std::thread server([&] {
    auto accepted = listener.Accept();
    if (!accepted.ok()) return;
    net::TcpSocket peer = std::move(accepted).value();
    // A plausible length prefix followed by garbage: the crc must reject it.
    std::string bytes;
    const uint32_t len = 64;
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
    }
    bytes += Lcg(37).Bytes(len);
    peer.WriteAll(bytes.data(), bytes.size(), 2'000);
  });
  net::FrameConn conn = ConnectTo(listener.port());
  net::Frame in;
  common::Status st = conn.ReadFrame(&in, 2'000);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::StatusCode::kUnavailable);
  server.join();
}

// ---- Fault injection seam --------------------------------------------------

class FaultGuard {
 public:
  explicit FaultGuard(net::FaultInjector* injector) {
    net::SetFaultInjector(injector);
  }
  ~FaultGuard() { net::SetFaultInjector(nullptr); }
};

TEST(FaultTest, SendDropSwallowsTheFrame) {
  EchoServer server;
  net::FrameConn conn = ConnectTo(server.port());
  net::FaultInjector injector;
  FaultGuard guard(&injector);
  net::FaultRule rule;
  rule.action = net::FaultAction::kDrop;
  rule.direction = net::FaultDirection::kSend;
  rule.tag_contains = "client:test";
  injector.AddRule(rule);

  net::Frame out;
  out.type = net::FrameType::kPing;
  out.request_id = 1;
  EXPECT_TRUE(conn.WriteFrame(out, 2'000).ok());  // sender believes it went
  net::Frame in;
  EXPECT_EQ(conn.ReadFrame(&in, 200).code(),
            common::StatusCode::kUnavailable);  // but no echo ever comes
  EXPECT_EQ(injector.fired_count(), 1);

  // The timed-out read poisoned the connection (correct: nothing on that
  // stream can be trusted any more). A fresh connection — what RemoteShard
  // does on retry — exchanges frames untouched, the rule being consumed.
  net::FrameConn fresh = ConnectTo(server.port());
  out.request_id = 2;
  ASSERT_TRUE(fresh.WriteFrame(out, 2'000).ok());
  ASSERT_TRUE(fresh.ReadFrame(&in, 2'000).ok());
  EXPECT_EQ(in.request_id, 2u);
  EXPECT_EQ(injector.fired_count(), 1);
}

TEST(FaultTest, SendCorruptIsRejectedByTheReceiver) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0).ok());
  common::Status server_read = common::Status::Ok();
  std::thread server([&] {
    auto accepted = listener.Accept();
    if (!accepted.ok()) return;
    net::FrameConn conn(std::move(accepted).value(), "server:victim");
    net::Frame frame;
    server_read = conn.ReadFrame(&frame, 2'000);
  });
  net::FrameConn conn = ConnectTo(listener.port());
  net::FaultInjector injector;
  FaultGuard guard(&injector);
  net::FaultRule rule;
  rule.action = net::FaultAction::kCorrupt;
  rule.direction = net::FaultDirection::kSend;
  rule.tag_contains = "client:test";
  injector.AddRule(rule);

  net::Frame out;
  out.type = net::FrameType::kExecute;
  out.payload = "payload";
  EXPECT_TRUE(conn.WriteFrame(out, 2'000).ok());  // bytes leave, corrupted
  server.join();
  EXPECT_FALSE(server_read.ok());
  EXPECT_EQ(server_read.code(), common::StatusCode::kUnavailable);
}

TEST(FaultTest, RulesMatchByTypeTagAndSkip) {
  net::FaultInjector injector;
  net::FaultRule rule;
  rule.action = net::FaultAction::kDrop;
  rule.direction = net::FaultDirection::kSend;
  rule.match_type = true;
  rule.type = net::FrameType::kStats;
  rule.tag_contains = "client:router";
  rule.skip = 1;
  rule.times = 2;
  injector.AddRule(rule);

  net::FaultRule fired;
  // Wrong type, wrong tag, wrong direction: no match.
  EXPECT_FALSE(injector.Match(net::FaultDirection::kSend,
                              net::FrameType::kPing, "client:router", &fired));
  EXPECT_FALSE(injector.Match(net::FaultDirection::kSend,
                              net::FrameType::kStats, "server:shardd",
                              &fired));
  EXPECT_FALSE(injector.Match(net::FaultDirection::kRecv,
                              net::FrameType::kStats, "client:router",
                              &fired));
  // First match is skipped, then two firings, then exhausted.
  EXPECT_FALSE(injector.Match(net::FaultDirection::kSend,
                              net::FrameType::kStats, "client:router",
                              &fired));
  EXPECT_TRUE(injector.Match(net::FaultDirection::kSend,
                             net::FrameType::kStats, "client:router",
                             &fired));
  EXPECT_TRUE(injector.Match(net::FaultDirection::kSend,
                             net::FrameType::kStats, "client:router",
                             &fired));
  EXPECT_FALSE(injector.Match(net::FaultDirection::kSend,
                              net::FrameType::kStats, "client:router",
                              &fired));
  EXPECT_EQ(injector.fired_count(), 2);
}

}  // namespace
}  // namespace zeus
