#include "cluster/protocol.h"

#include <map>
#include <type_traits>
#include <vector>

namespace zeus::cluster {

namespace {

// Each payload's wire format is written once, as a field list in wire
// order: `Fields(io, msg)`, run by a net::WireWriter to encode and by a
// net::WireReader to decode. The reader poisons itself on the first bad
// field and makes every later one a no-op, so a field list has no error
// paths. Checks beyond the bytes themselves are the message's `Valid`.

// The message as a field list sees it: const when encoding, mutable when
// decoding.
template <typename IO, typename M>
using Msg =
    std::conditional_t<std::is_same_v<IO, net::WireWriter>, const M, M>;

// The engine's structs keep counters in `long` and ids in `int`; the wire
// carries them as i64 and i32.
static_assert(std::is_same_v<long, int64_t> && std::is_same_v<int, int32_t>,
              "field lists bind long/int fields to i64/i32 directly");

// ---- Blocks nested in messages ----------------------------------------------

template <typename IO>
void Fields(IO& io, Msg<IO, engine::QueryResult::Segment>& s) {
  io.I32(s.video_id);
  io.I32(s.start);
  io.I32(s.end);
}

template <typename IO>
void Fields(IO& io, Msg<IO, engine::HistogramStats>& h) {
  io.I64(h.count);
  io.F64(h.sum_seconds);
  for (auto& b : h.buckets) io.I64(b);
}

template <typename IO>
void Fields(IO& io, Msg<IO, engine::ConfidenceStats>& c) {
  io.I64(c.count);
  io.F64(c.sum);
  for (auto& b : c.buckets) io.I64(b);
}

template <typename IO>
void Fields(IO& io, Msg<IO, engine::DatasetStats>& d) {
  io.Str(d.dataset);
  io.I64(d.queue_depth);
  io.I32(d.weight);
  io.I64(d.submitted);
  io.I64(d.completed);
  io.I64(d.failed);
  io.I64(d.cancelled);
  io.I64(d.rejected);
  Fields(io, d.queue_wait);
  Fields(io, d.exec);
}

// A u32 count, then each element's field list. No element encodes shorter
// than a default-constructed one (empty strings and collections), which is
// the bound a decoded count is checked against before it allocates.
template <typename T>
void Seq(net::WireWriter& w, const std::vector<T>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const T& e : v) Fields(w, e);
}

template <typename T>
void Seq(net::WireReader& r, std::vector<T>& v) {
  static const size_t min_bytes = [] {
    net::WireWriter w;
    Fields(w, T{});
    return w.str().size();
  }();
  uint32_t n = 0;
  if (!r.Count(n, min_bytes)) return;
  v.resize(n);
  for (T& e : v) Fields(r, e);
}

// ServingCounters::band_plan_hits: a u32 count, then (i64 band, i64 hits).
void BandHits(net::WireWriter& w, const std::map<long, long>& hits) {
  w.U32(static_cast<uint32_t>(hits.size()));
  for (const auto& [band, n] : hits) {
    w.I64(band);
    w.I64(n);
  }
}

void BandHits(net::WireReader& r, std::map<long, long>& hits) {
  uint32_t n = 0;
  if (!r.Count(n, 16)) return;
  hits.clear();
  for (uint32_t i = 0; i < n; ++i) {
    int64_t band = 0, count = 0;
    if (r.I64(band) && r.I64(count)) hits[band] = count;
  }
}

// ServingCounters::degrade_level is an int carried as i64.
void WideInt(net::WireWriter& w, int v) { w.I64(v); }

void WideInt(net::WireReader& r, int& v) {
  int64_t wide = 0;
  r.I64(wide);
  v = static_cast<int>(wide);
}

template <typename IO>
void Fields(IO& io, Msg<IO, engine::ServingCounters>& c) {
  io.I64(c.queue_depth);
  io.I64(c.active);
  io.I64(c.peak_queue_depth);
  io.I64(c.submitted);
  io.I64(c.completed);
  io.I64(c.failed);
  io.I64(c.cancelled);
  io.I64(c.rejected);
  io.I64(c.drains);
  io.I64(c.planner_runs);
  io.I64(c.cache_hits);
  io.I64(c.disk_loads);
  WideInt(io, c.degrade_level);
  io.I64(c.band_degraded);
  io.F64(c.degraded_band_seconds);
  BandHits(io, c.band_plan_hits);
  Fields(io, c.confidence);
  Fields(io, c.queue_wait);
  Fields(io, c.exec);
  // Live-stream counters (appended last; the histograms above anchor the
  // legacy prefix).
  io.I64(c.appends);
  io.I64(c.appended_frames);
  io.I64(c.subscribes);
  io.I64(c.unsubscribes);
  io.I64(c.stream_results);
  io.I64(c.stream_dropped);
  io.I64(c.feature_hits);
  io.I64(c.feature_misses);
  io.I64(c.feature_evictions);
}

// kStreamResult carries a whole QueryResult encoding as a str.
void Nested(net::WireWriter& w, const engine::QueryResult& q) {
  w.Str(EncodeQueryResult(q));
}

void Nested(net::WireReader& r, engine::QueryResult& q) {
  std::string bytes;
  if (r.Str(bytes) && !DecodeQueryResult(bytes, &q)) r.Fail();
}

// ---- Messages ----------------------------------------------------------------

template <typename IO>
void Fields(IO& io, Msg<IO, DatasetSpec>& m) {
  io.Str(m.name);
  io.Enum(m.family, video::DatasetFamily::kKittiLike);
  io.U64(m.seed);
  io.U32(m.num_videos);
  io.U32(m.frames_per_video);
  io.U32(m.native_resolution);
  io.Bool(m.warm_plans);
  io.U64(m.epoch);
}

template <typename IO>
void Fields(IO& io, Msg<IO, ExecRequest>& m) {
  io.Str(m.dataset);
  io.Str(m.sql);
  io.I32(m.priority);
  io.Enum(m.tier, core::QueryTier::kBestEffort);
  io.F64(m.min_accuracy);
  io.F64(m.max_latency_budget);
}

template <typename IO>
void Fields(IO& io, Msg<IO, engine::QueryResult>& m) {
  Seq(io, m.segments);
  io.I64(m.metrics.tp);
  io.I64(m.metrics.fp);
  io.I64(m.metrics.fn);
  io.I64(m.metrics.tn);
  io.F64(m.metrics.precision);
  io.F64(m.metrics.recall);
  io.F64(m.metrics.f1);
  io.F64(m.throughput_fps);
  io.F64(m.gpu_seconds);
  io.F64(m.wall_seconds);
  io.F64(m.plan_seconds);
  io.Str(m.executor);
  io.Str(m.explanation);
  io.Enum(m.consistency, engine::Consistency::kDegraded);
  io.Str(m.divergence);
  io.U64(m.epoch);
  io.F64(m.achieved_confidence);
  io.F64(m.accuracy_band);
  io.Enum(m.tier, core::QueryTier::kBestEffort);
  io.Bool(m.budget_exhausted);
  io.I64(m.window_begin);
  io.I64(m.window_end);
  io.U64(m.frame_epoch);
}

template <typename IO>
void Fields(IO& io, Msg<IO, SyncPlansRequest>& m) {
  io.Str(m.name);
  io.U64(m.epoch);
}

template <typename IO>
void Fields(IO& io, Msg<IO, SyncReply>& m) {
  io.U64(m.plans_warmed);
  io.U64(m.epoch);
}

template <typename IO>
void Fields(IO& io, Msg<IO, EpochReply>& m) {
  io.U64(m.epoch);
  io.Bool(m.has_dataset);
  io.U64(m.stream_length);
}

template <typename IO>
void Fields(IO& io, Msg<IO, AppendFramesRequest>& m) {
  io.Str(m.name);
  io.U64(m.target_frames);
  io.U64(m.relative_frames);
  io.U64(m.epoch);
}

template <typename IO>
void Fields(IO& io, Msg<IO, AppendReply>& m) {
  io.U64(m.frame_epoch);
  io.U64(m.stream_length);
  io.U64(m.appended);
}

template <typename IO>
void Fields(IO& io, Msg<IO, SubscribeRequest>& m) {
  io.Str(m.dataset);
  io.Str(m.sql);
  io.U64(m.sub_id);
  io.I64(m.window_frames);
  io.U32(m.max_buffered);
  io.Enum(m.tier, core::QueryTier::kBestEffort);
  io.F64(m.min_accuracy);
  io.F64(m.max_latency_budget);
}

template <typename IO>
void Fields(IO& io, Msg<IO, SubscribeReply>& m) {
  io.U64(m.sub_id);
  io.U64(m.frame_epoch);
  io.Bool(m.attached_existing);
}

template <typename IO>
void Fields(IO& io, Msg<IO, StreamPollRequest>& m) {
  io.U64(m.sub_id);
  io.U64(m.after_seq);
  io.U32(m.timeout_ms);
}

template <typename IO>
void Fields(IO& io, Msg<IO, StreamResultMsg>& m) {
  io.U64(m.seq);
  io.U64(m.dropped);
  Nested(io, m.result);
}

template <typename IO>
void Fields(IO& io, Msg<IO, StatsReply>& m) {
  io.I32(m.stats.shard);
  Fields(io, m.stats);  // the ServingCounters block
  Seq(io, m.stats.datasets);
  io.I32(m.num_shards);
  io.I64(m.failovers);
  io.I64(m.rehomed_datasets);
  io.I64(m.dead_shards);
  io.I32(m.replication);
  io.I64(m.replicas_behind);
  io.I64(m.read_failovers);
  io.I64(m.certain_answers);
  io.I64(m.degraded_answers);
  io.I64(m.plan_resyncs);
}

template <typename IO>
void Fields(IO& io, Msg<IO, TicketStateReply>& m) {
  io.Enum(m.state, engine::QueryState::kCancelled);
  io.F64(m.progress);
}

// Bare u64 payloads: ticket and subscription ids, plans warmed.
template <typename IO>
void Fields(IO& io, Msg<IO, uint64_t>& v) {
  io.U64(v);
}

// A bare dataset name.
template <typename IO>
void Fields(IO& io, Msg<IO, std::string>& v) {
  io.Str(v);
}

// The kError payload.
struct ErrorPayload {
  common::StatusCode code = common::StatusCode::kOk;
  std::string message;
};

template <typename IO>
void Fields(IO& io, Msg<IO, ErrorPayload>& m) {
  io.Enum(m.code, common::StatusCode::kUnavailable);
  io.Str(m.message);
}

// ---- Semantic checks ---------------------------------------------------------

template <typename M>
bool Valid(const M&) {
  return true;
}

bool Valid(const std::string& name) { return !name.empty(); }

bool Valid(const DatasetSpec& m) { return !m.name.empty(); }

bool Valid(const ExecRequest& m) { return !m.dataset.empty(); }

bool Valid(const engine::QueryResult& m) {
  // kCertain carries no divergence reason by contract. The covered range
  // is a well-formed, non-negative interval or absent (both zero): a
  // stream consumer dedupes on it, so garbage here is a reject.
  return (m.consistency != engine::Consistency::kCertain ||
          m.divergence.empty()) &&
         m.window_begin >= 0 && m.window_end >= m.window_begin;
}

bool Valid(const SyncPlansRequest& m) { return !m.name.empty(); }

bool Valid(const AppendFramesRequest& m) {
  // Exactly one of the two forms: absolute (target, epoch) or relative.
  return !m.name.empty() && (m.target_frames == 0) != (m.relative_frames == 0);
}

bool Valid(const AppendReply& m) { return m.appended <= m.stream_length; }

bool Valid(const SubscribeRequest& m) {
  // sub_id 0 is valid on the wire: a client subscribing THROUGH the router
  // sends 0 to let the router assign the id. The shard side rejects 0 in
  // its handler (its ids are always the caller's — that is what makes
  // re-attach idempotent).
  return !m.dataset.empty() && !m.sql.empty() && m.window_frames >= 0;
}

bool Valid(const SubscribeReply& m) { return m.sub_id != 0; }

bool Valid(const StreamPollRequest& m) { return m.sub_id != 0; }

bool Valid(const StreamResultMsg& m) { return m.seq != 0; }

// ---- Both directions -----------------------------------------------------------

template <typename M>
std::string Encode(const M& m) {
  net::WireWriter w;
  Fields(w, m);
  return w.Take();
}

// Every byte must be consumed: trailing junk rejects the payload.
template <typename M>
bool Decode(const std::string& payload, M* out) {
  net::WireReader r(payload);
  Fields(r, *out);
  return r.AtEnd() && Valid(*out);
}

}  // namespace

video::DatasetProfile ProfileFor(const DatasetSpec& spec) {
  video::DatasetProfile profile = video::DatasetProfile::ForFamily(spec.family);
  if (spec.num_videos > 0) {
    profile.num_videos = static_cast<int>(spec.num_videos);
  }
  if (spec.frames_per_video > 0) {
    profile.frames_per_video = static_cast<int>(spec.frames_per_video);
  }
  if (spec.native_resolution > 0) {
    profile.native_resolution = static_cast<int>(spec.native_resolution);
  }
  return profile;
}

std::string EncodeDatasetSpec(const DatasetSpec& m) { return Encode(m); }
bool DecodeDatasetSpec(const std::string& p, DatasetSpec* out) {
  return Decode(p, out);
}

std::string EncodeExecRequest(const ExecRequest& m) { return Encode(m); }
bool DecodeExecRequest(const std::string& p, ExecRequest* out) {
  return Decode(p, out);
}

std::string EncodeQueryResult(const engine::QueryResult& m) {
  return Encode(m);
}
bool DecodeQueryResult(const std::string& p, engine::QueryResult* out) {
  return Decode(p, out);
}

std::string EncodeSyncPlans(const SyncPlansRequest& m) { return Encode(m); }
bool DecodeSyncPlans(const std::string& p, SyncPlansRequest* out) {
  return Decode(p, out);
}

std::string EncodeSyncReply(const SyncReply& m) { return Encode(m); }
bool DecodeSyncReply(const std::string& p, SyncReply* out) {
  return Decode(p, out);
}

std::string EncodeEpochReply(const EpochReply& m) { return Encode(m); }
bool DecodeEpochReply(const std::string& p, EpochReply* out) {
  return Decode(p, out);
}

std::string EncodeAppendFrames(const AppendFramesRequest& m) {
  return Encode(m);
}
bool DecodeAppendFrames(const std::string& p, AppendFramesRequest* out) {
  return Decode(p, out);
}

std::string EncodeAppendReply(const AppendReply& m) { return Encode(m); }
bool DecodeAppendReply(const std::string& p, AppendReply* out) {
  return Decode(p, out);
}

std::string EncodeSubscribeRequest(const SubscribeRequest& m) {
  return Encode(m);
}
bool DecodeSubscribeRequest(const std::string& p, SubscribeRequest* out) {
  return Decode(p, out);
}

std::string EncodeSubscribeReply(const SubscribeReply& m) { return Encode(m); }
bool DecodeSubscribeReply(const std::string& p, SubscribeReply* out) {
  return Decode(p, out);
}

std::string EncodeStreamPoll(const StreamPollRequest& m) { return Encode(m); }
bool DecodeStreamPoll(const std::string& p, StreamPollRequest* out) {
  return Decode(p, out);
}

std::string EncodeStreamResult(const StreamResultMsg& m) { return Encode(m); }
bool DecodeStreamResult(const std::string& p, StreamResultMsg* out) {
  return Decode(p, out);
}

std::string EncodeStatsReply(const StatsReply& m) { return Encode(m); }
bool DecodeStatsReply(const std::string& p, StatsReply* out) {
  return Decode(p, out);
}

std::string EncodeTicketId(uint64_t id) { return Encode(id); }
bool DecodeTicketId(const std::string& p, uint64_t* id) {
  return Decode(p, id);
}

std::string EncodeTicketState(const TicketStateReply& m) { return Encode(m); }
bool DecodeTicketState(const std::string& p, TicketStateReply* out) {
  return Decode(p, out);
}

std::string EncodeRegisterReply(uint64_t plans_warmed) {
  return Encode(plans_warmed);
}
bool DecodeRegisterReply(const std::string& p, uint64_t* plans_warmed) {
  return Decode(p, plans_warmed);
}

std::string EncodeName(const std::string& name) { return Encode(name); }
bool DecodeName(const std::string& p, std::string* name) {
  return Decode(p, name);
}

net::Frame Reply(uint64_t request_id, net::FrameType type,
                 std::string payload) {
  net::Frame f;
  f.type = type;
  f.request_id = request_id;
  f.payload = std::move(payload);
  return f;
}

net::Frame OkFrame(uint64_t request_id) {
  return Reply(request_id, net::FrameType::kOk, {});
}

net::Frame MakeErrorFrame(uint64_t request_id, const common::Status& status) {
  return Reply(request_id, net::FrameType::kError,
               Encode(ErrorPayload{status.code(), status.message()}));
}

common::Status DecodeErrorFrame(const net::Frame& frame) {
  // Unlike the other payloads, trailing bytes after the message are
  // tolerated; a kOk code is not (an error frame always carries an error).
  net::WireReader r(frame.payload);
  ErrorPayload e;
  Fields(r, e);
  if (!r.ok() || e.code == common::StatusCode::kOk) {
    return common::Status::Unavailable("malformed error frame");
  }
  return common::Status(e.code, std::move(e.message));
}

net::Frame BadPayload(const net::Frame& req) {
  return MakeErrorFrame(
      req.request_id,
      common::Status::InvalidArgument(
          std::string("malformed ") + net::FrameTypeName(req.type) +
          " payload"));
}

}  // namespace zeus::cluster
