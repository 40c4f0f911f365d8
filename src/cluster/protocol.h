#ifndef ZEUS_CLUSTER_PROTOCOL_H_
#define ZEUS_CLUSTER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "engine/metrics.h"
#include "engine/query_engine.h"
#include "net/wire.h"
#include "video/dataset.h"

namespace zeus::cluster {

// Payload formats for every cluster frame (the framing itself — length
// prefix, version, type, request id, crc trailer — is net/wire.h). Each
// message has an Encode returning payload bytes and a Decode returning
// false on any malformed input (Decoders are total: they never crash on
// garbage, a property tests/net_test.cc fuzzes). Both are driven by the
// message's one field list in protocol.cc, so they cannot disagree on the
// wire order; docs/PROTOCOL.md §4 transcribes those lists.

// ---- Dataset registration --------------------------------------------------

// Datasets are synthetic and deterministic given (profile, seed), so the
// wire carries the recipe, not the frames: a shard regenerates the dataset
// locally, bit-identical to every other process using the same spec. Zero
// fields mean "use the family default". `warm_plans` asks the receiving
// shard to preload the dataset's persisted plans from the shared plan
// catalog (QueryEngine::WarmUpDataset) — the plan-catalog handoff that
// makes a post-failover home answer with planner_runs == 0.
struct DatasetSpec {
  std::string name;
  video::DatasetFamily family = video::DatasetFamily::kBdd100kLike;
  uint64_t seed = 17;
  uint32_t num_videos = 0;
  uint32_t frames_per_video = 0;
  uint32_t native_resolution = 0;
  bool warm_plans = true;
  // Replica-group epoch this registration brings the shard up to (the
  // certain-answer contract below). 0 from clients that don't replicate;
  // the router stamps the group's epoch when fanning to replicas.
  uint64_t epoch = 0;
};

// The profile a spec resolves to (family defaults + overrides).
video::DatasetProfile ProfileFor(const DatasetSpec& spec);

std::string EncodeDatasetSpec(const DatasetSpec& spec);
bool DecodeDatasetSpec(const std::string& payload, DatasetSpec* out);

// ---- Query submission ------------------------------------------------------

// The accuracy/latency budget (docs/ACCURACY.md) travels with the query:
// tier selects the degradation contract (strict answers never degrade),
// min_accuracy floors how far best-effort shedding may drop the band, and
// max_latency_budget (GPU-seconds, 0 = unlimited) lets non-strict queries
// early-exit localization rounds.
struct ExecRequest {
  std::string dataset;
  std::string sql;
  int32_t priority = 0;
  core::QueryTier tier = core::QueryTier::kStrict;
  double min_accuracy = 0.0;
  double max_latency_budget = 0.0;
};

std::string EncodeExecRequest(const ExecRequest& req);
bool DecodeExecRequest(const std::string& payload, ExecRequest* out);

// QueryResult travels whole except the parsed ActionQuery (the client
// already knows what it asked; re-encoding the parse tree buys nothing).
// Segments and metric counts are integers, latencies doubles carried
// bit-exactly — the bit-identity tests compare through this round trip.
//
// The certain-answer contract rides along: every result carries a
// `consistency` annotation plus the serving shard's applied epoch. The
// router compares that epoch against the replica group's committed epoch
// and marks the answer kCertain on match or kDegraded (with `divergence`
// naming the lagging shard and epochs) while a re-home or replica
// catch-up is mid-flight. A result is NEVER silently stale: either every
// live replica would have produced the same bytes (kCertain) or the
// divergence window is declared on the result itself.
//
// The accuracy annotation rides along too: tier, effective accuracy band,
// the cost model's achieved-confidence estimate, and whether a latency
// budget cut the run short (docs/ACCURACY.md).
std::string EncodeQueryResult(const engine::QueryResult& result);
bool DecodeQueryResult(const std::string& payload, engine::QueryResult* out);

// ---- Replication maintenance ----------------------------------------------

// kSyncPlans: router -> replica after a plan trains anywhere in the group
// (or when repair finds a replica behind). The shard re-reads the dataset's
// persisted plans from the shared catalog and advances its applied epoch to
// max(current, epoch) — idempotent, so it retries safely and converges.
struct SyncPlansRequest {
  std::string name;
  uint64_t epoch = 0;
};
std::string EncodeSyncPlans(const SyncPlansRequest& req);
bool DecodeSyncPlans(const std::string& payload, SyncPlansRequest* out);

// kSyncReply: how many plans the sync warmed and the shard's applied epoch
// after the bump.
struct SyncReply {
  uint64_t plans_warmed = 0;
  uint64_t epoch = 0;
};
std::string EncodeSyncReply(const SyncReply& reply);
bool DecodeSyncReply(const std::string& payload, SyncReply* out);

// kEpochReply: a shard's applied epoch for one dataset (kEpochQuery carries
// just the name, via EncodeName). has_dataset false => epoch is 0 and the
// shard holds no replica — the probe is total, never an error.
// `stream_length` is the replica's committed stream length — the repair
// pass compares it against the group's committed frames so a replica that
// missed an append but caught a later plan sync can never masquerade as
// current (epoch alone would).
struct EpochReply {
  uint64_t epoch = 0;
  bool has_dataset = false;
  uint64_t stream_length = 0;
};
std::string EncodeEpochReply(const EpochReply& reply);
bool DecodeEpochReply(const std::string& payload, EpochReply* out);

// ---- Live streams ----------------------------------------------------------

// kAppendFrames: grow a streamable dataset. The wire form is ABSOLUTE —
// `target_frames` is the stream length after the append and `epoch` the
// frame epoch it commits — which is what makes the frame idempotent: a
// replay (or a fan-out to a replica that already applied it) grows nothing
// and reports `appended = 0`. `relative_frames` is the client convenience
// form accepted only by the ROUTER (target_frames == 0): the router
// resolves it to an absolute (target, epoch) under its dataset lock and
// fans that to every replica. Shards reject the relative form — by the
// time a frame reaches a shard it must be replayable.
struct AppendFramesRequest {
  std::string name;
  uint64_t target_frames = 0;  // absolute stream length (0 = relative form)
  uint64_t relative_frames = 0;  // router-only convenience
  uint64_t epoch = 0;            // frame epoch this append commits
};
std::string EncodeAppendFrames(const AppendFramesRequest& req);
bool DecodeAppendFrames(const std::string& payload, AppendFramesRequest* out);

// kAppendReply: the dataset's stream state after the (possibly replayed)
// append — engine::AppendOutcome on the wire.
struct AppendReply {
  uint64_t frame_epoch = 0;
  uint64_t stream_length = 0;
  uint64_t appended = 0;
};
std::string EncodeAppendReply(const AppendReply& reply);
bool DecodeAppendReply(const std::string& payload, AppendReply* out);

// kSubscribe: open a standing query. `sub_id` is CLIENT-chosen (the router
// uses its own routed-subscription id), which is what makes the frame
// idempotent and re-attachable: re-sending the same id to the same or a
// failed-over shard joins the existing subscription or recreates it
// deterministically instead of stacking a second one. window_frames == 0
// = full prefix; the accuracy budget travels like ExecRequest's.
struct SubscribeRequest {
  std::string dataset;
  std::string sql;
  uint64_t sub_id = 0;
  int64_t window_frames = 0;
  uint32_t max_buffered = 16;
  core::QueryTier tier = core::QueryTier::kStrict;
  double min_accuracy = 0.0;
  double max_latency_budget = 0.0;
};
std::string EncodeSubscribeRequest(const SubscribeRequest& req);
bool DecodeSubscribeRequest(const std::string& payload, SubscribeRequest* out);

// kSubscribeReply: echoes the subscription id plus the dataset's frame
// epoch at attach time (the first incremental result covers the window as
// of at least this epoch).
struct SubscribeReply {
  uint64_t sub_id = 0;
  uint64_t frame_epoch = 0;
  bool attached_existing = false;  // replay joined a live subscription
};
std::string EncodeSubscribeReply(const SubscribeReply& reply);
bool DecodeSubscribeReply(const std::string& payload, SubscribeReply* out);

// kStreamPoll: long-poll for the next incremental result with seq >
// after_seq. The cursor lives with the CLIENT, so a poll is a pure read —
// a lost response re-reads the same update instead of consuming it.
// Times out as kError(kUnavailable) with nothing new (retryable by
// contract); a cancelled subscription answers kError(kCancelled).
struct StreamPollRequest {
  uint64_t sub_id = 0;
  uint64_t after_seq = 0;
  uint32_t timeout_ms = 0;
};
std::string EncodeStreamPoll(const StreamPollRequest& req);
bool DecodeStreamPoll(const std::string& payload, StreamPollRequest* out);

// kStreamResult: one incremental update — the subscription-side mirror of
// kResult with the publish sequence number and the consumer-drop counter
// riding along.
struct StreamResultMsg {
  uint64_t seq = 0;
  uint64_t dropped = 0;  // updates conflated away so far (slow consumer)
  engine::QueryResult result;
};
std::string EncodeStreamResult(const StreamResultMsg& msg);
bool DecodeStreamResult(const std::string& payload, StreamResultMsg* out);

// ---- Stats / health --------------------------------------------------------

// A shard's Stats() snapshot plus the cluster-level fields only a router
// fills (a plain shardd reports num_shards = 1 and zeros). Doubles as the
// health-check heartbeat: the router pings each shard with kStats and
// counts misses.
struct StatsReply {
  engine::ShardStats stats;
  int32_t num_shards = 1;
  int64_t failovers = 0;
  int64_t rehomed_datasets = 0;
  int64_t dead_shards = 0;
  // Replication / certain-answer fields (router only; shardd leaves the
  // defaults: replication 1, everything else 0).
  int32_t replication = 1;
  int64_t replicas_behind = 0;   // (dataset, shard) pairs below committed
  int64_t read_failovers = 0;    // reads served by a non-primary replica
  int64_t certain_answers = 0;
  int64_t degraded_answers = 0;
  int64_t plan_resyncs = 0;      // kSyncPlans fan-outs that landed
};

std::string EncodeStatsReply(const StatsReply& reply);
bool DecodeStatsReply(const std::string& payload, StatsReply* out);

// ---- Small fixed payloads --------------------------------------------------

std::string EncodeTicketId(uint64_t id);
bool DecodeTicketId(const std::string& payload, uint64_t* id);

struct TicketStateReply {
  engine::QueryState state = engine::QueryState::kQueued;
  double progress = 0.0;
};
std::string EncodeTicketState(const TicketStateReply& reply);
bool DecodeTicketState(const std::string& payload, TicketStateReply* out);

std::string EncodeRegisterReply(uint64_t plans_warmed);
bool DecodeRegisterReply(const std::string& payload, uint64_t* plans_warmed);

std::string EncodeName(const std::string& name);
bool DecodeName(const std::string& payload, std::string* name);

// ---- Replies ---------------------------------------------------------------

// A reply frame of `type` answering request `request_id`.
net::Frame Reply(uint64_t request_id, net::FrameType type,
                 std::string payload);
// The empty kOk reply.
net::Frame OkFrame(uint64_t request_id);

// ---- Errors ----------------------------------------------------------------

// kError frames carry (StatusCode, message) so a server-side failure
// arrives as the same Status the in-process call would have returned.
net::Frame MakeErrorFrame(uint64_t request_id, const common::Status& status);
common::Status DecodeErrorFrame(const net::Frame& frame);
// kError(kInvalidArgument) for a request whose payload failed to decode.
net::Frame BadPayload(const net::Frame& req);

}  // namespace zeus::cluster

#endif  // ZEUS_CLUSTER_PROTOCOL_H_
