#include "cluster/remote_shard.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace zeus::cluster {

namespace {

// Deterministic jitter: a Weyl-ish hash of the attempt's request id spread
// over the upper half of the backoff window. No RNG — the fault harness
// replays byte-identical schedules.
int BackoffMs(int attempt, uint64_t request_id, int base_ms, int max_ms) {
  int64_t delay = base_ms;
  for (int i = 1; i < attempt && delay < max_ms; ++i) delay *= 2;
  delay = std::min<int64_t>(delay, max_ms);
  const int64_t half = delay / 2;
  const uint64_t hash = request_id * 0x9E3779B97F4A7C15ull;
  return static_cast<int>(half + (hash >> 33) % (delay - half + 1));
}

common::Status MalformedReply(net::FrameType type, const std::string& shard) {
  return common::Status::Unavailable(std::string("malformed ") +
                                     net::FrameTypeName(type) +
                                     " payload from " + shard);
}

}  // namespace

// ---- RemoteTicket ----------------------------------------------------------

common::Result<TicketStateReply> RemoteTicket::State() {
  if (shard_ == nullptr) {
    return common::Status::FailedPrecondition("empty ticket");
  }
  return shard_->TicketState(id_);
}

common::Status RemoteTicket::Cancel() {
  if (shard_ == nullptr) {
    return common::Status::FailedPrecondition("empty ticket");
  }
  return shard_->Cancel(id_);
}

common::Result<engine::QueryResult> RemoteTicket::Wait() {
  if (shard_ == nullptr) {
    return common::Status::FailedPrecondition("empty ticket");
  }
  return shard_->TicketWait(id_);
}

// ---- RemoteShard -----------------------------------------------------------

RemoteShard::RemoteShard(Options options) : opts_(std::move(options)) {}

RemoteShard::~RemoteShard() { CloseConnections(); }

void RemoteShard::CloseConnections() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_.clear();  // FrameConn dtor closes the socket
}

common::Result<net::FrameConn> RemoteShard::Acquire() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      net::FrameConn conn = std::move(pool_.back());
      pool_.pop_back();
      return conn;
    }
  }
  net::TcpSocket socket;
  ZEUS_RETURN_IF_ERROR(
      socket.Connect(opts_.host, opts_.port, opts_.connect_timeout_ms));
  return net::FrameConn(std::move(socket), "client:" + opts_.name);
}

void RemoteShard::Release(net::FrameConn conn) {
  if (!conn.valid()) return;
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.size() < 8) pool_.push_back(std::move(conn));
}

common::Result<net::Frame> RemoteShard::Call(net::FrameType type,
                                             std::string payload,
                                             net::FrameType expect,
                                             int deadline_ms) {
  common::Status last = common::Status::Unavailable("no attempt made");
  const int attempts = std::max(1, opts_.max_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    uint64_t request_id = 0;
    {
      std::lock_guard<std::mutex> lock(seq_mu_);
      request_id = next_request_id_++;
    }
    if (attempt > 1) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(attempt, request_id,
                                              opts_.backoff_base_ms,
                                              opts_.backoff_max_ms)));
    }

    auto acquired = Acquire();
    if (!acquired.ok()) {
      // Nothing was sent: always retryable regardless of frame type.
      last = acquired.status();
      continue;
    }
    net::FrameConn conn = std::move(acquired).value();

    net::Frame req;
    req.type = type;
    req.request_id = request_id;
    req.payload = payload;  // copy: a retry resends the same bytes
    common::Status st = conn.WriteFrame(req, deadline_ms);
    if (!st.ok()) {
      // A failed write cannot have executed: the frame the server saw (if
      // any) fails its crc. Safe to retry even kExecute. The pooled
      // connection may simply have gone stale while idle, so this path is
      // also the reconnect path.
      last = st;
      continue;
    }

    net::Frame resp;
    st = conn.ReadFrame(&resp, deadline_ms);
    if (!st.ok()) {
      // The full request reached the wire but the answer is gone. Only
      // idempotent types may re-send; the rest surface kUnavailable and
      // let the caller apply its own policy (the explicit retryable-error
      // contract).
      last = common::Status::Unavailable(
          std::string(net::FrameTypeName(type)) + " to " + opts_.name +
          " lost its response: " + st.message());
      if (!net::IsIdempotent(type)) return last;
      continue;
    }

    if (resp.request_id != req.request_id) {
      // Desynchronized stream (a previous deadline abandoned a response
      // mid-flight). The connection is poisoned; same rules as a lost
      // response.
      last = common::Status::Unavailable("response for wrong request");
      if (!net::IsIdempotent(type)) return last;
      continue;
    }
    if (resp.type == net::FrameType::kError) {
      // The server answered: this is an application status, not a
      // transport fault. Never retried here.
      Release(std::move(conn));
      return DecodeErrorFrame(resp);
    }
    if (resp.type != expect) {
      last = common::Status::Unavailable(
          std::string("unexpected ") + net::FrameTypeName(resp.type) +
          " in reply to " + net::FrameTypeName(type));
      if (!net::IsIdempotent(type)) return last;
      continue;
    }
    Release(std::move(conn));
    return resp;
  }
  return last;
}

template <typename T>
common::Result<T> RemoteShard::CallDecoded(
    net::FrameType type, std::string payload, net::FrameType expect,
    int deadline_ms, bool (*decode)(const std::string&, T*)) {
  auto resp = Call(type, std::move(payload), expect, deadline_ms);
  if (!resp.ok()) return resp.status();
  T out{};
  if (!decode(resp.value().payload, &out)) {
    return MalformedReply(expect, opts_.name);
  }
  return out;
}

common::Status RemoteShard::Ping(int deadline_ms) {
  auto resp = Call(net::FrameType::kPing, {}, net::FrameType::kPong,
                   Deadline(deadline_ms));
  return resp.ok() ? common::Status::Ok() : resp.status();
}

common::Result<engine::QueryResult> RemoteShard::Execute(
    const ExecRequest& req, int deadline_ms) {
  return CallDecoded(net::FrameType::kExecute, EncodeExecRequest(req),
                     net::FrameType::kResult, Deadline(deadline_ms),
                     DecodeQueryResult);
}

common::Result<RemoteTicket> RemoteShard::Submit(const ExecRequest& req,
                                                 int deadline_ms) {
  auto id = CallDecoded(net::FrameType::kSubmit, EncodeExecRequest(req),
                        net::FrameType::kSubmitReply, Deadline(deadline_ms),
                        DecodeTicketId);
  if (!id.ok()) return id.status();
  return RemoteTicket(this, id.value());
}

common::Status RemoteShard::Cancel(uint64_t ticket_id, int deadline_ms) {
  auto resp = Call(net::FrameType::kCancel, EncodeTicketId(ticket_id),
                   net::FrameType::kOk, Deadline(deadline_ms));
  return resp.ok() ? common::Status::Ok() : resp.status();
}

common::Result<TicketStateReply> RemoteShard::TicketState(uint64_t ticket_id,
                                                          int deadline_ms) {
  return CallDecoded(net::FrameType::kTicketState, EncodeTicketId(ticket_id),
                     net::FrameType::kTicketStateReply, Deadline(deadline_ms),
                     DecodeTicketState);
}

common::Result<engine::QueryResult> RemoteShard::TicketWait(
    uint64_t ticket_id, int deadline_ms) {
  return CallDecoded(net::FrameType::kTicketWait, EncodeTicketId(ticket_id),
                     net::FrameType::kResult, Deadline(deadline_ms),
                     DecodeQueryResult);
}

common::Result<StatsReply> RemoteShard::Stats(int deadline_ms) {
  return CallDecoded(net::FrameType::kStats, {}, net::FrameType::kStatsReply,
                     Deadline(deadline_ms), DecodeStatsReply);
}

common::Result<uint64_t> RemoteShard::RegisterDataset(const DatasetSpec& spec,
                                                      int deadline_ms) {
  return CallDecoded(net::FrameType::kRegisterDataset, EncodeDatasetSpec(spec),
                     net::FrameType::kRegisterReply, Deadline(deadline_ms),
                     DecodeRegisterReply);
}

common::Result<SyncReply> RemoteShard::SyncPlans(const std::string& name,
                                                 uint64_t epoch,
                                                 int deadline_ms) {
  return CallDecoded(net::FrameType::kSyncPlans,
                     EncodeSyncPlans(SyncPlansRequest{name, epoch}),
                     net::FrameType::kSyncReply, Deadline(deadline_ms),
                     DecodeSyncReply);
}

common::Result<EpochReply> RemoteShard::EpochOf(const std::string& name,
                                                int deadline_ms) {
  return CallDecoded(net::FrameType::kEpochQuery, EncodeName(name),
                     net::FrameType::kEpochReply, Deadline(deadline_ms),
                     DecodeEpochReply);
}

common::Status RemoteShard::RemoveDataset(const std::string& name,
                                          int deadline_ms) {
  auto resp = Call(net::FrameType::kRemoveDataset, EncodeName(name),
                   net::FrameType::kOk, Deadline(deadline_ms));
  return resp.ok() ? common::Status::Ok() : resp.status();
}

common::Result<AppendReply> RemoteShard::AppendFrames(
    const AppendFramesRequest& req, int deadline_ms) {
  return CallDecoded(net::FrameType::kAppendFrames, EncodeAppendFrames(req),
                     net::FrameType::kAppendReply, Deadline(deadline_ms),
                     DecodeAppendReply);
}

common::Result<SubscribeReply> RemoteShard::Subscribe(
    const SubscribeRequest& req, int deadline_ms) {
  return CallDecoded(net::FrameType::kSubscribe, EncodeSubscribeRequest(req),
                     net::FrameType::kSubscribeReply, Deadline(deadline_ms),
                     DecodeSubscribeReply);
}

common::Result<StreamResultMsg> RemoteShard::StreamPoll(
    const StreamPollRequest& req, int deadline_ms) {
  // The poll's own long-poll window must fit inside the transport
  // deadline, or a quiet stream would be misread as a dead shard.
  const int deadline = std::max(Deadline(deadline_ms),
                                static_cast<int>(req.timeout_ms) + 2'000);
  return CallDecoded(net::FrameType::kStreamPoll, EncodeStreamPoll(req),
                     net::FrameType::kStreamResult, deadline,
                     DecodeStreamResult);
}

common::Status RemoteShard::Unsubscribe(uint64_t sub_id, int deadline_ms) {
  auto resp = Call(net::FrameType::kUnsubscribe, EncodeTicketId(sub_id),
                   net::FrameType::kOk, Deadline(deadline_ms));
  return resp.ok() ? common::Status::Ok() : resp.status();
}

}  // namespace zeus::cluster
