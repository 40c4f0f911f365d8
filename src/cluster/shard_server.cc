#include "cluster/shard_server.h"

#include <algorithm>
#include <optional>

#include "cluster/metrics_text.h"
#include "common/logging.h"
#include "core/query.h"

namespace zeus::cluster {

ShardServer::ShardServer(Options options)
    : opts_(std::move(options)),
      engine_(opts_.engine),
      server_(opts_.name, opts_.write_deadline_ms,
              [this](const net::Frame& req) { return Dispatch(req); },
              [this] { return MetricsText(); }) {}

ShardServer::~ShardServer() { Stop(); }

common::Status ShardServer::Start() {
  if (running_.load()) return common::Status::FailedPrecondition("running");
  ZEUS_RETURN_IF_ERROR(server_.Start(opts_.host, opts_.port));
  running_.store(true);
  ZEUS_LOG(Info) << opts_.name << " listening on " << opts_.host << ":"
                 << port();
  return common::Status::Ok();
}

void ShardServer::Stop() { Shutdown(/*drain=*/true); }

void ShardServer::Kill() { Shutdown(/*drain=*/false); }

void ShardServer::Shutdown(bool drain) {
  if (!running_.exchange(false)) return;
  server_.CloseListener();
  {
    // Cancel standing queries first: a connection thread parked in a
    // long-poll Next() wakes as kCancelled instead of riding out its
    // timeout against a closing server. Even the kill -9 stand-in does
    // this — they are this process's threads, not the dead server's.
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto& [id, sub] : subs_) sub.ticket.Cancel();
  }
  // Stop drains before kicking connections: requests already inside the
  // engine finish and their responses still go out. New frames racing in will
  // fail when their connection is shut below — the cluster contract is
  // explicit kUnavailable, not silent loss, and the client side maps a
  // dead connection to exactly that.
  if (drain) engine_.DrainAll();
  server_.Stop();
}

std::string ShardServer::MetricsText() {
  engine::GroupStats stats;
  stats.Absorb(engine_.Stats());
  stats.num_shards = 1;
  return PrometheusText(stats, ClusterHealth{});
}

net::Frame ShardServer::Dispatch(const net::Frame& req) {
  switch (req.type) {
    case net::FrameType::kPing:
      return Reply(req.request_id, net::FrameType::kPong, {});
    case net::FrameType::kExecute:
      return HandleExecute(req);
    case net::FrameType::kSubmit:
      return HandleSubmit(req);
    case net::FrameType::kCancel:
      return HandleCancel(req);
    case net::FrameType::kTicketState:
      return HandleTicketState(req);
    case net::FrameType::kTicketWait:
      return HandleTicketWait(req);
    case net::FrameType::kStats:
      return HandleStats(req);
    case net::FrameType::kRegisterDataset:
      return HandleRegisterDataset(req);
    case net::FrameType::kRemoveDataset:
      return HandleRemoveDataset(req);
    case net::FrameType::kSyncPlans:
      return HandleSyncPlans(req);
    case net::FrameType::kEpochQuery:
      return HandleEpochQuery(req);
    case net::FrameType::kAppendFrames:
      return HandleAppendFrames(req);
    case net::FrameType::kSubscribe:
      return HandleSubscribe(req);
    case net::FrameType::kStreamPoll:
      return HandleStreamPoll(req);
    case net::FrameType::kUnsubscribe:
      return HandleUnsubscribe(req);
    default:
      return MakeErrorFrame(
          req.request_id,
          common::Status::InvalidArgument(
              std::string("unexpected frame ") +
              net::FrameTypeName(req.type)));
  }
}

net::Frame ShardServer::HandleExecute(const net::Frame& req) {
  ExecRequest exec;
  if (!DecodeExecRequest(req.payload, &exec)) return BadPayload(req);
  auto parsed = core::QueryParser::Parse(exec.sql);
  if (!parsed.ok()) return MakeErrorFrame(req.request_id, parsed.status());
  engine::QueryOptions opts = engine_.options().exec;
  opts.priority = exec.priority;
  opts.tier = exec.tier;
  opts.min_accuracy = exec.min_accuracy;
  opts.max_latency_budget = exec.max_latency_budget;
  auto result = engine_.Execute(exec.dataset, parsed.value(), opts);
  if (!result.ok()) return MakeErrorFrame(req.request_id, result.status());
  engine::QueryResult stamped = std::move(result).value();
  stamped.epoch = AppliedEpoch(exec.dataset);
  return Reply(req.request_id, net::FrameType::kResult,
               EncodeQueryResult(stamped));
}

net::Frame ShardServer::HandleSubmit(const net::Frame& req) {
  ExecRequest exec;
  if (!DecodeExecRequest(req.payload, &exec)) return BadPayload(req);
  auto parsed = core::QueryParser::Parse(exec.sql);
  if (!parsed.ok()) return MakeErrorFrame(req.request_id, parsed.status());
  engine::QueryOptions opts = engine_.options().exec;
  opts.priority = exec.priority;
  opts.tier = exec.tier;
  opts.min_accuracy = exec.min_accuracy;
  opts.max_latency_budget = exec.max_latency_budget;
  auto ticket = engine_.Submit(exec.dataset, parsed.value(), opts);
  if (!ticket.ok()) return MakeErrorFrame(req.request_id, ticket.status());
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    id = next_ticket_id_++;
    tickets_.emplace(id,
                     PendingTicket{std::move(ticket).value(), exec.dataset});
  }
  return Reply(req.request_id, net::FrameType::kSubmitReply,
               EncodeTicketId(id));
}

net::Frame ShardServer::HandleCancel(const net::Frame& req) {
  uint64_t id = 0;
  if (!DecodeTicketId(req.payload, &id)) return BadPayload(req);
  std::lock_guard<std::mutex> lock(tickets_mu_);
  auto it = tickets_.find(id);
  // Cancel of an unknown (already reaped / never existed) ticket is a
  // no-op, which is what makes kCancel idempotent and retry-safe.
  if (it != tickets_.end()) it->second.ticket.Cancel();
  return OkFrame(req.request_id);
}

net::Frame ShardServer::HandleTicketState(const net::Frame& req) {
  uint64_t id = 0;
  if (!DecodeTicketId(req.payload, &id)) return BadPayload(req);
  std::lock_guard<std::mutex> lock(tickets_mu_);
  auto it = tickets_.find(id);
  if (it == tickets_.end()) {
    return MakeErrorFrame(req.request_id,
                          common::Status::NotFound("unknown ticket"));
  }
  TicketStateReply reply;
  reply.state = it->second.ticket.state();
  reply.progress = it->second.ticket.progress();
  return Reply(req.request_id, net::FrameType::kTicketStateReply,
               EncodeTicketState(reply));
}

net::Frame ShardServer::HandleTicketWait(const net::Frame& req) {
  uint64_t id = 0;
  if (!DecodeTicketId(req.payload, &id)) return BadPayload(req);
  std::optional<engine::QueryTicket> ticket;
  std::string dataset;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    auto it = tickets_.find(id);
    if (it != tickets_.end()) {
      ticket = it->second.ticket;  // copy: shared state
      dataset = it->second.dataset;
    }
  }
  if (!ticket.has_value()) {
    return MakeErrorFrame(req.request_id,
                          common::Status::NotFound("unknown ticket"));
  }
  // Wait outside the lock — other ticket operations proceed meanwhile.
  const auto& result = ticket->Wait();
  {
    // Terminal: the ticket has served its purpose.
    std::lock_guard<std::mutex> lock(tickets_mu_);
    tickets_.erase(id);
  }
  if (!result.ok()) return MakeErrorFrame(req.request_id, result.status());
  engine::QueryResult stamped = result.value();
  stamped.epoch = AppliedEpoch(dataset);
  return Reply(req.request_id, net::FrameType::kResult,
               EncodeQueryResult(stamped));
}

net::Frame ShardServer::HandleStats(const net::Frame& req) {
  StatsReply reply;
  reply.stats = engine_.Stats();
  reply.num_shards = 1;
  return Reply(req.request_id, net::FrameType::kStatsReply,
               EncodeStatsReply(reply));
}

net::Frame ShardServer::HandleRegisterDataset(const net::Frame& req) {
  DatasetSpec spec;
  if (!DecodeDatasetSpec(req.payload, &spec)) return BadPayload(req);
  if (!engine_.HasDataset(spec.name)) {
    auto dataset =
        video::SyntheticDataset::Generate(ProfileFor(spec), spec.seed);
    common::Status st = engine_.RegisterDataset(spec.name, std::move(dataset));
    // A racing duplicate registration is fine — the spec is deterministic,
    // so both writers produced the same dataset.
    if (!st.ok() && st.code() != common::StatusCode::kAlreadyExists) {
      return MakeErrorFrame(req.request_id, st);
    }
    ZEUS_LOG(Info) << opts_.name << " registered dataset '" << spec.name
                   << "'";
  }
  uint64_t warmed = 0;
  if (spec.warm_plans) {
    warmed = engine_.WarmUpDataset(spec.name);
    if (warmed > 0) {
      ZEUS_LOG(Info) << opts_.name << " warmed " << warmed << " plan(s) for '"
                     << spec.name << "'";
    }
  }
  {
    // Monotone: a re-delivered (retried or stale) registration can only
    // hold the epoch, never roll it back.
    std::lock_guard<std::mutex> lock(epochs_mu_);
    uint64_t& applied = epochs_[spec.name];
    applied = std::max(applied, spec.epoch);
  }
  return Reply(req.request_id, net::FrameType::kRegisterReply,
               EncodeRegisterReply(warmed));
}

net::Frame ShardServer::HandleRemoveDataset(const net::Frame& req) {
  std::string name;
  if (!DecodeName(req.payload, &name)) return BadPayload(req);
  if (engine_.HasDataset(name)) {
    engine_.DrainDataset(name);
    engine_.RemoveDataset(name);
  }
  {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    epochs_.erase(name);
  }
  return OkFrame(req.request_id);
}

net::Frame ShardServer::HandleSyncPlans(const net::Frame& req) {
  SyncPlansRequest sync;
  if (!DecodeSyncPlans(req.payload, &sync)) return BadPayload(req);
  if (!engine_.HasDataset(sync.name)) {
    // No replica here — the router falls back to a full RegisterDataset.
    return MakeErrorFrame(
        req.request_id,
        common::Status::NotFound("no replica of '" + sync.name + "'"));
  }
  SyncReply reply;
  // Re-read the dataset's persisted plans from the shared catalog; plans
  // trained elsewhere since the last sync become memory-resident here, so
  // a later promotion answers with planner_runs == 0.
  reply.plans_warmed = engine_.WarmUpDataset(sync.name);
  {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    uint64_t& applied = epochs_[sync.name];
    applied = std::max(applied, sync.epoch);
    reply.epoch = applied;
  }
  return Reply(req.request_id, net::FrameType::kSyncReply,
               EncodeSyncReply(reply));
}

net::Frame ShardServer::HandleEpochQuery(const net::Frame& req) {
  std::string name;
  if (!DecodeName(req.payload, &name)) return BadPayload(req);
  EpochReply reply;
  reply.has_dataset = engine_.HasDataset(name);
  reply.epoch = AppliedEpoch(name);
  if (const video::SyntheticDataset* ds = engine_.dataset(name)) {
    reply.stream_length = static_cast<uint64_t>(ds->stream_length());
  }
  return Reply(req.request_id, net::FrameType::kEpochReply,
               EncodeEpochReply(reply));
}

net::Frame ShardServer::HandleAppendFrames(const net::Frame& req) {
  AppendFramesRequest append;
  if (!DecodeAppendFrames(req.payload, &append)) return BadPayload(req);
  // Shards take only the absolute form: by the time an append reaches a
  // replica it must be replayable as-is (protocol.h). The relative
  // convenience form is the router's to resolve.
  if (append.target_frames == 0) {
    return MakeErrorFrame(
        req.request_id,
        common::Status::InvalidArgument(
            "shard requires the absolute append form (target_frames > 0)"));
  }
  auto outcome = engine_.GrowDataset(
      append.name, static_cast<long>(append.target_frames), append.epoch);
  if (!outcome.ok()) return MakeErrorFrame(req.request_id, outcome.status());
  {
    // The append commits a group epoch like a registration does: monotone,
    // so replays and out-of-order deliveries can only hold it.
    std::lock_guard<std::mutex> lock(epochs_mu_);
    uint64_t& applied = epochs_[append.name];
    applied = std::max(applied, append.epoch);
  }
  AppendReply reply;
  reply.frame_epoch = outcome.value().frame_epoch;
  reply.stream_length = static_cast<uint64_t>(outcome.value().stream_length);
  reply.appended = static_cast<uint64_t>(outcome.value().appended);
  return Reply(req.request_id, net::FrameType::kAppendReply,
               EncodeAppendReply(reply));
}

net::Frame ShardServer::HandleSubscribe(const net::Frame& req) {
  SubscribeRequest sub;
  if (!DecodeSubscribeRequest(req.payload, &sub)) return BadPayload(req);
  if (sub.sub_id == 0) {
    // Ids are always the caller's here (the router's routed id, or a direct
    // client's own): a server-assigned id could not survive a re-attach.
    return MakeErrorFrame(
        req.request_id,
        common::Status::InvalidArgument("shard subscribe needs a caller-"
                                        "chosen sub_id (> 0)"));
  }
  SubscribeReply reply;
  reply.sub_id = sub.sub_id;
  {
    // Replay / failover re-attach: the id already names a live
    // subscription here — join it instead of stacking a second one.
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(sub.sub_id);
    if (it != subs_.end() && !it->second.ticket.cancelled()) {
      const video::SyntheticDataset* ds = engine_.dataset(it->second.dataset);
      reply.frame_epoch = ds != nullptr ? ds->frame_epoch() : 0;
      reply.attached_existing = true;
      return Reply(req.request_id, net::FrameType::kSubscribeReply,
                   EncodeSubscribeReply(reply));
    }
  }
  engine::SubscribeOptions opts;
  opts.exec = engine_.options().exec;
  opts.exec.tier = sub.tier;
  opts.exec.min_accuracy = sub.min_accuracy;
  opts.exec.max_latency_budget = sub.max_latency_budget;
  opts.window_frames = sub.window_frames;
  if (sub.max_buffered > 0) opts.max_buffered = sub.max_buffered;
  auto ticket = engine_.Subscribe(sub.dataset, sub.sql, opts);
  if (!ticket.ok()) return MakeErrorFrame(req.request_id, ticket.status());
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    // A cancelled husk under this id (the replay check above skipped it)
    // is replaced — same id, fresh subscription, deterministic results.
    subs_.erase(sub.sub_id);
    subs_.emplace(sub.sub_id,
                  PendingSub{std::move(ticket).value(), sub.dataset});
  }
  const video::SyntheticDataset* ds = engine_.dataset(sub.dataset);
  reply.frame_epoch = ds != nullptr ? ds->frame_epoch() : 0;
  return Reply(req.request_id, net::FrameType::kSubscribeReply,
               EncodeSubscribeReply(reply));
}

net::Frame ShardServer::HandleStreamPoll(const net::Frame& req) {
  StreamPollRequest poll;
  if (!DecodeStreamPoll(req.payload, &poll)) return BadPayload(req);
  std::optional<engine::SubscriptionTicket> ticket;
  std::string dataset;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(poll.sub_id);
    if (it != subs_.end()) {
      ticket = it->second.ticket;  // copy: shared state
      dataset = it->second.dataset;
    }
  }
  if (!ticket.has_value()) {
    // This shard does not know the subscription — restarted, or never its
    // home. NotFound is the router's cue to re-attach (re-subscribe) on
    // the current primary and retry.
    return MakeErrorFrame(req.request_id,
                          common::Status::NotFound("unknown subscription"));
  }
  // Long-poll outside the lock; timeouts surface as kUnavailable
  // (retryable, nothing consumed — the cursor is the client's).
  auto update =
      ticket->Next(poll.after_seq, static_cast<int>(poll.timeout_ms));
  if (!update.ok()) return MakeErrorFrame(req.request_id, update.status());
  StreamResultMsg msg;
  msg.seq = update.value().seq;
  msg.dropped = static_cast<uint64_t>(ticket->dropped());
  msg.result = std::move(update).value().result;
  msg.result.epoch = AppliedEpoch(dataset);
  return Reply(req.request_id, net::FrameType::kStreamResult,
               EncodeStreamResult(msg));
}

net::Frame ShardServer::HandleUnsubscribe(const net::Frame& req) {
  uint64_t id = 0;
  if (!DecodeTicketId(req.payload, &id)) return BadPayload(req);
  std::lock_guard<std::mutex> lock(subs_mu_);
  auto it = subs_.find(id);
  // Unknown id (already unsubscribed, or a shard that restarted) is a
  // clean no-op — kUnsubscribe is idempotent and retry-safe.
  if (it != subs_.end()) {
    it->second.ticket.Cancel();
    subs_.erase(it);
  }
  return OkFrame(req.request_id);
}

uint64_t ShardServer::AppliedEpoch(const std::string& name) {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  auto it = epochs_.find(name);
  return it != epochs_.end() ? it->second : 0;
}

}  // namespace zeus::cluster
