#include "cluster/router.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/stringutil.h"

namespace zeus::cluster {

Router::Router(Options options)
    : opts_(std::move(options)),
      server_(opts_.name, opts_.write_deadline_ms,
              [this](const net::Frame& req) { return Dispatch(req); },
              [this] { return PrometheusText(GroupStatsNow(), Health()); }) {}

Router::~Router() { Stop(); }

common::Status Router::Start() {
  if (opts_.shards.empty()) {
    return common::Status::InvalidArgument("router needs at least one shard");
  }
  if (running_.load()) return common::Status::FailedPrecondition("running");

  shards_.clear();
  shards_.reserve(opts_.shards.size());
  for (size_t i = 0; i < opts_.shards.size(); ++i) {
    ShardState state;
    state.endpoint = opts_.shards[i];

    RemoteShard::Options c;
    c.host = state.endpoint.host;
    c.port = state.endpoint.port;
    c.call_deadline_ms = opts_.call_deadline_ms;
    c.name = opts_.name + "->s" + std::to_string(i);
    state.client = std::make_unique<RemoteShard>(c);

    // The health probe never retries: a miss must be a miss, not three
    // stacked attempts that stretch the detection window.
    RemoteShard::Options p = c;
    p.max_attempts = 1;
    p.call_deadline_ms = opts_.health_deadline_ms;
    p.connect_timeout_ms = opts_.health_deadline_ms;
    p.name = c.name + ":probe";
    state.probe = std::make_unique<RemoteShard>(p);

    shards_.push_back(std::move(state));
  }
  alive_count_ = static_cast<int>(shards_.size());
  opts_.replication = std::max(
      1, std::min(opts_.replication, static_cast<int>(shards_.size())));
  RebuildRingLocked();  // no threads yet; the "Locked" contract is vacuous

  ZEUS_RETURN_IF_ERROR(server_.Start(opts_.host, opts_.port));
  running_.store(true);
  if (opts_.health_interval_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  ZEUS_LOG(Info) << opts_.name << " listening on " << opts_.host << ":"
                 << port() << " with " << shards_.size() << " shard(s)";
  return common::Status::Ok();
}

void Router::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_cv_.notify_all();
  }
  if (health_thread_.joinable()) health_thread_.join();
  server_.Stop();
}

// ---- Routing ---------------------------------------------------------------

void Router::RebuildRingLocked() {
  std::vector<int> alive_ids;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].alive) alive_ids.push_back(static_cast<int>(i));
  }
  ring_ = alive_ids.empty()
              ? nullptr
              : std::make_unique<engine::ShardRing>(alive_ids);
}

std::vector<int> Router::CandidatesLocked(const std::string& dataset) const {
  std::vector<int> out;
  if (alive_count_ == 0 || ring_ == nullptr) return out;
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    out.push_back(ring_->ShardFor(dataset));
    return out;
  }
  const auto& holders = it->second.replica_epochs;
  // Ring order: primary first, then successors — the stable preference
  // that keeps each dataset's plan cache hot on one shard.
  for (int id : ring_->ShardsFor(dataset, opts_.replication)) {
    if (holders.count(id) > 0 && shards_[id].alive) out.push_back(id);
  }
  // Holders outside the current target set (placement drifted after a
  // membership change, repair not landed yet) still serve correct reads.
  for (const auto& [id, epoch] : holders) {
    (void)epoch;
    if (shards_[id].alive &&
        std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
  }
  return out;
}

common::Result<uint64_t> Router::RegisterDataset(const DatasetSpec& spec) {
  struct Target {
    int id;
    RemoteShard* client;
  };
  std::vector<Target> targets;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (alive_count_ == 0 || ring_ == nullptr) {
      return common::Status::Unavailable("no alive shards");
    }
    auto it = datasets_.find(spec.name);
    epoch = (it != datasets_.end() ? it->second.committed_epoch : 0) + 1;
    for (int id : ring_->ShardsFor(spec.name, opts_.replication)) {
      targets.push_back({id, shards_[id].client.get()});
    }
  }

  // Fan the write to the whole replica set, primary first. The primary
  // must land (otherwise the registration failed); a secondary that
  // doesn't respond is left behind and the repair pass catches it up.
  DatasetSpec stamped = spec;
  stamped.epoch = epoch;
  uint64_t warmed = 0;
  std::vector<int> applied;
  for (size_t i = 0; i < targets.size(); ++i) {
    auto reg = targets[i].client->RegisterDataset(stamped);
    if (reg.ok()) {
      if (i == 0) warmed = reg.value();
      applied.push_back(targets[i].id);
    } else if (i == 0) {
      return reg.status();
    } else {
      ZEUS_LOG(Warning) << opts_.name << " replica registration of '"
                        << spec.name << "' on shard " << targets[i].id
                        << " failed (repair will retry): "
                        << reg.status().ToString();
    }
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  DatasetState& state = datasets_[spec.name];
  state.spec = stamped;
  state.committed_epoch = std::max(state.committed_epoch, epoch);
  if (state.committed_frames == 0) {
    // Base stream length from the spec's profile; only appends move it.
    state.committed_frames =
        static_cast<uint64_t>(ProfileFor(stamped).frames_per_video);
  }
  for (int id : applied) {
    uint64_t& e = state.replica_epochs[id];
    e = std::max(e, epoch);
  }
  return warmed;
}

common::Result<engine::QueryResult> Router::Execute(const std::string& dataset,
                                                    const std::string& sql,
                                                    int priority) {
  ExecRequest req;
  req.dataset = dataset;
  req.sql = sql;
  req.priority = priority;
  return Execute(req);
}

common::Result<engine::QueryResult> Router::Execute(const ExecRequest& req) {
  const std::string& dataset = req.dataset;
  std::vector<int> candidates;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    candidates = CandidatesLocked(dataset);
  }
  if (candidates.empty()) {
    return common::Status::Unavailable("no live replica of '" + dataset +
                                       "'; re-homing, retry");
  }

  // Primary-first with in-call failover: a retryable failure (dead shard,
  // lost response) moves to the next replica inside this call — no
  // health-check round-trip, no client-visible error window. Re-running
  // the query on another replica is safe: datasets are immutable and
  // deterministic from their spec, so a read is a pure function and
  // at-least-once execution returns the same bytes.
  common::Status last = common::Status::Unavailable("no candidate tried");
  for (size_t i = 0; i < candidates.size(); ++i) {
    RemoteShard* client = nullptr;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (!shards_[candidates[i]].alive) continue;  // died since snapshot
      client = shards_[candidates[i]].client.get();
    }
    auto result = client->Execute(req);
    if (result.ok()) {
      if (i > 0) {
        std::lock_guard<std::mutex> lock(state_mu_);
        ++read_failovers_;
      }
      engine::QueryResult r =
          AnnotateResult(dataset, candidates[i], std::move(result).value());
      if (r.plan_seconds > 0) PropagatePlans(dataset);
      return r;
    }
    if (!common::IsRetryable(result.status().code())) return result.status();
    last = result.status();
  }
  return last;
}

common::Status Router::RemoveDataset(const std::string& name) {
  struct Target {
    int id;
    RemoteShard* client;
  };
  std::vector<Target> targets;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (alive_count_ == 0 || ring_ == nullptr) {
      return common::Status::Unavailable("no alive shards");
    }
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      // Unknown to the catalog: forward to the ring owner, whose remove of
      // a dataset it never held is a no-op.
      const int home = ring_->ShardFor(name);
      targets.push_back({home, shards_[home].client.get()});
    } else {
      for (const auto& [id, epoch] : it->second.replica_epochs) {
        (void)epoch;
        if (shards_[id].alive) {
          targets.push_back({id, shards_[id].client.get()});
        }
      }
    }
  }
  // Remove from every live replica; kRemoveDataset is idempotent, so a
  // partial failure is safe to retry wholesale.
  common::Status result = common::Status::Ok();
  for (const Target& t : targets) {
    common::Status st = t.client->RemoveDataset(name);
    if (!st.ok()) result = st;
  }
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    datasets_.erase(name);
  }
  return result;
}

// ---- Live streams ----------------------------------------------------------

common::Result<AppendReply> Router::AppendFrames(const std::string& name,
                                                 uint64_t frames) {
  if (frames == 0) {
    return common::Status::InvalidArgument("append needs frames > 0");
  }
  // One append fan-out at a time: the (target, epoch) pair must be stamped
  // against the state the previous append committed.
  std::lock_guard<std::mutex> append_lock(append_mu_);

  struct Target {
    int id;
    RemoteShard* client;
  };
  std::vector<Target> targets;
  AppendFramesRequest wire;
  wire.name = name;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (alive_count_ == 0 || ring_ == nullptr) {
      return common::Status::Unavailable("no alive shards");
    }
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return common::Status::NotFound("dataset '" + name +
                                      "' is not registered with the router");
    }
    wire.target_frames = it->second.committed_frames + frames;
    wire.epoch = it->second.committed_epoch + 1;
    for (int id : CandidatesLocked(name)) {
      targets.push_back({id, shards_[id].client.get()});
    }
  }
  if (targets.empty()) {
    return common::Status::Unavailable("no live replica of '" + name +
                                       "'; re-homing, retry");
  }

  // Fan the absolute form to every live replica, primary first. The
  // primary must land (otherwise the append failed); a secondary that
  // misses stays at its old length and the repair pass replays the SAME
  // absolute (target, epoch) — convergent by construction.
  AppendReply primary;
  std::vector<int> applied;
  for (size_t i = 0; i < targets.size(); ++i) {
    auto reply = targets[i].client->AppendFrames(wire);
    if (reply.ok()) {
      if (i == 0) primary = reply.value();
      applied.push_back(targets[i].id);
    } else if (i == 0) {
      return reply.status();
    } else {
      ZEUS_LOG(Warning) << opts_.name << " append of '" << name
                        << "' to replica shard " << targets[i].id
                        << " failed (repair will replay): "
                        << reply.status().ToString();
    }
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = datasets_.find(name);
  if (it != datasets_.end()) {
    DatasetState& state = it->second;
    state.committed_frames =
        std::max(state.committed_frames, wire.target_frames);
    state.committed_epoch = std::max(state.committed_epoch, wire.epoch);
    for (int id : applied) {
      uint64_t& e = state.replica_epochs[id];
      e = std::max(e, wire.epoch);
    }
  }
  return primary;
}

common::Result<std::pair<int, SubscribeReply>> Router::AttachSubscription(
    const SubscribeRequest& req) {
  std::vector<int> candidates;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    candidates = CandidatesLocked(req.dataset);
  }
  if (candidates.empty()) {
    return common::Status::Unavailable("no live replica of '" + req.dataset +
                                       "'; re-homing, retry");
  }
  common::Status last = common::Status::Unavailable("no candidate tried");
  for (size_t i = 0; i < candidates.size(); ++i) {
    RemoteShard* client = nullptr;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (!shards_[candidates[i]].alive) continue;
      client = shards_[candidates[i]].client.get();
    }
    auto reply = client->Subscribe(req);
    if (reply.ok()) {
      if (i > 0) {
        std::lock_guard<std::mutex> lock(state_mu_);
        ++read_failovers_;
      }
      return std::make_pair(candidates[i], reply.value());
    }
    if (!common::IsRetryable(reply.status().code())) return reply.status();
    last = reply.status();
  }
  return last;
}

common::Result<SubscribeReply> Router::Subscribe(SubscribeRequest req) {
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    if (req.sub_id == 0) {
      req.sub_id = next_sub_id_++;
    } else {
      next_sub_id_ = std::max(next_sub_id_, req.sub_id + 1);
      auto it = subs_.find(req.sub_id);
      if (it != subs_.end()) {
        // Replay of a subscribe that already landed: the routed
        // subscription exists; report the attach without touching its
        // cursor state (the poll path re-attaches the shard side lazily).
        SubscribeReply reply;
        reply.sub_id = req.sub_id;
        reply.attached_existing = true;
        return reply;
      }
    }
  }
  auto attach = AttachSubscription(req);
  if (!attach.ok()) return attach.status();
  std::lock_guard<std::mutex> lock(subs_mu_);
  RoutedSub& sub = subs_[req.sub_id];
  sub.req = req;
  sub.shard = attach.value().first;
  SubscribeReply reply = attach.value().second;
  reply.sub_id = req.sub_id;
  return reply;
}

common::Result<StreamResultMsg> Router::StreamPoll(uint64_t sub_id,
                                                   uint64_t after_seq,
                                                   uint32_t timeout_ms) {
  {
    // Lost-response replay: the client polls with the cursor of the last
    // update it SAW; if that lags what we already delivered, hand the
    // stored copy back instead of advancing past it.
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) {
      return common::Status::NotFound("unknown subscription");
    }
    const RoutedSub& sub = it->second;
    if (sub.delivered_any && after_seq + 1 < sub.next_out_seq) {
      return sub.last_out;
    }
  }

  // Bounded passes: each one either delivers, re-attaches after a failover
  // (and retries), or swallows a window the consumer already has (and
  // retries).
  for (int attempt = 0; attempt < 8; ++attempt) {
    SubscribeRequest req;
    int shard = -1;
    uint64_t remote_after = 0;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it == subs_.end()) {
        return common::Status::NotFound("unknown subscription");
      }
      req = it->second.req;
      shard = it->second.shard;
      remote_after = it->second.remote_last_seq;
    }

    RemoteShard* client = nullptr;
    if (shard >= 0) {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (shards_[shard].alive) client = shards_[shard].client.get();
    }
    if (client == nullptr) {
      // Host gone: re-attach to the current primary. Same id = same
      // kSubscribe frame; the new host replays its current window, which
      // the epoch dedupe below swallows if it was already delivered.
      auto attach = AttachSubscription(req);
      if (!attach.ok()) return attach.status();
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it == subs_.end()) {
        return common::Status::NotFound("unknown subscription");
      }
      it->second.shard = attach.value().first;
      it->second.remote_last_seq = 0;
      continue;
    }

    StreamPollRequest poll;
    poll.sub_id = sub_id;
    poll.after_seq = remote_after;
    poll.timeout_ms = timeout_ms;
    auto msg = client->StreamPoll(poll);
    if (!msg.ok()) {
      const common::StatusCode code = msg.status().code();
      if (code == common::StatusCode::kNotFound) {
        // Amnesiac host (restarted under the same endpoint): force a
        // re-attach on the next pass.
        std::lock_guard<std::mutex> lock(subs_mu_);
        auto it = subs_.find(sub_id);
        if (it != subs_.end()) {
          it->second.shard = -1;
          it->second.remote_last_seq = 0;
        }
        continue;
      }
      if (code == common::StatusCode::kUnavailable) {
        bool still_alive = false;
        {
          std::lock_guard<std::mutex> lock(state_mu_);
          still_alive = shard >= 0 &&
                        shard < static_cast<int>(shards_.size()) &&
                        shards_[shard].alive;
        }
        // Still alive = a plain long-poll timeout (nothing new in the
        // window) — surface it, the client re-polls. Dead = the host
        // failed mid-poll; the next pass re-attaches.
        if (still_alive) return msg.status();
        continue;
      }
      return msg.status();
    }

    StreamResultMsg out = std::move(msg).value();
    bool duplicate = false;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it == subs_.end()) {
        return common::Status::NotFound("unknown subscription");
      }
      RoutedSub& sub = it->second;
      sub.shard = shard;
      sub.remote_last_seq = std::max(sub.remote_last_seq, out.seq);
      if (sub.delivered_any &&
          out.result.frame_epoch <= sub.last_epoch_delivered) {
        // Replay of a window the consumer already has (the re-attached
        // host's initial window): swallow it and poll again.
        duplicate = true;
      } else {
        sub.delivered_any = true;
        sub.last_epoch_delivered = out.result.frame_epoch;
        sub.dropped += out.dropped;
        out.dropped = sub.dropped;  // cumulative across failovers
        out.seq = sub.next_out_seq++;
      }
    }
    if (duplicate) continue;
    out.result = AnnotateResult(req.dataset, shard, std::move(out.result));
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it != subs_.end()) it->second.last_out = out;
    }
    return out;
  }
  return common::Status::Unavailable(
      "subscription catch-up still converging; retry");
}

common::Status Router::Unsubscribe(uint64_t sub_id) {
  int shard = -1;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) return common::Status::Ok();  // idempotent
    shard = it->second.shard;
    subs_.erase(it);
  }
  RemoteShard* client = nullptr;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (shard >= 0 && shard < static_cast<int>(shards_.size()) &&
        shards_[shard].alive) {
      client = shards_[shard].client.get();
    }
  }
  // Routed state is gone either way; a host we cannot reach reaps the
  // orphan when it stops (and an unsubscribe replay there is kOk).
  if (client != nullptr) return client->Unsubscribe(sub_id);
  return common::Status::Ok();
}

engine::QueryResult Router::AnnotateResult(const std::string& dataset,
                                           int served_by,
                                           engine::QueryResult r) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = datasets_.find(dataset);
  const uint64_t committed =
      it != datasets_.end() ? it->second.committed_epoch : 0;
  if (r.epoch == committed) {
    r.consistency = engine::Consistency::kCertain;
    r.divergence.clear();
    ++certain_answers_;
  } else {
    r.consistency = engine::Consistency::kDegraded;
    r.divergence = common::Format(
        "shard %d served epoch %llu, committed epoch is %llu "
        "(replica catch-up in flight)",
        served_by, static_cast<unsigned long long>(r.epoch),
        static_cast<unsigned long long>(committed));
    ++degraded_answers_;
  }
  return r;
}

void Router::PropagatePlans(const std::string& dataset) {
  struct Target {
    int id;
    RemoteShard* client;
  };
  std::vector<Target> targets;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = datasets_.find(dataset);
    if (it == datasets_.end()) return;
    epoch = it->second.committed_epoch + 1;
    for (const auto& [id, applied] : it->second.replica_epochs) {
      (void)applied;
      if (shards_[id].alive) {
        targets.push_back({id, shards_[id].client.get()});
      }
    }
  }
  if (targets.empty()) return;

  std::vector<std::pair<int, uint64_t>> applied;
  for (const Target& t : targets) {
    auto sync = t.client->SyncPlans(dataset, epoch);
    if (sync.ok()) {
      applied.emplace_back(t.id, sync.value().epoch);
    } else {
      ZEUS_LOG(Warning) << opts_.name << " plan sync of '" << dataset
                        << "' to shard " << t.id
                        << " failed (repair will retry): "
                        << sync.status().ToString();
    }
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) return;  // removed while we were syncing
  it->second.committed_epoch = std::max(it->second.committed_epoch, epoch);
  for (const auto& [id, e] : applied) {
    uint64_t& cur = it->second.replica_epochs[id];
    cur = std::max(cur, e);
    ++resyncs_;
  }
}

void Router::RepairReplicas() {
  struct Fix {
    std::string name;
    DatasetSpec spec;
    uint64_t committed = 0;
    uint64_t frames = 0;  // committed stream length to replay
    int id = -1;
    RemoteShard* client = nullptr;
    bool full_register = false;  // missing replica vs. lagging epoch
  };
  std::vector<Fix> fixes;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (alive_count_ == 0 || ring_ == nullptr) return;
    for (const auto& [name, state] : datasets_) {
      for (int id : ring_->ShardsFor(name, opts_.replication)) {
        if (!shards_[id].alive) continue;
        auto rit = state.replica_epochs.find(id);
        if (rit == state.replica_epochs.end()) {
          fixes.push_back({name, state.spec, state.committed_epoch,
                           state.committed_frames, id,
                           shards_[id].client.get(), true});
        } else if (rit->second < state.committed_epoch) {
          fixes.push_back({name, state.spec, state.committed_epoch,
                           state.committed_frames, id,
                           shards_[id].client.get(), false});
        }
      }
    }
  }

  for (const Fix& fix : fixes) {
    // Frame catch-up (kAppendFrames, absolute form = idempotent no-op on a
    // replica that already has them) runs BEFORE the replica may claim the
    // committed epoch: a plan sync also advances epochs, so an epoch that
    // runs ahead of the replica's stream length would hide a missed append
    // forever (the silent-stale hole the certain-answer contract closes).
    const uint64_t base =
        static_cast<uint64_t>(ProfileFor(fix.spec).frames_per_video);
    const bool replay_frames = fix.frames > base;
    if (fix.full_register) {
      // New replica: full registration with the catalog handoff. Epoch =
      // committed (it is catching up to existing state, not creating new
      // state), so its first answer is already kCertain — unless frames
      // must be replayed too, in which case the APPEND carries the epoch
      // and the registration claims none.
      DatasetSpec spec = fix.spec;
      spec.warm_plans = true;
      spec.epoch = replay_frames ? 0 : fix.committed;
      auto reg = fix.client->RegisterDataset(spec);
      if (!reg.ok()) {
        ZEUS_LOG(Warning) << opts_.name << " repair: registering '"
                          << fix.name << "' on shard " << fix.id
                          << " failed: " << reg.status().ToString();
        continue;
      }
      if (replay_frames) {
        AppendFramesRequest grow;
        grow.name = fix.name;
        grow.target_frames = fix.frames;
        grow.epoch = fix.committed;
        auto grown = fix.client->AppendFrames(grow);
        if (!grown.ok()) {
          // Registered but behind: no epoch recorded, so the next pass
          // comes back through this branch and retries the replay.
          ZEUS_LOG(Warning) << opts_.name << " repair: frame replay of '"
                            << fix.name << "' (" << fix.frames
                            << " frames) to shard " << fix.id
                            << " failed: " << grown.status().ToString();
          continue;
        }
      }
      ZEUS_LOG(Info) << opts_.name << " repair: dataset '" << fix.name
                     << "' replicated to shard " << fix.id << " ("
                     << reg.value() << " plan(s) warmed"
                     << (replay_frames ? ", frames replayed" : "") << ")";
      std::lock_guard<std::mutex> lock(state_mu_);
      auto it = datasets_.find(fix.name);
      if (it == datasets_.end()) continue;
      uint64_t& e = it->second.replica_epochs[fix.id];
      e = std::max(e, fix.committed);
      ++rehomed_;
    } else {
      if (replay_frames) {
        // Epoch 0 on purpose: grow the frames without advancing the
        // applied epoch — the SyncPlans below advances it only once the
        // plans are current too.
        AppendFramesRequest grow;
        grow.name = fix.name;
        grow.target_frames = fix.frames;
        grow.epoch = 0;
        auto grown = fix.client->AppendFrames(grow);
        if (!grown.ok() &&
            grown.status().code() == common::StatusCode::kNotFound) {
          // The shard lost the dataset (e.g. restarted under the same
          // endpoint): forget its epoch so the next pass re-registers it.
          std::lock_guard<std::mutex> lock(state_mu_);
          auto it = datasets_.find(fix.name);
          if (it != datasets_.end()) it->second.replica_epochs.erase(fix.id);
          continue;
        }
        if (!grown.ok()) {
          ZEUS_LOG(Warning) << opts_.name << " repair: frame replay of '"
                            << fix.name << "' to shard " << fix.id
                            << " failed: " << grown.status().ToString();
          continue;  // do NOT sync plans — the epoch would outrun the frames
        }
      }
      auto sync = fix.client->SyncPlans(fix.name, fix.committed);
      if (!sync.ok() &&
          sync.status().code() == common::StatusCode::kNotFound) {
        // The shard lost the dataset (e.g. restarted under the same
        // endpoint): forget its epoch so the next pass re-registers it.
        std::lock_guard<std::mutex> lock(state_mu_);
        auto it = datasets_.find(fix.name);
        if (it != datasets_.end()) it->second.replica_epochs.erase(fix.id);
        continue;
      }
      if (!sync.ok()) {
        ZEUS_LOG(Warning) << opts_.name << " repair: plan sync of '"
                          << fix.name << "' to shard " << fix.id
                          << " failed: " << sync.status().ToString();
        continue;
      }
      std::lock_guard<std::mutex> lock(state_mu_);
      auto it = datasets_.find(fix.name);
      if (it == datasets_.end()) continue;
      uint64_t& e = it->second.replica_epochs[fix.id];
      e = std::max(e, sync.value().epoch);
      ++resyncs_;
    }
  }
}

// ---- Stats -----------------------------------------------------------------

engine::GroupStats Router::GroupStatsNow() {
  struct Target {
    int id;
    RemoteShard* probe;
  };
  std::vector<Target> targets;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].alive) {
        targets.push_back({static_cast<int>(i), shards_[i].probe.get()});
      }
    }
  }

  // Collect outside the lock (each probe is one bounded attempt; a slow
  // shard delays the scrape, never routing).
  std::vector<std::pair<int, StatsReply>> fresh;
  for (const Target& t : targets) {
    auto reply = t.probe->Stats();
    if (reply.ok()) fresh.emplace_back(t.id, std::move(reply).value());
  }

  engine::GroupStats group;
  std::lock_guard<std::mutex> lock(state_mu_);
  for (auto& [id, reply] : fresh) {
    shards_[id].last_stats = reply.stats;
    shards_[id].last_stats.shard = id;
    shards_[id].have_stats = true;
  }
  group.num_shards = alive_count_;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Alive shards contribute their latest snapshot (the just-fetched one
    // when the probe answered, the previous one when it was slow).
    if (shards_[i].alive && shards_[i].have_stats) {
      group.Absorb(shards_[i].last_stats);
    }
  }
  if (have_carry_) group.AbsorbTotals(carry_);
  return group;
}

ClusterHealth Router::Health() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  ClusterHealth health;
  health.failovers = failovers_;
  health.rehomed_datasets = rehomed_;
  health.dead_shards =
      static_cast<int64_t>(shards_.size()) - alive_count_;
  health.replication = opts_.replication;
  health.read_failovers = read_failovers_;
  health.certain_answers = certain_answers_;
  health.degraded_answers = degraded_answers_;
  health.plan_resyncs = resyncs_;
  for (const auto& [name, state] : datasets_) {
    ClusterHealth::DatasetPlacement placement;
    placement.dataset = name;
    placement.primary =
        (alive_count_ > 0 && ring_ != nullptr) ? ring_->ShardFor(name) : -1;
    placement.committed_epoch = state.committed_epoch;
    for (const auto& [id, applied] : state.replica_epochs) {
      (void)applied;
      if (shards_[id].alive) ++placement.replicas;
    }
    if (alive_count_ > 0 && ring_ != nullptr) {
      for (int id : ring_->ShardsFor(name, opts_.replication)) {
        if (!shards_[id].alive) continue;
        auto rit = state.replica_epochs.find(id);
        if (rit == state.replica_epochs.end() ||
            rit->second < state.committed_epoch) {
          ++health.replicas_behind;
        }
      }
    }
    health.placements.push_back(std::move(placement));
  }
  return health;
}

StatsReply Router::Stats() {
  engine::GroupStats group = GroupStatsNow();
  ClusterHealth health = Health();
  StatsReply reply;
  // Exact aggregate over the alive shards plus the dead-shard carry, with
  // per-dataset rows merged by name so `.stats`-style clients keep their
  // breakdown. The same ShardStats::Merge folds retired shards in
  // EngineGroup.
  for (const auto& shard : group.shards) reply.stats.Merge(shard);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (have_carry_) reply.stats.Merge(carry_);
  }
  reply.num_shards = group.num_shards;
  reply.failovers = health.failovers;
  reply.rehomed_datasets = health.rehomed_datasets;
  reply.dead_shards = health.dead_shards;
  reply.replication = health.replication;
  reply.replicas_behind = health.replicas_behind;
  reply.read_failovers = health.read_failovers;
  reply.certain_answers = health.certain_answers;
  reply.degraded_answers = health.degraded_answers;
  reply.plan_resyncs = health.plan_resyncs;
  return reply;
}

// ---- Health checking / failover --------------------------------------------

int Router::CheckNow() {
  std::lock_guard<std::mutex> pass(check_mu_);
  struct Target {
    int id;
    RemoteShard* probe;
  };
  std::vector<Target> targets;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].alive) {
        targets.push_back({static_cast<int>(i), shards_[i].probe.get()});
      }
    }
  }

  int newly_dead = 0;
  for (const Target& t : targets) {
    auto reply = t.probe->Stats();
    std::unique_lock<std::mutex> lock(state_mu_);
    ShardState& s = shards_[t.id];
    if (!s.alive) continue;
    if (reply.ok()) {
      s.misses = 0;
      s.last_stats = reply.value().stats;
      s.last_stats.shard = t.id;
      s.have_stats = true;
    } else {
      ++s.misses;
      ZEUS_LOG(Warning) << opts_.name << " shard " << t.id << " missed probe "
                        << s.misses << "/" << opts_.misses_to_dead << ": "
                        << reply.status().ToString();
      if (s.misses >= opts_.misses_to_dead) {
        FailOverLocked(lock, t.id);
        ++newly_dead;
      }
    }
  }
  // Converge placement every pass: replicas that missed a registration or
  // plan sync earlier catch up here. No-op when nothing is behind.
  RepairReplicas();
  return newly_dead;
}

void Router::FailOverLocked(std::unique_lock<std::mutex>& lock, int id) {
  ShardState& s = shards_[id];
  if (!s.alive) return;

  // Declare dead. Only this shard's vnodes leave the ring, so only the
  // datasets it owned change primary — and with replication >= 2 the new
  // primary is a successor that ALREADY holds a replica, so their queries
  // never stop flowing. Dropping the dead shard from every replica set is
  // what makes the repair pass see the deficit.
  s.alive = false;
  s.misses = 0;
  --alive_count_;
  ++failovers_;
  if (s.have_stats) {
    carry_.Merge(s.last_stats);
    have_carry_ = true;
  }
  RebuildRingLocked();
  int lost = 0;
  for (auto& [name, state] : datasets_) {
    (void)name;
    lost += state.replica_epochs.erase(id) > 0 ? 1 : 0;
  }
  s.client->CloseConnections();
  s.probe->CloseConnections();
  ZEUS_LOG(Warning) << opts_.name << " declared shard " << id << " ("
                    << s.endpoint.host << ":" << s.endpoint.port
                    << ") dead; lost " << lost
                    << " replica(s), repairing placement";

  // Restore the replication factor without the lock (dataset regeneration
  // and plan warm-up take real time). A dataset that kept a live replica
  // keeps answering during the whole repair; one that lost its only
  // replica fails retryably (CandidatesLocked returns empty) until its
  // re-registration lands — exactly the replication-1 window.
  lock.unlock();
  RepairReplicas();
  lock.lock();
}

void Router::HealthLoop() {
  std::unique_lock<std::mutex> lk(health_mu_);
  while (running_.load()) {
    health_cv_.wait_for(lk, std::chrono::milliseconds(opts_.health_interval_ms),
                        [&] { return !running_.load(); });
    if (!running_.load()) return;
    lk.unlock();
    CheckNow();
    lk.lock();
  }
}

bool Router::ShardAlive(int id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (id < 0 || id >= static_cast<int>(shards_.size())) return false;
  return shards_[id].alive;
}

int Router::num_alive() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return alive_count_;
}

int Router::HomeOf(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (alive_count_ == 0 || ring_ == nullptr) return -1;
  return ring_->ShardFor(dataset);
}

std::vector<int> Router::ReplicasOf(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<int> out;
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) return out;
  for (const auto& [id, epoch] : it->second.replica_epochs) {
    (void)epoch;
    if (shards_[id].alive) out.push_back(id);
  }
  return out;
}

// ---- Client-facing server --------------------------------------------------

net::Frame Router::Dispatch(const net::Frame& req) {
  switch (req.type) {
    case net::FrameType::kPing:
      return Reply(req.request_id, net::FrameType::kPong, {});
    case net::FrameType::kExecute:
      return HandleExecute(req);
    case net::FrameType::kSubmit:
      return HandleSubmit(req);
    case net::FrameType::kCancel:
    case net::FrameType::kTicketState:
    case net::FrameType::kTicketWait:
      return HandleTicketOp(req);
    case net::FrameType::kStats:
      return Reply(req.request_id, net::FrameType::kStatsReply,
                   EncodeStatsReply(Stats()));
    case net::FrameType::kRegisterDataset:
      return HandleRegisterDataset(req);
    case net::FrameType::kRemoveDataset:
      return HandleRemoveDataset(req);
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

net::Frame Router::HandleExecute(const net::Frame& req) {
  ExecRequest exec;
  if (!DecodeExecRequest(req.payload, &exec)) return BadPayload(req);
  auto result = Execute(exec);
  if (!result.ok()) return MakeErrorFrame(req.request_id, result.status());
  return Reply(req.request_id, net::FrameType::kResult,
               EncodeQueryResult(result.value()));
}

net::Frame Router::HandleSubmit(const net::Frame& req) {
  ExecRequest exec;
  if (!DecodeExecRequest(req.payload, &exec)) return BadPayload(req);
  std::vector<int> candidates;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    candidates = CandidatesLocked(exec.dataset);
  }
  if (candidates.empty()) {
    return MakeErrorFrame(
        req.request_id,
        common::Status::Unavailable("no live replica of '" + exec.dataset +
                                    "'; re-homing, retry"));
  }
  // Same replica order as Execute. The ticket pins the shard the query
  // actually landed on; a submission the primary never saw (retryable
  // transport failure) moves to the next replica.
  common::Status last = common::Status::Unavailable("no candidate tried");
  for (size_t i = 0; i < candidates.size(); ++i) {
    RemoteShard* client = nullptr;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (!shards_[candidates[i]].alive) continue;
      client = shards_[candidates[i]].client.get();
    }
    auto ticket = client->Submit(exec);
    if (ticket.ok()) {
      if (i > 0) {
        std::lock_guard<std::mutex> lock(state_mu_);
        ++read_failovers_;
      }
      uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lock(tickets_mu_);
        id = next_ticket_id_++;
        tickets_[id] = {candidates[i], ticket.value().id(), exec.dataset};
      }
      return Reply(req.request_id, net::FrameType::kSubmitReply,
                   EncodeTicketId(id));
    }
    if (!common::IsRetryable(ticket.status().code())) {
      return MakeErrorFrame(req.request_id, ticket.status());
    }
    last = ticket.status();
  }
  return MakeErrorFrame(req.request_id, last);
}

net::Frame Router::HandleTicketOp(const net::Frame& req) {
  uint64_t id = 0;
  if (!DecodeTicketId(req.payload, &id)) return BadPayload(req);
  int shard_id = -1;
  uint64_t remote_id = 0;
  std::string dataset;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    auto it = tickets_.find(id);
    if (it == tickets_.end()) {
      return MakeErrorFrame(req.request_id,
                            common::Status::NotFound("unknown ticket"));
    }
    shard_id = it->second.shard;
    remote_id = it->second.remote_id;
    dataset = it->second.dataset;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!shards_[shard_id].alive) {
      // The query died with its shard; the submission must be replayed by
      // the client (the router cannot know how far it got).
      return MakeErrorFrame(
          req.request_id,
          common::Status::Unavailable("home shard failed over; resubmit"));
    }
  }
  RemoteShard* client = shards_[shard_id].client.get();
  switch (req.type) {
    case net::FrameType::kCancel: {
      common::Status st = client->Cancel(remote_id);
      if (!st.ok()) return MakeErrorFrame(req.request_id, st);
      return OkFrame(req.request_id);
    }
    case net::FrameType::kTicketState: {
      auto state = client->TicketState(remote_id);
      if (!state.ok()) return MakeErrorFrame(req.request_id, state.status());
      return Reply(req.request_id, net::FrameType::kTicketStateReply,
                   EncodeTicketState(state.value()));
    }
    default: {  // kTicketWait
      auto result = client->TicketWait(remote_id);
      // The shard reaps its ticket once a wait resolves (success or a
      // terminal query error); only a transport loss leaves it live.
      if (result.ok() || !common::IsRetryable(result.status().code())) {
        std::lock_guard<std::mutex> lock(tickets_mu_);
        tickets_.erase(id);
      }
      if (!result.ok()) return MakeErrorFrame(req.request_id, result.status());
      engine::QueryResult r =
          AnnotateResult(dataset, shard_id, std::move(result).value());
      if (r.plan_seconds > 0) PropagatePlans(dataset);
      return Reply(req.request_id, net::FrameType::kResult,
                   EncodeQueryResult(r));
    }
  }
}

net::Frame Router::HandleRegisterDataset(const net::Frame& req) {
  DatasetSpec spec;
  if (!DecodeDatasetSpec(req.payload, &spec)) return BadPayload(req);
  auto reg = RegisterDataset(spec);
  if (!reg.ok()) return MakeErrorFrame(req.request_id, reg.status());
  return Reply(req.request_id, net::FrameType::kRegisterReply,
               EncodeRegisterReply(reg.value()));
}

net::Frame Router::HandleRemoveDataset(const net::Frame& req) {
  std::string name;
  if (!DecodeName(req.payload, &name)) return BadPayload(req);
  common::Status st = RemoveDataset(name);
  if (!st.ok()) return MakeErrorFrame(req.request_id, st);
  return OkFrame(req.request_id);
}

net::Frame Router::HandleAppendFrames(const net::Frame& req) {
  AppendFramesRequest append;
  if (!DecodeAppendFrames(req.payload, &append)) return BadPayload(req);
  if (append.relative_frames == 0) {
    return MakeErrorFrame(
        req.request_id,
        common::Status::InvalidArgument(
            "the router takes the relative append form (relative_frames > 0);"
            " the absolute form is the router->shard direction"));
  }
  auto reply = AppendFrames(append.name, append.relative_frames);
  if (!reply.ok()) return MakeErrorFrame(req.request_id, reply.status());
  return Reply(req.request_id, net::FrameType::kAppendReply,
               EncodeAppendReply(reply.value()));
}

net::Frame Router::HandleSubscribe(const net::Frame& req) {
  SubscribeRequest sub;
  if (!DecodeSubscribeRequest(req.payload, &sub)) return BadPayload(req);
  auto reply = Subscribe(sub);
  if (!reply.ok()) return MakeErrorFrame(req.request_id, reply.status());
  return Reply(req.request_id, net::FrameType::kSubscribeReply,
               EncodeSubscribeReply(reply.value()));
}

net::Frame Router::HandleStreamPoll(const net::Frame& req) {
  StreamPollRequest poll;
  if (!DecodeStreamPoll(req.payload, &poll)) return BadPayload(req);
  auto msg = StreamPoll(poll.sub_id, poll.after_seq, poll.timeout_ms);
  if (!msg.ok()) return MakeErrorFrame(req.request_id, msg.status());
  return Reply(req.request_id, net::FrameType::kStreamResult,
               EncodeStreamResult(msg.value()));
}

net::Frame Router::HandleUnsubscribe(const net::Frame& req) {
  uint64_t id = 0;
  if (!DecodeTicketId(req.payload, &id)) return BadPayload(req);
  common::Status st = Unsubscribe(id);
  if (!st.ok()) return MakeErrorFrame(req.request_id, st);
  return OkFrame(req.request_id);
}

}  // namespace zeus::cluster
