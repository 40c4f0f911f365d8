#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "common/stringutil.h"
#include "common/timer.h"
#include "core/accuracy.h"
#include "core/cancellation.h"
#include "core/executor.h"

namespace zeus::engine {

const char* ConsistencyName(Consistency c) {
  switch (c) {
    case Consistency::kCertain:
      return "certain";
    case Consistency::kDegraded:
      return "degraded";
  }
  return "unknown";
}

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kPlanning:
      return "planning";
    case QueryState::kExecuting:
      return "executing";
    case QueryState::kDone:
      return "done";
    case QueryState::kFailed:
      return "failed";
    case QueryState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

// ---- Subscriptions ---------------------------------------------------------

// Shared state of one live subscription. The SubscriptionTicket, the engine's
// subs_ map and any in-flight window-run ticket co-own it; everything mutable
// is guarded by `mu`.
struct StreamSubState {
  // Fixed at Subscribe().
  uint64_t id = 0;
  std::string dataset_name;
  core::ActionQuery query;
  SubscribeOptions opts;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  std::deque<StreamUpdate> buffer;  // undelivered updates, oldest first
  uint64_t next_seq = 1;
  uint64_t last_seq = 0;
  long dropped = 0;
  bool cancelled = false;
  // True while a window re-execution is queued or in flight — at most one
  // at a time per subscription; appends landing mid-run raise target_epoch
  // and the completed run re-arms.
  bool running = false;
  uint64_t target_epoch = 0;    // highest applied-append epoch seen
  uint64_t executed_epoch = 0;  // epoch of the last published window
  bool unsub_recorded = false;  // engine reaped + counted this cancel
  common::Status error = common::Status::Ok();  // terminal window-run failure
  // One cancel flag for the subscription's whole lifetime, threaded into
  // every window run so Cancel() cuts a localization mid-round.
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);
};

uint64_t SubscriptionTicket::id() const { return shared_->id; }

common::Result<StreamUpdate> SubscriptionTicket::Next(uint64_t after_seq,
                                                      int timeout_ms) const {
  StreamSubState& s = *shared_;
  std::unique_lock<std::mutex> lock(s.mu);
  auto has_update = [&] {
    return !s.buffer.empty() && s.buffer.back().seq > after_seq;
  };
  s.cv.wait_for(lock, std::chrono::milliseconds(std::max(0, timeout_ms)),
                [&] { return s.cancelled || has_update(); });
  if (has_update()) {
    for (const StreamUpdate& up : s.buffer) {
      if (up.seq > after_seq) return up;
    }
  }
  if (s.cancelled) {
    if (!s.error.ok()) return s.error;
    return common::Status::Cancelled("subscription cancelled");
  }
  return common::Status::Unavailable(
      common::Format("no update past seq %lld yet",
                     static_cast<long long>(after_seq)));
}

void SubscriptionTicket::Cancel() {
  StreamSubState& s = *shared_;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.cancelled) return;
    s.cancelled = true;
  }
  s.cancel->store(true);
  s.cv.notify_all();
}

bool SubscriptionTicket::cancelled() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->cancelled;
}

uint64_t SubscriptionTicket::last_seq() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->last_seq;
}

long SubscriptionTicket::dropped() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->dropped;
}

// ---- QueryTicket -----------------------------------------------------------

struct QueryTicket::Shared {
  // Inputs, fixed at submission.
  std::string dataset_name;
  core::ActionQuery query;
  ExecutionOptions exec;
  // When Submit() admitted the ticket; the queue-wait histogram measures
  // from here to the worker's claim.
  std::chrono::steady_clock::time_point submit_time;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  QueryState state = QueryState::kQueued;
  double progress = 0.0;
  std::optional<common::Result<QueryResult>> result;
  // Shared with the CancellationToken threaded into the executors, so a
  // Cancel() reaches a localizer already inside its lockstep rounds.
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);

  // Set when this ticket is a subscription's window re-execution: RunTicket
  // restricts the frame window, and the worker publishes the terminal
  // result to the subscription (FinishWindowRun) instead of leaving it to
  // a Wait() caller. `cancel` aliases the subscription's flag.
  std::shared_ptr<StreamSubState> sub;

  bool cancel_requested() const { return cancel->load(); }
};

QueryState QueryTicket::state() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->state;
}

double QueryTicket::progress() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->progress;
}

bool QueryTicket::done() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->result.has_value();
}

void QueryTicket::Cancel() { shared_->cancel->store(true); }

const common::Result<QueryResult>& QueryTicket::Wait() const {
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [this] { return shared_->result.has_value(); });
  return *shared_->result;
}

// ---- QueryEngine -----------------------------------------------------------

QueryEngine::QueryEngine() : QueryEngine(Options()) {}

QueryEngine::QueryEngine(Options options)
    : opts_(std::move(options)), cache_(opts_.cache, opts_.planner) {
  if (opts_.num_workers < 1) opts_.num_workers = 1;
  if (opts_.max_pending < 1) opts_.max_pending = 1;
  // Warm start: preload every cataloged plan so the first query after a
  // restart is a memory hit. A standalone engine owns every key; sharded
  // serving warms with an ownership filter instead (EngineGroup clears the
  // flag on the per-shard options and calls WarmUp itself).
  if (opts_.cache.warm_start) cache_.WarmUp();
}

void QueryEngine::EnsureWorkersLocked() {
  if (!workers_.empty()) return;
  workers_.reserve(static_cast<size_t>(opts_.num_workers));
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryEngine::~QueryEngine() {
  // Cancel subscriptions first: their in-flight window runs cut at the
  // next cancellation point instead of holding up the worker join, and
  // any Next() waiter wakes with kCancelled.
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto& [id, sub] : subs_) {
      {
        std::lock_guard<std::mutex> slock(sub->mu);
        sub->cancelled = true;
      }
      sub->cancel->store(true);
      sub->cv.notify_all();
    }
    subs_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Resolve whatever never reached a worker so Wait() cannot hang.
  pending_.Purge([](const AdmissionQueue::Payload& p) {
    Finish(static_cast<QueryTicket::Shared*>(p.get()), QueryState::kCancelled,
           common::Status::Cancelled("engine shut down"));
    return true;
  });
}

common::Status QueryEngine::RegisterDataset(const std::string& name,
                                            video::SyntheticDataset dataset) {
  return RegisterDataset(
      name, std::make_shared<video::SyntheticDataset>(std::move(dataset)));
}

common::Status QueryEngine::RegisterDataset(
    const std::string& name,
    std::shared_ptr<video::SyntheticDataset> dataset) {
  if (dataset == nullptr) {
    return common::Status::InvalidArgument("dataset is null");
  }
  std::lock_guard<std::mutex> lock(datasets_mu_);
  if (datasets_.count(name)) {
    return common::Status::AlreadyExists("dataset '" + name +
                                         "' already registered");
  }
  datasets_[name] = std::move(dataset);
  return common::Status::Ok();
}

bool QueryEngine::HasDataset(const std::string& name) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  return datasets_.count(name) > 0;
}

const video::SyntheticDataset* QueryEngine::dataset(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second.get();
}

std::shared_ptr<video::SyntheticDataset> QueryEngine::ShareDataset(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

void QueryEngine::RemoveDataset(const std::string& name) {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  datasets_.erase(name);
}

std::vector<std::string> QueryEngine::dataset_names() const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, ds] : datasets_) names.push_back(name);
  return names;
}

void QueryEngine::DrainDataset(const std::string& name) {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_cv_.wait(lock, [&] {
      if (pending_.PendingFor(name) > 0) return false;
      auto it = active_by_dataset_.find(name);
      return it == active_by_dataset_.end() || it->second == 0;
    });
  }
  metrics_.RecordDrain();
}

void QueryEngine::DrainAll() {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_cv_.wait(lock, [&] {
      if (pending_.size() > 0) return false;
      for (const auto& [name, running] : active_by_dataset_) {
        if (running > 0) return false;
      }
      return true;
    });
  }
  metrics_.RecordDrain();
}

size_t QueryEngine::WarmUpDataset(const std::string& name) {
  return cache_.WarmUp(
      [&name](const std::string& key) { return PlanKeyDataset(key) == name; });
}

int QueryEngine::DatasetWeight(const std::string& name) const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return pending_.WeightOf(name);
}

common::Status QueryEngine::SetDatasetWeight(const std::string& name,
                                             int weight) {
  if (!HasDataset(name)) {
    return common::Status::NotFound("dataset '" + name +
                                    "' is not registered");
  }
  if (weight < 1) {
    return common::Status::InvalidArgument("weight must be >= 1");
  }
  std::lock_guard<std::mutex> lock(queue_mu_);
  pending_.SetWeight(name, weight);
  return common::Status::Ok();
}

std::string QueryEngine::PlanKey(const std::string& dataset_name,
                                 const core::ActionQuery& query) {
  std::string classes;
  for (video::ActionClass cls : query.action_classes) {
    classes += video::ActionClassName(cls);
    classes += ',';
  }
  return common::Format("%s|%s|%.3f", dataset_name.c_str(), classes.c_str(),
                        query.accuracy_target);
}

std::string QueryEngine::PlanKeyDataset(const std::string& key) {
  return key.substr(0, key.find('|'));
}

std::shared_ptr<core::QueryPlan> QueryEngine::CachedPlan(
    const std::string& dataset_name, const core::ActionQuery& query) const {
  return cache_.Peek(PlanKey(dataset_name, query));
}

void QueryEngine::SetDegradeLevel(int level) {
  degrade_level_.store(std::max(0, level), std::memory_order_relaxed);
}

size_t QueryEngine::pending() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return pending_.size();
}

ShardStats QueryEngine::Stats(bool include_datasets) const {
  ShardStats out = metrics_.Snapshot(include_datasets);
  if (include_datasets) {
    // Registered-but-quiet datasets still deserve a row (their weight and
    // zero depth are part of the picture).
    std::set<std::string> seen;
    for (const DatasetStats& ds : out.datasets) seen.insert(ds.dataset);
    for (const std::string& name : dataset_names()) {
      if (seen.count(name)) continue;
      DatasetStats ds;
      ds.dataset = name;
      out.datasets.push_back(std::move(ds));
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    out.queue_depth = static_cast<long>(pending_.size());
    for (const auto& [name, running] : active_by_dataset_) {
      out.active += running;
    }
    const auto depths = pending_.PendingByTenant();
    for (auto& ds : out.datasets) {
      auto it = depths.find(ds.dataset);
      ds.queue_depth = it == depths.end() ? 0 : static_cast<long>(it->second);
      ds.weight = pending_.WeightOf(ds.dataset);
    }
  }
  out.planner_runs = cache_.planner_runs();
  out.cache_hits = cache_.cache_hits();
  out.disk_loads = cache_.disk_loads();
  out.degrade_level = degrade_level_.load(std::memory_order_relaxed);
  return out;
}

// ---- Live streams ----------------------------------------------------------

common::Result<AppendOutcome> QueryEngine::GrowLocked(const std::string& name,
                                                      long target_frames,
                                                      uint64_t epoch) {
  std::shared_ptr<video::SyntheticDataset> old = ShareDataset(name);
  AppendOutcome out;
  const long before = old->stream_length();
  if (target_frames <= before && epoch <= old->frame_epoch()) {
    // Idempotent replay: this growth (or a later one) already applied.
    out.frame_epoch = old->frame_epoch();
    out.stream_length = before;
    return out;
  }
  // Grow a copy, then swap it in. Queries already running hold the old
  // snapshot via ShareDataset and never observe a torn mid-append state;
  // runs claimed after the swap see the grown dataset. The copy shares the
  // old snapshot's frame blocks, so it costs O(videos + blocks), and the
  // growth only adds blocks.
  auto grown = std::make_shared<video::SyntheticDataset>(*old);
  common::Status grow = grown->GrowTo(target_frames, epoch);
  if (!grow.ok()) return grow;
  {
    std::lock_guard<std::mutex> lock(datasets_mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return common::Status::NotFound("dataset '" + name +
                                      "' was removed during the append");
    }
    it->second = grown;
  }
  out.frame_epoch = grown->frame_epoch();
  out.stream_length = grown->stream_length();
  out.appended = out.stream_length - before;
  if (out.appended > 0) metrics_.RecordAppend(out.appended);
  NotifySubscribers(name, out.frame_epoch);
  return out;
}

common::Result<AppendOutcome> QueryEngine::GrowDataset(const std::string& name,
                                                       long target_frames,
                                                       uint64_t epoch) {
  // One append at a time: two concurrent clone-and-grows would fork the
  // stream and one fork's frames would be lost in the swap.
  std::lock_guard<std::mutex> grow_lock(append_mu_);
  std::shared_ptr<video::SyntheticDataset> ds = ShareDataset(name);
  if (ds == nullptr) {
    return common::Status::NotFound("dataset '" + name +
                                    "' is not registered");
  }
  if (!ds->streamable()) {
    return common::Status::FailedPrecondition(
        "dataset '" + name + "' is not streamable (no recorded stream seed)");
  }
  return GrowLocked(name, target_frames, epoch);
}

common::Result<AppendOutcome> QueryEngine::AppendFrames(const std::string& name,
                                                        long frames) {
  if (frames <= 0) {
    return common::Status::InvalidArgument("frames must be > 0");
  }
  // Resolve the relative form to an absolute (target, epoch) under the
  // append lock, so concurrent relative appends stack instead of collapsing
  // onto the same target.
  std::lock_guard<std::mutex> grow_lock(append_mu_);
  std::shared_ptr<video::SyntheticDataset> ds = ShareDataset(name);
  if (ds == nullptr) {
    return common::Status::NotFound("dataset '" + name +
                                    "' is not registered");
  }
  if (!ds->streamable()) {
    return common::Status::FailedPrecondition(
        "dataset '" + name + "' is not streamable (no recorded stream seed)");
  }
  return GrowLocked(name, ds->stream_length() + frames, ds->frame_epoch() + 1);
}

common::Result<SubscriptionTicket> QueryEngine::Subscribe(
    const std::string& dataset_name, const std::string& sql,
    const SubscribeOptions& opts) {
  auto parsed = core::QueryParser::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  return Subscribe(dataset_name, parsed.value(), opts);
}

common::Result<SubscriptionTicket> QueryEngine::Subscribe(
    const std::string& dataset_name, const core::ActionQuery& query,
    const SubscribeOptions& opts) {
  if (query.explain_only) {
    return common::Status::InvalidArgument(
        "cannot subscribe to an EXPLAIN query");
  }
  std::shared_ptr<video::SyntheticDataset> ds = ShareDataset(dataset_name);
  if (ds == nullptr) {
    return common::Status::NotFound("dataset '" + dataset_name +
                                    "' is not registered");
  }
  auto sub = std::make_shared<StreamSubState>();
  sub->dataset_name = dataset_name;
  sub->query = query;
  sub->opts = opts;
  sub->target_epoch = ds->frame_epoch();
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    sub->id = next_sub_id_++;
    subs_[sub->id] = sub;
  }
  metrics_.RecordSubscribe();
  // Initial window: publish an answer over the current prefix right away
  // (this is also where the plan trains — every later window is a cache
  // hit, keeping planner_runs flat).
  ArmSubscription(sub);
  return SubscriptionTicket(sub);
}

size_t QueryEngine::subscriptions() const {
  std::lock_guard<std::mutex> lock(subs_mu_);
  size_t live = 0;
  for (const auto& [id, sub] : subs_) {
    std::lock_guard<std::mutex> slock(sub->mu);
    if (!sub->cancelled) ++live;
  }
  return live;
}

void QueryEngine::NotifySubscribers(const std::string& name, uint64_t epoch) {
  std::vector<std::shared_ptr<StreamSubState>> arm;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto it = subs_.begin(); it != subs_.end();) {
      const std::shared_ptr<StreamSubState>& sub = it->second;
      bool reap = false;
      {
        std::lock_guard<std::mutex> slock(sub->mu);
        if (sub->cancelled) {
          reap = true;
          if (!sub->unsub_recorded) {
            sub->unsub_recorded = true;
            metrics_.RecordUnsubscribe();
          }
        } else if (sub->dataset_name == name) {
          sub->target_epoch = std::max(sub->target_epoch, epoch);
          if (!sub->running) arm.push_back(sub);
        }
      }
      it = reap ? subs_.erase(it) : std::next(it);
    }
  }
  for (const auto& sub : arm) ArmSubscription(sub);
}

void QueryEngine::ArmSubscription(const std::shared_ptr<StreamSubState>& sub) {
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    if (sub->cancelled || sub->running) return;
    sub->running = true;
  }
  auto shared = std::make_shared<QueryTicket::Shared>();
  shared->dataset_name = sub->dataset_name;
  shared->query = sub->query;
  shared->exec = sub->opts.exec;
  shared->submit_time = std::chrono::steady_clock::now();
  shared->cancel = sub->cancel;  // one flag for the subscription's lifetime
  shared->sub = sub;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!stopping_ && static_cast<int>(pending_.size()) < opts_.max_pending) {
      pending_.Push(shared->dataset_name, shared->exec.priority,
                    shared->exec.aging_threshold, shared);
      metrics_.RecordSubmitted(shared->dataset_name, pending_.size());
      EnsureWorkersLocked();
      admitted = true;
    }
  }
  if (admitted) {
    queue_cv_.notify_one();
    return;
  }
  // Full queue (or shutdown): defer instead of failing — window runs never
  // displace one-shot admissions; the next append or completed window run
  // retries the arm.
  std::lock_guard<std::mutex> lock(sub->mu);
  sub->running = false;
}

void QueryEngine::FinishWindowRun(
    const std::shared_ptr<QueryTicket::Shared>& t) {
  const std::shared_ptr<StreamSubState>& sub = t->sub;
  const common::Result<QueryResult>& outcome = *t->result;
  bool rearm = false;
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    sub->running = false;
    if (outcome.ok()) {
      const QueryResult& r = outcome.value();
      sub->executed_epoch = std::max(sub->executed_epoch, r.frame_epoch);
      StreamUpdate up;
      up.seq = sub->next_seq++;
      up.result = r;
      sub->last_seq = up.seq;
      sub->buffer.push_back(std::move(up));
      while (sub->buffer.size() > std::max<size_t>(1, sub->opts.max_buffered)) {
        sub->buffer.pop_front();
        ++sub->dropped;
        metrics_.RecordStreamDropped();
      }
      metrics_.RecordStreamResult();
    } else if (outcome.status().code() != common::StatusCode::kCancelled) {
      // A window run failed (planner/executor error). Terminal for the
      // subscription: the same window would fail the same way on replay.
      sub->error = outcome.status();
      sub->cancelled = true;
      sub->cancel->store(true);
    }
    rearm = !sub->cancelled && sub->target_epoch > sub->executed_epoch;
  }
  sub->cv.notify_all();
  // The stream advanced while this window was in flight: go again over the
  // newer prefix (coalesced — one run covers any number of missed appends).
  if (rearm) ArmSubscription(sub);
}

common::Result<QueryTicket> QueryEngine::Submit(const std::string& dataset_name,
                                                const std::string& sql) {
  auto parsed = core::QueryParser::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  return Submit(dataset_name, parsed.value());
}

common::Result<QueryTicket> QueryEngine::Submit(const std::string& dataset_name,
                                                const core::ActionQuery& query) {
  return Submit(dataset_name, query, opts_.exec);
}

common::Result<QueryTicket> QueryEngine::Submit(const std::string& dataset_name,
                                                const core::ActionQuery& query,
                                                const ExecutionOptions& exec) {
  if (!HasDataset(dataset_name)) {
    return common::Status::NotFound("dataset '" + dataset_name +
                                    "' is not registered");
  }
  auto shared = std::make_shared<QueryTicket::Shared>();
  shared->dataset_name = dataset_name;
  shared->query = query;
  shared->exec = exec;
  shared->submit_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      return common::Status::FailedPrecondition("engine is shutting down");
    }
    if (static_cast<int>(pending_.size()) >= opts_.max_pending) {
      // Cancelled tickets must not pin queue slots: resolve and drop them
      // now instead of waiting for a worker to dequeue each one.
      pending_.Purge([this](const AdmissionQueue::Payload& p) {
        auto* t = static_cast<QueryTicket::Shared*>(p.get());
        if (!t->cancel_requested()) return false;
        Finish(t, QueryState::kCancelled,
               common::Status::Cancelled("query cancelled"));
        metrics_.RecordCancelledWhileQueued(t->dataset_name);
        return true;
      });
    }
    if (static_cast<int>(pending_.size()) >= opts_.max_pending &&
        exec.tier == core::QueryTier::kStrict) {
      // Strict-tier displacement (docs/ACCURACY.md degradation ladder):
      // before a strict query sees kResourceExhausted, evict the newest
      // lower-tier ticket — strict tenants are rejected only when the
      // queue is full of other strict work.
      auto victim = std::static_pointer_cast<QueryTicket::Shared>(
          pending_.PopNewestIf([](const AdmissionQueue::Payload& p) {
            return static_cast<QueryTicket::Shared*>(p.get())->exec.tier !=
                   core::QueryTier::kStrict;
          }));
      if (victim != nullptr) {
        Finish(victim.get(), QueryState::kFailed,
               common::Status::ResourceExhausted(
                   "displaced by strict-tier admission"));
        metrics_.RecordRejected(victim->dataset_name);
      }
    }
    if (static_cast<int>(pending_.size()) >= opts_.max_pending) {
      metrics_.RecordRejected(dataset_name);
      return common::Status::ResourceExhausted(common::Format(
          "admission queue full (%d pending)", opts_.max_pending));
    }
    pending_.Push(dataset_name, exec.priority, exec.aging_threshold, shared);
    metrics_.RecordSubmitted(dataset_name, pending_.size());
    EnsureWorkersLocked();
  }
  queue_cv_.notify_one();
  return QueryTicket(std::move(shared));
}

common::Result<QueryResult> QueryEngine::Execute(const std::string& dataset_name,
                                                 const std::string& sql) {
  auto parsed = core::QueryParser::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  return Execute(dataset_name, parsed.value());
}

common::Result<QueryResult> QueryEngine::Execute(const std::string& dataset_name,
                                                 const core::ActionQuery& query) {
  return Execute(dataset_name, query, opts_.exec);
}

common::Result<QueryResult> QueryEngine::Execute(const std::string& dataset_name,
                                                 const core::ActionQuery& query,
                                                 const ExecutionOptions& exec) {
  // Thin blocking wrapper: the same pipeline, run inline on the caller's
  // thread (no admission queue, no worker hop). It still goes through the
  // shared PlanCache, so concurrent blocking callers plan once.
  auto shared = std::make_shared<QueryTicket::Shared>();
  shared->dataset_name = dataset_name;
  shared->query = query;
  shared->exec = exec;
  shared->submit_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    BeginRunLocked(dataset_name);
  }
  // Inline runs are admissions too — without this, completed could
  // exceed submitted and in-flight arithmetic on the snapshot would go
  // negative. They never queue, though: no queue-wait sample (a zero
  // would drag the percentiles the autoscaler reads) and no peak-depth
  // update (depth 0 never raises the high-water mark).
  metrics_.RecordSubmitted(dataset_name, 0);
  common::WallTimer run_timer;
  RunTicket(shared);
  metrics_.RecordRun(dataset_name, run_timer.ElapsedSeconds(),
                     OutcomeOf(*shared));
  EndRun(dataset_name);
  return *shared->result;
}

void QueryEngine::BeginRunLocked(const std::string& dataset_name) {
  ++active_by_dataset_[dataset_name];
}

void QueryEngine::EndRun(const std::string& dataset_name) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    auto it = active_by_dataset_.find(dataset_name);
    if (it != active_by_dataset_.end() && --it->second == 0) {
      active_by_dataset_.erase(it);
    }
  }
  queue_cv_.notify_all();
}

RunOutcome QueryEngine::OutcomeOf(const QueryTicket::Shared& t) {
  std::lock_guard<std::mutex> lock(t.mu);
  switch (t.state) {
    case QueryState::kFailed:
      return RunOutcome::kFailed;
    case QueryState::kCancelled:
      return RunOutcome::kCancelled;
    default:
      return RunOutcome::kDone;
  }
}

void QueryEngine::Finish(QueryTicket::Shared* t, QueryState state,
                         common::Result<QueryResult> result) {
  {
    std::lock_guard<std::mutex> lock(t->mu);
    t->state = state;
    t->progress = 1.0;
    t->result.emplace(std::move(result));
  }
  t->cv.notify_all();
}

void QueryEngine::WorkerLoop() {
  for (;;) {
    std::shared_ptr<QueryTicket::Shared> t;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      t = std::static_pointer_cast<QueryTicket::Shared>(pending_.Pop());
      // Claim and mark active under one lock: a DrainDataset between the
      // pop and the run would otherwise see zero queued + zero active and
      // wrongly conclude the dataset is quiesced.
      if (t != nullptr) BeginRunLocked(t->dataset_name);
    }
    if (t != nullptr) {
      metrics_.RecordQueueWait(
          t->dataset_name,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t->submit_time)
              .count());
      common::WallTimer run_timer;
      RunTicket(t);
      metrics_.RecordRun(t->dataset_name, run_timer.ElapsedSeconds(),
                         OutcomeOf(*t));
      EndRun(t->dataset_name);
      // Window re-executions publish to their subscription (and re-arm if
      // the stream advanced mid-run) after the run slot is released.
      if (t->sub != nullptr) FinishWindowRun(t);
    }
  }
}

void QueryEngine::RunTicket(const std::shared_ptr<QueryTicket::Shared>& t) {
  auto set_phase = [&](QueryState state, double progress) {
    std::lock_guard<std::mutex> lock(t->mu);
    t->state = state;
    t->progress = progress;
  };
  auto cancelled = [&] {
    if (!t->cancel_requested()) return false;
    Finish(t.get(), QueryState::kCancelled,
           common::Status::Cancelled("query cancelled"));
    return true;
  };

  if (cancelled()) return;
  // Shared handle: the dataset stays alive for this whole run even if a
  // concurrent Resize unregisters it from this shard (the in-flight tail
  // of a moved dataset finishes on its old home).
  std::shared_ptr<video::SyntheticDataset> ds = ShareDataset(t->dataset_name);
  if (ds == nullptr) {
    Finish(t.get(), QueryState::kFailed,
           common::Status::NotFound("dataset '" + t->dataset_name +
                                    "' is not registered"));
    return;
  }
  // Resolve the effective accuracy band (docs/ACCURACY.md): the query's
  // own target, possibly lowered by the engine's current accuracy-shed
  // level for non-strict tiers. Everything downstream — the plan-cache
  // key, the planner, the annotation — runs at the effective band, so one
  // dataset can hold a cheap plan and a strict plan side by side.
  core::ActionQuery query = t->query;
  // Window re-executions slide their frame predicate to the snapshot's
  // tail: the window is resolved per run, not at Subscribe(), so a run that
  // coalesced several appends covers all of them.
  if (t->sub != nullptr && t->sub->opts.window_frames > 0) {
    const long begin =
        std::max<long>(0, ds->stream_length() - t->sub->opts.window_frames);
    query.frame_begin =
        static_cast<int>(std::max<long>(query.frame_begin, begin));
  }
  query.accuracy_target = core::EffectiveTarget(
      t->query.accuracy_target, t->exec.tier,
      degrade_level_.load(std::memory_order_relaxed), t->exec.min_accuracy);
  const long requested_millis =
      core::AccuracyMillis(core::QuantizeAccuracy(t->query.accuracy_target));
  const long effective_millis = core::AccuracyMillis(query.accuracy_target);
  const size_t num_test = ds->test_indices().size();

  set_phase(QueryState::kPlanning, 0.1);
  auto lookup =
      cache_.GetOrPlan(PlanKey(t->dataset_name, query), ds.get(),
                       query.action_classes, query.accuracy_target);
  if (!lookup.ok()) {
    Finish(t.get(), QueryState::kFailed, lookup.status());
    return;
  }
  std::shared_ptr<core::QueryPlan> plan = lookup.value().plan;

  QueryResult out;
  out.query = t->query;  // echo the request, not the effective rewrite
  out.plan_seconds = lookup.value().plan_seconds;
  out.tier = t->exec.tier;
  out.accuracy_band = query.accuracy_target;
  // Live-stream annotation: the window this answer covers and the growth
  // epoch of the snapshot it was computed over (fixed length / epoch 0 for
  // frozen datasets).
  out.window_begin = query.frame_begin;
  out.window_end = ds->stream_length();
  out.frame_epoch = ds->frame_epoch();

  if (query.explain_only) {
    out.explanation =
        ExplainPlan(*plan) + "\nexecutor: " +
        ExecutorFactory::Describe(t->exec, num_test);
    Finish(t.get(), QueryState::kDone, std::move(out));
    return;
  }
  if (cancelled()) return;

  set_phase(QueryState::kExecuting, 0.5);
  std::vector<const video::Video*> test_videos;
  for (int i : ds->test_indices()) {
    test_videos.push_back(&ds->video(static_cast<size_t>(i)));
  }
  auto localizer =
      ExecutorFactory::Make(t->exec, plan.get(), ds.get(), test_videos.size());
  if (!localizer.ok()) {
    Finish(t.get(), QueryState::kFailed, localizer.status());
    return;
  }
  out.executor = localizer.value()->name();
  // Thread the ticket's cancel flag into the localizer: the executors poll
  // it every lockstep round, so Cancel() aborts a long localization within
  // one round instead of waiting for the pass to finish.
  localizer.value()->SetCancellation(core::CancellationToken(t->cancel));
  // Latency budget → GPU-seconds budget for the localization rounds.
  // Strict tiers never get one: their schedule (and therefore their
  // answer) must be bit-identical to an unbudgeted run.
  if (t->exec.tier != core::QueryTier::kStrict &&
      t->exec.max_latency_budget > 0.0) {
    localizer.value()->SetGpuBudget(t->exec.max_latency_budget);
  }
  // Sample the plan's feature-cache counters around the localization and
  // record the delta: the engine-level hit/miss/evict counters, so /metrics
  // can show how much of a window was served from features already
  // extracted below the previous high-water mark.
  const apfg::FeatureCache* features = plan->cache.get();
  const uint64_t feat_hits0 = features != nullptr ? features->hits() : 0;
  const uint64_t feat_misses0 = features != nullptr ? features->misses() : 0;
  const uint64_t feat_evict0 = features != nullptr ? features->evictions() : 0;
  core::RunResult run = localizer.value()->Localize(test_videos);
  if (features != nullptr) {
    metrics_.RecordFeatureCache(
        static_cast<long>(features->hits() - feat_hits0),
        static_cast<long>(features->misses() - feat_misses0),
        static_cast<long>(features->evictions() - feat_evict0));
  }
  if (run.cancelled) {
    Finish(t.get(), QueryState::kCancelled,
           common::Status::Cancelled("query cancelled during execution"));
    return;
  }

  out.metrics = core::EvaluateVideos(test_videos, plan->targets, run.masks,
                                     core::EvalOptions{});
  out.throughput_fps = run.ThroughputFps();
  out.gpu_seconds = run.gpu_seconds;
  out.wall_seconds = run.wall_seconds;
  out.budget_exhausted = run.budget_exhausted;
  out.achieved_confidence =
      core::EstimateConfidence(plan->rl_space, run, plan->accuracy_target);
  // Record before segment collection: the limit early-return below is a
  // second kDone exit and must not skip the accuracy accounting.
  metrics_.RecordAnswer(out.achieved_confidence, effective_millis,
                        effective_millis < requested_millis, run.wall_seconds,
                        lookup.value().plan_seconds == 0.0);
  const int range_end = query.frame_end < 0 ? 1 << 30 : query.frame_end;
  for (size_t vi = 0; vi < test_videos.size(); ++vi) {
    for (const video::ActionInstance& inst :
         core::MaskToInstances(run.masks[vi])) {
      // Frame-range predicate: keep segments intersecting the range.
      if (inst.end <= query.frame_begin || inst.start >= range_end) continue;
      if (query.limit >= 0 &&
          static_cast<int>(out.segments.size()) >= query.limit) {
        Finish(t.get(), QueryState::kDone, std::move(out));
        return;
      }
      out.segments.push_back({test_videos[vi]->id(), inst.start, inst.end});
    }
  }
  Finish(t.get(), QueryState::kDone, std::move(out));
}

std::string QueryEngine::ExplainPlan(const core::QueryPlan& plan) {
  std::string out = common::Format(
      "QueryPlan {\n  targets: %zu class(es), accuracy target %.2f\n"
      "  APFG: trained (train_acc %.3f, %d examples, %.1fs)\n"
      "  configuration grid: %zu candidates, RL frontier: %zu\n",
      plan.targets.size(), plan.accuracy_target,
      plan.apfg_stats.train_accuracy, plan.apfg_stats.num_examples,
      plan.apfg_train_seconds, plan.space.size(), plan.rl_space.size());
  for (const core::Configuration& c : plan.rl_space.configs()) {
    out += common::Format(
        "    config %s  throughput %.0f fps  validation F1 %.3f\n",
        c.ToString().c_str(), c.throughput_fps, c.validation_f1);
  }
  out += common::Format(
      "  DQN agent: %s (%.1fs training)\n}",
      plan.agent != nullptr ? "trained" : "absent", plan.rl_train_seconds);
  return out;
}

}  // namespace zeus::engine
