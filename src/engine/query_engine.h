#ifndef ZEUS_ENGINE_QUERY_ENGINE_H_
#define ZEUS_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/query.h"
#include "engine/admission_queue.h"
#include "engine/executor_factory.h"
#include "engine/metrics.h"
#include "engine/plan_cache.h"
#include "video/dataset.h"

namespace zeus::engine {

// Per-submission options: execution knobs plus the scheduling class the
// admission queue reads (`priority`, higher = earlier; ties are FIFO within
// a dataset and weighted round-robin across datasets).
using QueryOptions = ExecutionOptions;

// Certain-answer annotation the cluster attaches to every served result.
// kCertain: the serving replica's plan/dataset epoch matched the replica
// group's committed epoch at serve time, so every live replica would return
// this exact answer. kDegraded: a re-home or replica catch-up was mid-flight
// and the serving replica's epoch diverged — the answer is still computed
// over the full (immutable, deterministic) dataset, but replicas might
// disagree until catch-up completes; `QueryResult::divergence` names why.
// In-process execution (no cluster) always serves kCertain.
enum class Consistency : uint8_t {
  kCertain = 0,
  kDegraded = 1,
};

const char* ConsistencyName(Consistency c);

// Everything one executed query produces. (ZeusDb re-exports this type; it
// lives here so the engine layer has no dependency on the facade.)
struct QueryResult {
  core::ActionQuery query;
  // Localized segments per test video: (video id, [start, end)).
  struct Segment {
    int video_id = 0;
    int start = 0;
    int end = 0;
  };
  std::vector<Segment> segments;
  core::PrfMetrics metrics;
  double throughput_fps = 0.0;
  double gpu_seconds = 0.0;
  double wall_seconds = 0.0;
  double plan_seconds = 0.0;  // 0 when the plan was cached (memory or disk)

  // Name of the localizer that ran (e.g. "Zeus-RL-Batched"). Empty for
  // EXPLAIN queries.
  std::string executor;

  // For EXPLAIN queries: a human-readable plan description including the
  // executor the factory would choose. Empty for normal execution.
  std::string explanation;

  // Certain-answer annotation (see Consistency above). `epoch` is the
  // serving shard's applied plan/dataset epoch — 0 when the result was not
  // served through the cluster. `divergence` is empty iff kCertain.
  Consistency consistency = Consistency::kCertain;
  std::string divergence;
  uint64_t epoch = 0;

  // Accuracy annotation (docs/ACCURACY.md) — orthogonal to the epoch
  // contract above: `consistency` says whether replicas would agree on
  // this answer, these fields say how accurate the answer itself is.
  // `tier` is the tier the query ran under; `accuracy_band` is the
  // effective accuracy target it was planned and executed at (== the
  // query's own target unless tier-driven degradation lowered it);
  // `achieved_confidence` is the cost model's estimate of the accuracy
  // actually achieved (core::EstimateConfidence).
  core::QueryTier tier = core::QueryTier::kStrict;
  double accuracy_band = 0.0;
  double achieved_confidence = 0.0;
  // True when a latency budget early-exited localization rounds; the
  // confidence annotation reflects the reduced coverage.
  bool budget_exhausted = false;

  // Live-stream annotation (docs/ARCHITECTURE.md "Live streams"): the
  // covered frame range — segments were filtered to [window_begin,
  // window_end) intersections — and the dataset growth epoch of the
  // snapshot this answer was computed over. Frozen datasets report their
  // fixed length and frame_epoch 0; the fields are filled for every
  // result, so a one-shot answer and a subscriber's incremental answer
  // over the same prefix are comparable field for field.
  long window_begin = 0;
  long window_end = 0;
  uint64_t frame_epoch = 0;
};

inline bool operator==(const QueryResult::Segment& a,
                       const QueryResult::Segment& b) {
  return a.video_id == b.video_id && a.start == b.start && a.end == b.end;
}
inline bool operator!=(const QueryResult::Segment& a,
                       const QueryResult::Segment& b) {
  return !(a == b);
}

// Exact localization identity: same segments, same boundaries, same order.
// The invariant every executor/concurrency combination must preserve.
inline bool SameSegments(const QueryResult& a, const QueryResult& b) {
  return a.segments == b.segments;
}

// Lifecycle of a submitted query. Progress is coarse-grained: planning
// dominates a cold query by orders of magnitude, so the useful signal is
// which phase the query is in, not a percentage.
enum class QueryState {
  kQueued,     // admitted, waiting for a worker
  kPlanning,   // looking up / training the plan
  kExecuting,  // localizer running on the test split
  kDone,
  kFailed,
  kCancelled,
};

const char* QueryStateName(QueryState state);

// Handle to an asynchronously submitted query. Cheap to copy (shared
// state); safe to poll from any thread.
class QueryTicket {
 public:
  QueryState state() const;
  // Monotone in [0, 1]; 1.0 exactly when the ticket is terminal.
  double progress() const;
  // True once the ticket reached kDone / kFailed / kCancelled.
  bool done() const;

  // Requests cooperative cancellation. A queued query is dropped before it
  // starts; a running query is cut at the next phase boundary, and a query
  // already inside the localizer aborts at the next lockstep round (the
  // token is threaded into the executors), so long localizations stop
  // within one round. Cancelled tickets resolve to StatusCode::kCancelled.
  void Cancel();

  // Blocks until the ticket is terminal and returns the outcome. The
  // reference stays valid for the lifetime of any copy of the ticket.
  const common::Result<QueryResult>& Wait() const;

 private:
  friend class QueryEngine;
  struct Shared;
  explicit QueryTicket(std::shared_ptr<Shared> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<Shared> shared_;
};

// What one applied append/growth did to a streamable dataset.
struct AppendOutcome {
  uint64_t frame_epoch = 0;  // dataset growth epoch after the append
  long stream_length = 0;    // per-test-video frame count after the append
  long appended = 0;         // frames actually added (0 = idempotent replay)
};

// One incremental answer published to a subscription. `seq` is 1-based and
// strictly increasing per subscription; a gap between consecutively
// delivered updates means the bounded buffer dropped intermediates for a
// slow consumer (each update covers its full window, so drops conflate
// toward the freshest answer — they never lose frames).
struct StreamUpdate {
  uint64_t seq = 0;
  QueryResult result;
};

// Per-subscription options: how each window re-execution runs, how much of
// the stream it covers, and how many undelivered updates to hold.
struct SubscribeOptions {
  // Execution knobs for every window run — the same admission queue as
  // one-shot queries reads priority/tier from here, so subscriptions
  // compete under the normal fairness and displacement rules.
  ExecutionOptions exec;
  // Sliding window, in frames: each re-execution keeps segments
  // intersecting [max(0, stream_length - window_frames), stream_length).
  // 0 = the full prefix from frame 0 — the mode whose incremental results
  // are bit-identical to a cold one-shot query over the same prefix.
  long window_frames = 0;
  // Bounded undelivered-result buffer; the oldest update is dropped (and
  // counted) when a consumer falls this far behind.
  size_t max_buffered = 16;
};

// Engine-internal shared state of one subscription (definition in
// query_engine.cc; the ticket and the engine share ownership).
struct StreamSubState;

// Handle to a live SubscribeQuery: a standing query whose trained plan is
// re-executed over the current window every time the dataset's frame epoch
// advances. Cheap to copy (shared state); safe to poll from any thread.
class SubscriptionTicket {
 public:
  uint64_t id() const;
  // Blocks until an update with seq > after_seq is available and returns
  // the oldest such update. Passing the last delivered seq makes this an
  // exactly-once cursor; passing 0 re-reads from the oldest buffered
  // update (how a re-attached subscriber catches up after failover).
  // Returns kUnavailable on timeout with the subscription still live,
  // kCancelled once cancelled and drained, or the terminal error if a
  // window run failed.
  common::Result<StreamUpdate> Next(uint64_t after_seq, int timeout_ms) const;
  // Stops the subscription: cuts any in-flight window run at its next
  // cancellation point and stops future re-arms. Already-buffered updates
  // remain readable through Next() until drained.
  void Cancel();
  bool cancelled() const;
  // Highest published seq (0 before the first window completes).
  uint64_t last_seq() const;
  // Updates dropped by the bounded buffer (slow consumer).
  long dropped() const;

 private:
  friend class QueryEngine;
  explicit SubscriptionTicket(std::shared_ptr<StreamSubState> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<StreamSubState> shared_;
};

// The concurrent query engine behind ZeusDb: a registry of datasets, a
// single-flight PlanCache, an ExecutorFactory, and a worker pool draining a
// bounded, priority- and fairness-aware admission queue (AdmissionQueue:
// QueryOptions::priority first, weighted round-robin across datasets on
// ties). Multi-shard serving stacks EngineGroup on top of N of these.
//
//   QueryEngine engine(options);
//   engine.RegisterDataset("bdd", std::move(dataset));
//   auto ticket = engine.Submit("bdd", "SELECT ... WHERE ...");
//   ... // poll ticket.value().state() / progress(), or Cancel()
//   const auto& result = ticket.value().Wait();
//
// Execute() is the blocking convenience wrapper: it runs the same pipeline
// inline on the caller's thread (it still shares the plan cache and its
// single-flight discipline, so N blocking callers of one query train its
// plan once).
class QueryEngine {
 public:
  struct Options {
    // Worker threads draining the admission queue. Each runs one query at
    // a time end to end; intra-query parallelism comes from the compute
    // pool (tensor::GlobalComputeContext()), which workers share.
    int num_workers = 2;
    // Bounded admission queue: Submit() fails with kResourceExhausted when
    // this many tickets are already waiting (running queries don't count).
    int max_pending = 32;
    PlanCache::Options cache;
    core::QueryPlanner::Options planner;
    // Engine-wide default execution options; Submit/Execute overloads can
    // override per query.
    ExecutionOptions exec;
  };

  QueryEngine();  // default Options
  explicit QueryEngine(Options options);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Takes ownership of the dataset under `name`.
  common::Status RegisterDataset(const std::string& name,
                                 video::SyntheticDataset dataset);
  // Shared-ownership registration: how EngineGroup::Resize moves a dataset
  // to its new home shard without copying it — the old shard keeps serving
  // its in-flight tail from the same underlying object.
  common::Status RegisterDataset(
      const std::string& name,
      std::shared_ptr<video::SyntheticDataset> dataset);
  bool HasDataset(const std::string& name) const;
  const video::SyntheticDataset* dataset(const std::string& name) const;
  // Shared handle to a registered dataset (nullptr when absent).
  std::shared_ptr<video::SyntheticDataset> ShareDataset(
      const std::string& name) const;
  // Unregisters `name`. Queries already holding the shared dataset handle
  // finish unaffected; new submissions fail with kNotFound. Callers are
  // expected to drain first (DrainDataset) so no queued ticket is
  // stranded.
  void RemoveDataset(const std::string& name);
  // Names of all registered datasets (Resize enumerates these to diff ring
  // ownership).
  std::vector<std::string> dataset_names() const;

  // Blocks until no queued or running query references `name`. New
  // submissions for `name` are NOT fenced — the caller must stop routing
  // traffic here first (EngineGroup flips the ring before draining).
  void DrainDataset(const std::string& name);

  // Blocks until the queue is empty and nothing is running — the graceful
  // shutdown hook a shard server calls between "stop accepting work" and
  // "exit" (cluster/shard_server.h). Like DrainDataset, submissions are
  // not fenced; the caller stops admitting first.
  void DrainAll();

  // Preloads this dataset's persisted plans from the plan-cache catalog
  // (PlanCache::WarmUp with a key filter on the dataset component of every
  // PlanKey). Returns the number of plans loaded. This is the plan-catalog
  // handoff a cluster re-home rides: the new home shard warms the moved
  // dataset's plans from the shared persist dir instead of replanning.
  size_t WarmUpDataset(const std::string& name);

  // Fair-share weight of a dataset in the admission queue (default 1): a
  // dataset with weight w receives up to w consecutive grants per
  // round-robin turn when priorities tie.
  common::Status SetDatasetWeight(const std::string& name, int weight);
  // Current fair-share weight (1 when never set). EngineGroup reads this
  // to verify weights survive a resize; also surfaced per dataset in
  // Stats().
  int DatasetWeight(const std::string& name) const;

  // Asynchronous submission. Parse and registry errors surface here
  // synchronously; planning/execution errors surface through the ticket.
  common::Result<QueryTicket> Submit(const std::string& dataset_name,
                                     const std::string& sql);
  common::Result<QueryTicket> Submit(const std::string& dataset_name,
                                     const core::ActionQuery& query);
  common::Result<QueryTicket> Submit(const std::string& dataset_name,
                                     const core::ActionQuery& query,
                                     const ExecutionOptions& exec);

  // Blocking wrappers (the classic ZeusDb::Execute semantics).
  common::Result<QueryResult> Execute(const std::string& dataset_name,
                                      const std::string& sql);
  common::Result<QueryResult> Execute(const std::string& dataset_name,
                                      const core::ActionQuery& query);
  common::Result<QueryResult> Execute(const std::string& dataset_name,
                                      const core::ActionQuery& query,
                                      const ExecutionOptions& exec);

  // ---- Live streams (docs/ARCHITECTURE.md "Live streams") ----------------

  // Grows a streamable dataset so every test video holds exactly
  // `target_frames` frames, stamping growth epoch `epoch`. Both arguments
  // are absolute, so a retried or replayed append converges to the same
  // bytes and the same epoch — the call is idempotent (a replay that adds
  // nothing reports appended == 0). Snapshot swap: the engine grows a copy
  // of the dataset and swaps it in, so queries already running keep their
  // pre-append snapshot and runs claimed after the swap see the grown
  // dataset. The copy shares every existing frame block with the old
  // snapshot, so an append costs O(videos + blocks) plus rendering the
  // appended frames — never a copy of earlier pixels. Subscriptions on the
  // dataset are re-armed.
  // kFailedPrecondition when the dataset has no recorded stream seed.
  common::Result<AppendOutcome> GrowDataset(const std::string& name,
                                            long target_frames,
                                            uint64_t epoch);
  // Convenience: extends the stream by `frames` frames and bumps the epoch
  // by one (the local-ingest form; the cluster router converts this to the
  // absolute GrowDataset form before fanning out to replicas).
  common::Result<AppendOutcome> AppendFrames(const std::string& name,
                                             long frames);

  // Registers a standing query over `dataset_name`: the engine runs one
  // window execution immediately and one more after every applied append,
  // publishing each answer as a StreamUpdate. Window runs are admitted
  // through the normal admission queue (priority/fairness/displacement
  // rules apply); the trained plan is reused across windows, so
  // planner_runs stays flat after the first window. The subscription stays
  // live until Cancel() or engine shutdown.
  common::Result<SubscriptionTicket> Subscribe(const std::string& dataset_name,
                                               const std::string& sql,
                                               const SubscribeOptions& opts);
  common::Result<SubscriptionTicket> Subscribe(const std::string& dataset_name,
                                               const core::ActionQuery& query,
                                               const SubscribeOptions& opts);
  // Live (non-cancelled) subscriptions (tests / monitoring).
  size_t subscriptions() const;

  // Cache key for (dataset, targets, accuracy target).
  static std::string PlanKey(const std::string& dataset_name,
                             const core::ActionQuery& query);
  // The dataset component of a PlanKey (its leading, '|'-delimited field) —
  // the key prefix shard routing and resize handoff filter on.
  static std::string PlanKeyDataset(const std::string& key);

  // Ready plan for a query, nullptr when absent. Shared ownership: the plan
  // stays valid even if the cache evicts it later.
  std::shared_ptr<core::QueryPlan> CachedPlan(
      const std::string& dataset_name, const core::ActionQuery& query) const;

  // Human-readable plan description (the EXPLAIN body, minus the executor
  // line Submit/Execute append from the factory).
  static std::string ExplainPlan(const core::QueryPlan& plan);

  PlanCache& plan_cache() { return cache_; }
  const Options& options() const { return opts_; }

  // Accuracy-shed level (docs/ACCURACY.md): 0 = serve every query at its
  // own target; level L lets kBestEffort queries degrade up to L bands
  // (kBalanced at most one, kStrict never). Set by the autoscaler's
  // degrade action through EngineGroup::SetDegradeLevel; takes effect on
  // the next RunTicket, never on queries already executing.
  void SetDegradeLevel(int level);
  int degrade_level() const {
    return degrade_level_.load(std::memory_order_relaxed);
  }

  // Tickets admitted but not yet claimed by a worker (tests / monitoring).
  size_t pending() const;

  // Full self-observation snapshot of this engine: the MetricsRegistry's
  // counters and latency histograms plus the sampled gauges (current and
  // per-dataset queue depth, running queries, fairness weights) and the
  // plan-cache counters. `shard` is left 0 — EngineGroup stamps the shard
  // id when aggregating. `include_datasets == false` skips the
  // per-dataset rows (string + histogram copies) — the autoscaler's
  // sampler only reads the shard-level signals.
  ShardStats Stats(bool include_datasets = true) const;

 private:
  void WorkerLoop();
  // Spawns the worker pool on first use (blocking-only callers never pay
  // for idle threads). Caller holds queue_mu_.
  void EnsureWorkersLocked();
  // Terminal-state publication helper.
  static void Finish(QueryTicket::Shared* t, QueryState state,
                     common::Result<QueryResult> result);
  // Maps a terminal ticket to its metrics outcome (called after RunTicket,
  // which always publishes a terminal state).
  static RunOutcome OutcomeOf(const QueryTicket::Shared& t);
  // The full pipeline for one ticket: plan lookup, executor construction,
  // localization, metrics. Runs on a worker (Submit) or the caller thread
  // (Execute).
  void RunTicket(const std::shared_ptr<QueryTicket::Shared>& t);

  // Growth body shared by GrowDataset/AppendFrames; caller holds
  // append_mu_ and has verified the dataset exists and is streamable.
  common::Result<AppendOutcome> GrowLocked(const std::string& name,
                                           long target_frames, uint64_t epoch);
  // Submits one window re-execution for `sub` through the admission queue
  // (no-op if the subscription is cancelled or already has a run queued or
  // in flight). A full queue defers instead of failing: the next append or
  // completed window retries.
  void ArmSubscription(const std::shared_ptr<StreamSubState>& sub);
  // Publishes a terminal window-run ticket to its subscription and re-arms
  // if the stream advanced while the run was in flight.
  void FinishWindowRun(const std::shared_ptr<QueryTicket::Shared>& t);
  // Raises every subscriber of `name` to at least `epoch` and arms the
  // idle ones; lazily reaps cancelled subscriptions.
  void NotifySubscribers(const std::string& name, uint64_t epoch);

  // Bracket one RunTicket in active_by_dataset_ so DrainDataset can wait
  // out the running tail. BeginRunLocked requires queue_mu_ held — the
  // worker claims the ticket and marks it active under one lock, so a
  // drain can never observe the gap between dequeue and run.
  void BeginRunLocked(const std::string& dataset_name);
  void EndRun(const std::string& dataset_name);

  Options opts_;

  mutable std::mutex datasets_mu_;
  std::map<std::string, std::shared_ptr<video::SyntheticDataset>> datasets_;

  // Serializes appends: two concurrent copy-and-grows would fork the
  // stream and one fork's frames would be lost in the swap. Never held
  // while queries run. Lock order:
  // append_mu_ -> datasets_mu_, append_mu_ -> subs_mu_ -> (per-sub mu).
  std::mutex append_mu_;

  // Live subscriptions by id. Cancelled entries are reaped lazily (on
  // notify/subscribe) and at shutdown.
  mutable std::mutex subs_mu_;
  std::map<uint64_t, std::shared_ptr<StreamSubState>> subs_;
  uint64_t next_sub_id_ = 1;

  PlanCache cache_;
  // Lock-cheap counters/histograms fed by the admission and run paths;
  // Stats() samples the gauges around it.
  MetricsRegistry metrics_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  AdmissionQueue pending_;
  // Queries currently inside RunTicket, per dataset (workers and blocking
  // Execute() callers both count). Guarded by queue_mu_; DrainDataset
  // waits on queue_cv_ for its dataset to hit zero here and in pending_.
  std::map<std::string, int> active_by_dataset_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Current accuracy-shed level (see SetDegradeLevel).
  std::atomic<int> degrade_level_{0};
};

}  // namespace zeus::engine

#endif  // ZEUS_ENGINE_QUERY_ENGINE_H_
