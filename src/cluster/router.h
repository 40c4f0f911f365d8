#ifndef ZEUS_CLUSTER_ROUTER_H_
#define ZEUS_CLUSTER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/metrics_text.h"
#include "cluster/protocol.h"
#include "cluster/remote_shard.h"
#include "engine/shard_ring.h"
#include "net/frame_server.h"

namespace zeus::cluster {

// The cluster front door (library form of tools/zeus_router.cc): owns a
// RemoteShard client per shard endpoint, places each dataset on its ring
// owner plus replication-1 ring successors over a consistent ShardRing of
// the ALIVE shards, health-checks every shard, and fails over when one
// dies. Writes (registration, trained-plan propagation) fan to every
// replica; reads are served primary-first with in-call failover to the
// next live replica — no health-check round-trip stands between a dead
// primary and the answer.
//
// Failure model (the certain-answer contract, cluster/protocol.h): a query
// either completes bit-identically to a single-process run — annotated
// kCertain when the serving replica's applied epoch matches the group's
// committed epoch, kDegraded (with the divergence reason) while a re-home
// or replica catch-up is mid-flight — or fails with an explicitly
// retryable status (kUnavailable / kResourceExhausted, see
// common::IsRetryable). The router never silently degrades a result.
// Failing over a read mid-call is safe because datasets are immutable and
// deterministic from their spec: re-executing a read on another replica is
// at-least-once execution of a pure function.
//
// Failover walkthrough (shard S dies, replication >= 2):
//   1. a query to a dataset whose primary was S fails its connect/write —
//      the router retries the NEXT live replica inside the same call.
//      Zero-unavailability: no client-visible error, no planner run (the
//      replica warmed its plans at registration / last sync);
//   2. the health checker misses `misses_to_dead` consecutive kStats
//      probes to S and declares it dead: S leaves the ring (only S's
//      vnodes vanish), its last Stats snapshot folds into the stats carry
//      (group counters stay monotone), its pooled connections close, and
//      its replica bookkeeping is dropped;
//   3. the repair pass re-registers each affected dataset on enough ring
//      successors to restore the replication factor (warm_plans pulls the
//      persisted plans) and kSyncPlans-catches-up any replica whose epoch
//      lags committed. Queries keep flowing to surviving replicas the
//      whole time; only a dataset with ZERO live replicas (replication 1,
//      or total loss) fails retryably until repair lands.
//
// With replication 1 this degrades exactly to the PR 6 behavior: a dead
// shard's datasets are unavailable (retryable) from kill to re-home.
class Router {
 public:
  struct Endpoint {
    std::string host = "127.0.0.1";
    int port = 0;
  };

  struct Options {
    // Client-facing listen address.
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = ephemeral
    std::vector<Endpoint> shards;
    // Background health-check cadence; <= 0 disables the thread and tests
    // drive the checker deterministically via CheckNow().
    int health_interval_ms = 250;
    int health_deadline_ms = 1'000;  // per-probe deadline (single attempt)
    int misses_to_dead = 3;
    // Deadline for routed query traffic (Execute / ticket waits can
    // legitimately take minutes on cold plans).
    int call_deadline_ms = 300'000;
    int write_deadline_ms = 30'000;  // client-facing response writes
    // Replicas per dataset (ring owner + replication-1 successors),
    // clamped to the shard count. 1 = no replication (PR 6 behavior).
    int replication = 1;
    std::string name = "router";
  };

  explicit Router(Options options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  common::Status Start();
  void Stop();
  int port() const { return server_.port(); }

  // ---- ZeusDb-style API (also reachable over the wire) ---------------------

  // Registers `spec` on the dataset's home shard and records it in the
  // catalog for failover. Returns the number of plans the home warmed.
  common::Result<uint64_t> RegisterDataset(const DatasetSpec& spec);
  common::Result<engine::QueryResult> Execute(const std::string& dataset,
                                              const std::string& sql,
                                              int priority = 0);
  // Full form: the request carries the accuracy/latency budget (tier,
  // min_accuracy, max_latency_budget) alongside priority, so routed
  // queries keep their budget across failover retries.
  common::Result<engine::QueryResult> Execute(const ExecRequest& req);
  common::Status RemoveDataset(const std::string& name);

  // ---- Live streams ---------------------------------------------------------
  //
  // Appends fan to EVERY live replica with an absolute (target, epoch)
  // stamped under the dataset lock, so replays and repair retries converge
  // (protocol.h kAppendFrames). The primary must land; a secondary that
  // misses the fan-out is left at its old epoch and the repair pass
  // catches its frames up with the same absolute form. `frames` is the
  // relative client form (> 0).
  common::Result<AppendReply> AppendFrames(const std::string& name,
                                           uint64_t frames);
  // Opens a standing query on the dataset's primary. `req.sub_id` == 0
  // lets the router assign the id (returned in the reply); a non-zero id
  // re-attaches to an existing routed subscription (idempotent retry).
  common::Result<SubscribeReply> Subscribe(SubscribeRequest req);
  // Long-polls the next update with ROUTER seq > after_seq. On a dead or
  // amnesiac primary this re-attaches the subscription to the current
  // primary (kSubscribe with the same id is idempotent) and dedupes
  // replayed windows by frame epoch, so a consumer polling with its last
  // delivered seq sees each epoch's result exactly once across failovers.
  common::Result<StreamResultMsg> StreamPoll(uint64_t sub_id,
                                             uint64_t after_seq,
                                             uint32_t timeout_ms);
  common::Status Unsubscribe(uint64_t sub_id);

  // Aggregated stats: every alive shard's snapshot plus the dead-shard
  // carry, so the totals never move backwards across a failover.
  StatsReply Stats();
  engine::GroupStats GroupStatsNow();
  ClusterHealth Health() const;

  // ---- Failover observability / deterministic test control -----------------

  // Runs one synchronous health pass over all alive shards (exactly what
  // the background thread does each tick), then a replica-repair pass
  // (restore replication factor, catch up lagging epochs). Returns how
  // many shards were newly declared dead.
  int CheckNow();
  bool ShardAlive(int id) const;
  int num_alive() const;
  // Current home (primary) shard id of `dataset` (-1 when no shard is
  // alive).
  int HomeOf(const std::string& dataset) const;
  // Shard ids currently holding a replica of `dataset` (dead shards
  // excluded; empty when unregistered or all replicas are lost).
  std::vector<int> ReplicasOf(const std::string& dataset) const;

 private:
  struct ShardState {
    Endpoint endpoint;
    std::unique_ptr<RemoteShard> client;  // routed traffic (with retries)
    std::unique_ptr<RemoteShard> probe;   // health checks (single attempt)
    bool alive = true;
    int misses = 0;
    engine::ShardStats last_stats;  // last good snapshot (failover carry)
    bool have_stats = false;
  };

  // Ordered read candidates for `dataset` under the lock: live replicas in
  // ring order (primary first), then any other live holder. Empty when the
  // dataset has no live replica (re-home in flight) or no shard is alive.
  // For an UNREGISTERED dataset: just the ring owner, so the shard's own
  // NotFound comes back unchanged (pre-replication behavior).
  std::vector<int> CandidatesLocked(const std::string& dataset) const;

  // Applies the certain-answer annotation: kCertain iff the serving
  // shard's applied epoch (stamped into the result) matches the dataset's
  // committed epoch, kDegraded with the divergence reason otherwise.
  engine::QueryResult AnnotateResult(const std::string& dataset,
                                     int served_by, engine::QueryResult r);

  // After a plan trains anywhere in the group (result.plan_seconds > 0):
  // bump the committed epoch and fan kSyncPlans to every live replica so
  // they pull the new plan from the shared catalog. Synchronous — by the
  // time the triggering result returns, replicas are caught up (or counted
  // behind, for the repair pass).
  void PropagatePlans(const std::string& dataset);

  // Drives placement to target: registers datasets on ring successors that
  // should hold a replica but don't (warm_plans — the catalog handoff) and
  // kSyncPlans-catches-up replicas whose epoch lags committed. No-op when
  // everything matches; takes and releases state_mu_ itself.
  void RepairReplicas();

  // Attaches (or re-attaches) a routed subscription to the dataset's
  // first live replica, primary-first. Returns the hosting shard id and
  // the shard's reply.
  common::Result<std::pair<int, SubscribeReply>> AttachSubscription(
      const SubscribeRequest& req);

  void RebuildRingLocked();
  // Declares shard `id` dead: drops it from the ring and from every
  // dataset's replica bookkeeping, then runs RepairReplicas. Called with
  // state_mu_ HELD; temporarily releases it for the repair RPCs.
  void FailOverLocked(std::unique_lock<std::mutex>& lock, int id);
  void HealthLoop();

  // Client-facing frame server (net::FrameServer does the transport).
  net::Frame Dispatch(const net::Frame& req);
  net::Frame HandleExecute(const net::Frame& req);
  net::Frame HandleSubmit(const net::Frame& req);
  net::Frame HandleTicketOp(const net::Frame& req);
  net::Frame HandleRegisterDataset(const net::Frame& req);
  net::Frame HandleRemoveDataset(const net::Frame& req);
  net::Frame HandleAppendFrames(const net::Frame& req);
  net::Frame HandleSubscribe(const net::Frame& req);
  net::Frame HandleStreamPoll(const net::Frame& req);
  net::Frame HandleUnsubscribe(const net::Frame& req);

  Options opts_;

  // Serializes whole health passes (the background thread vs. CheckNow
  // from tests): one failover runs at a time, start to finish.
  std::mutex check_mu_;

  // Serializes append fan-outs per router: two concurrent appends must not
  // stamp the same (target, epoch). Taken before state_mu_, never after.
  std::mutex append_mu_;

  // Everything the router knows about one dataset's replica group: the
  // spec (to re-create it elsewhere), the committed epoch (advanced by
  // registration and plan propagation), and each holder's applied epoch.
  // A query is kCertain iff served at applied == committed; a holder with
  // applied < committed is "behind" and the repair pass catches it up.
  struct DatasetState {
    DatasetSpec spec;
    uint64_t committed_epoch = 0;
    std::map<int, uint64_t> replica_epochs;  // shard id -> applied epoch
    // Committed stream length (test-video frames). Initialized to the
    // spec's base length at registration; advanced only by appends. The
    // repair pass replays `GrowTo(committed_frames, committed_epoch)` on
    // any replica it touches — epoch alone cannot prove frames, because a
    // plan sync also advances epochs.
    uint64_t committed_frames = 0;
  };

  mutable std::mutex state_mu_;
  std::vector<ShardState> shards_;
  std::unique_ptr<engine::ShardRing> ring_;  // over alive shard ids
  int alive_count_ = 0;
  std::map<std::string, DatasetState> datasets_;
  // Dead shards' final snapshots, folded (keeps group stats monotone).
  engine::ShardStats carry_;
  bool have_carry_ = false;
  int64_t failovers_ = 0;
  int64_t rehomed_ = 0;
  int64_t read_failovers_ = 0;
  int64_t certain_answers_ = 0;
  int64_t degraded_answers_ = 0;
  int64_t resyncs_ = 0;

  // Router-side ticket surface: router ticket id -> where the query
  // actually runs (plus the dataset, for the certain-answer annotation on
  // the eventual wait).
  struct RoutedTicket {
    int shard = -1;
    uint64_t remote_id = 0;
    std::string dataset;
  };
  std::mutex tickets_mu_;
  std::map<uint64_t, RoutedTicket> tickets_;
  uint64_t next_ticket_id_ = 1;

  // Router-side subscription surface: the routed id doubles as the
  // client-chosen id on whichever shard currently hosts the subscription,
  // so a re-attach after failover is the SAME kSubscribe frame aimed at
  // the new primary. `last_epoch_delivered` is the failover dedupe line:
  // a re-attached subscription's first window replays the current epoch,
  // and the poll path skips anything at or below the line.
  struct RoutedSub {
    SubscribeRequest req;       // req.sub_id == routed id
    int shard = -1;             // current host (-1 = needs attach)
    uint64_t remote_last_seq = 0;
    uint64_t next_out_seq = 1;  // router-facing seq counter
    uint64_t last_epoch_delivered = 0;
    uint64_t dropped = 0;       // host-side conflation, accumulated
    bool delivered_any = false;
    // Last update handed to the client, replayed when a poll arrives with
    // after_seq below it (lost response) — kStreamPoll stays idempotent
    // end-to-end through the router.
    StreamResultMsg last_out;
  };
  std::mutex subs_mu_;
  std::map<uint64_t, RoutedSub> subs_;
  uint64_t next_sub_id_ = 1;

  std::atomic<bool> running_{false};
  std::thread health_thread_;
  std::mutex health_mu_;
  std::condition_variable health_cv_;

  // Last member, so it is stopped before the state it dispatches into.
  net::FrameServer server_;
};

}  // namespace zeus::cluster

#endif  // ZEUS_CLUSTER_ROUTER_H_
