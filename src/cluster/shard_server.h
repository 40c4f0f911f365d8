#ifndef ZEUS_CLUSTER_SHARD_SERVER_H_
#define ZEUS_CLUSTER_SHARD_SERVER_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "cluster/protocol.h"
#include "engine/query_engine.h"
#include "net/frame_server.h"

namespace zeus::cluster {

// One shard of the multi-process cluster: a TCP server wrapping exactly one
// QueryEngine. This is the library form of the `shardd` binary
// (tools/shardd.cc) — tests run it in-process against RemoteShard clients
// so every fault-injection scenario is single-process and deterministic.
//
// Connection model: net::FrameServer's — one thread per connection, one
// request in flight per connection (strict request/response — concurrency
// comes from clients opening more connections, see RemoteShard's pool). A
// connection thread blocked in a long Execute keeps only its own
// connection busy. The frame port also answers GET /metrics with this
// shard's engine counters.
//
// The engine's plan cache should point at the cluster's shared persist
// dir: RegisterDataset frames with `warm_plans` then pull the dataset's
// persisted plans via QueryEngine::WarmUpDataset — the plan-catalog
// handoff that lets a re-homed dataset answer with planner_runs == 0.
class ShardServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = pick an ephemeral port (readable via port())
    // Response-write deadline; a client that stops reading cannot wedge a
    // connection thread forever.
    int write_deadline_ms = 30'000;
    engine::QueryEngine::Options engine;
    // Tag baked into the transport's fault-injection matching ("server"
    // plus this name).
    std::string name = "shardd";
  };

  explicit ShardServer(Options options);
  // Stops (gracefully) if still running.
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  common::Status Start();

  // Graceful stop: close the listener, kick live connections, drain the
  // engine's queued + running work (QueryEngine::DrainAll), join threads.
  void Stop();

  // Abrupt stop: everything closes NOW, nothing drains — the in-process
  // stand-in for kill -9 that the failover tests use. The engine object
  // survives (it is this object's member) but no response in flight is
  // completed.
  void Kill();

  int port() const { return server_.port(); }
  bool running() const { return running_.load(); }
  engine::QueryEngine& engine() { return engine_; }

 private:
  // Builds the response for one request frame. Never throws; malformed
  // payloads come back as kError(kInvalidArgument).
  net::Frame Dispatch(const net::Frame& req);

  net::Frame HandleExecute(const net::Frame& req);
  net::Frame HandleSubmit(const net::Frame& req);
  net::Frame HandleCancel(const net::Frame& req);
  net::Frame HandleTicketState(const net::Frame& req);
  net::Frame HandleTicketWait(const net::Frame& req);
  net::Frame HandleStats(const net::Frame& req);
  net::Frame HandleRegisterDataset(const net::Frame& req);
  net::Frame HandleRemoveDataset(const net::Frame& req);
  net::Frame HandleSyncPlans(const net::Frame& req);
  net::Frame HandleEpochQuery(const net::Frame& req);
  net::Frame HandleAppendFrames(const net::Frame& req);
  net::Frame HandleSubscribe(const net::Frame& req);
  net::Frame HandleStreamPoll(const net::Frame& req);
  net::Frame HandleUnsubscribe(const net::Frame& req);

  // The shard's applied epoch for `name` (0 if never registered).
  uint64_t AppliedEpoch(const std::string& name);
  // Stop (drain == true) and Kill: close the listener, cancel standing
  // queries, optionally drain the engine, then kick and join connections.
  void Shutdown(bool drain);
  // GET /metrics body: this engine's counters (no cluster health here).
  std::string MetricsText();

  Options opts_;
  engine::QueryEngine engine_;

  // Async surface: tickets live here between kSubmit and the terminal
  // kTicketWait (which erases them). Tickets a client abandons stay until
  // the server stops — acceptable for the cluster's internal use where
  // the router always waits or cancels. The dataset name rides along so
  // the eventual kResult can be stamped with the replica's applied epoch.
  struct PendingTicket {
    engine::QueryTicket ticket;
    std::string dataset;
  };
  std::mutex tickets_mu_;
  std::map<uint64_t, PendingTicket> tickets_;
  uint64_t next_ticket_id_ = 1;

  // Applied plan/dataset epoch per dataset — the shard's half of the
  // certain-answer contract. Advanced (monotonically) by kRegisterDataset,
  // kSyncPlans and kAppendFrames, stamped into every kResult and
  // kStreamResult this shard serves; the router compares it against the
  // group's committed epoch.
  std::mutex epochs_mu_;
  std::map<std::string, uint64_t> epochs_;

  // Standing queries, keyed by the CLIENT-chosen subscription id
  // (protocol.h kSubscribe): a replayed subscribe re-attaches here instead
  // of stacking a second subscription, and a poll for an unknown id is
  // NotFound — the router's re-attach trigger after this shard restarts.
  struct PendingSub {
    engine::SubscriptionTicket ticket;
    std::string dataset;
  };
  std::mutex subs_mu_;
  std::map<uint64_t, PendingSub> subs_;

  std::atomic<bool> running_{false};
  // Last member, so it is stopped before the state it dispatches into.
  net::FrameServer server_;
};

}  // namespace zeus::cluster

#endif  // ZEUS_CLUSTER_SHARD_SERVER_H_
