#ifndef ZEUS_CLUSTER_REMOTE_SHARD_H_
#define ZEUS_CLUSTER_REMOTE_SHARD_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/protocol.h"
#include "net/frame_conn.h"

namespace zeus::cluster {

class RemoteShard;

// Handle to a query submitted on a remote shard — the wire-side mirror of
// engine::QueryTicket. Non-owning: the RemoteShard must outlive it (the
// router and the tests both own their shards for the cluster's lifetime).
class RemoteTicket {
 public:
  RemoteTicket() = default;
  RemoteTicket(RemoteShard* shard, uint64_t id) : shard_(shard), id_(id) {}

  bool valid() const { return shard_ != nullptr; }
  uint64_t id() const { return id_; }

  common::Result<TicketStateReply> State();
  common::Status Cancel();
  // Blocks until the remote query is terminal. Terminal on the server too:
  // the shard reaps the ticket when the wait resolves.
  common::Result<engine::QueryResult> Wait();

 private:
  RemoteShard* shard_ = nullptr;
  uint64_t id_ = 0;
};

// Client for one ShardServer, with the same Submit / Execute / Cancel
// surface as the in-process engine. Thread-safe; concurrency comes from a
// connection pool (the server runs one request per connection).
//
// Retry contract (the heart of the cluster's failure model):
//   - connect and WRITE failures always retry: the crc trailer makes a
//     partial frame self-invalidating, so a failed write proves the server
//     never executed the request;
//   - a lost RESPONSE retries only for IsIdempotent frame types. For
//     kExecute / kSubmit / kTicketWait the request may have executed, so
//     re-sending could run a query twice — the call surfaces
//     kUnavailable and the CALLER decides (IsRetryable() is true for it).
// Backoff between attempts is exponential with deterministic jitter
// (derived from the request counter, no RNG): reproducible under the
// fault-injection harness, still spread out across callers.
class RemoteShard {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    int connect_timeout_ms = 2'000;
    // Default per-call deadline (methods take an override; <= 0 = forever).
    int call_deadline_ms = 120'000;
    int max_attempts = 3;
    int backoff_base_ms = 25;
    int backoff_max_ms = 1'000;
    // Fault-injection tag: connections are tagged "client:<name>".
    std::string name = "shard";
  };

  explicit RemoteShard(Options options);
  ~RemoteShard();

  RemoteShard(const RemoteShard&) = delete;
  RemoteShard& operator=(const RemoteShard&) = delete;

  const Options& options() const { return opts_; }

  // Health probe (also what the router's checker sends as kStats; Ping is
  // the cheaper form for liveness-only checks).
  common::Status Ping(int deadline_ms = 0);

  common::Result<engine::QueryResult> Execute(const ExecRequest& req,
                                              int deadline_ms = 0);
  common::Result<RemoteTicket> Submit(const ExecRequest& req,
                                      int deadline_ms = 0);
  common::Status Cancel(uint64_t ticket_id, int deadline_ms = 0);
  common::Result<TicketStateReply> TicketState(uint64_t ticket_id,
                                               int deadline_ms = 0);
  common::Result<engine::QueryResult> TicketWait(uint64_t ticket_id,
                                                 int deadline_ms = 0);
  common::Result<StatsReply> Stats(int deadline_ms = 0);
  // Returns the number of plans the shard warmed from the shared catalog.
  common::Result<uint64_t> RegisterDataset(const DatasetSpec& spec,
                                           int deadline_ms = 0);
  common::Status RemoveDataset(const std::string& name, int deadline_ms = 0);

  // Replication maintenance. SyncPlans asks the shard to re-warm `name`'s
  // plans from the shared catalog and advance its applied epoch to at least
  // `epoch` (NotFound if the shard holds no replica — the router falls back
  // to a full RegisterDataset). EpochOf probes the shard's applied epoch.
  // Both are idempotent on the wire.
  common::Result<SyncReply> SyncPlans(const std::string& name, uint64_t epoch,
                                      int deadline_ms = 0);
  common::Result<EpochReply> EpochOf(const std::string& name,
                                     int deadline_ms = 0);

  // Live streams (all idempotent on the wire — see net/wire.h). The shard
  // side takes only the absolute append form; Subscribe's sub_id is the
  // caller's, which is what makes re-attach after failover possible; Poll
  // long-polls for the next update with seq > after_seq (kUnavailable on
  // timeout, kNotFound when the shard does not know the subscription —
  // the re-attach cue).
  common::Result<AppendReply> AppendFrames(const AppendFramesRequest& req,
                                           int deadline_ms = 0);
  common::Result<SubscribeReply> Subscribe(const SubscribeRequest& req,
                                           int deadline_ms = 0);
  common::Result<StreamResultMsg> StreamPoll(const StreamPollRequest& req,
                                             int deadline_ms = 0);
  common::Status Unsubscribe(uint64_t sub_id, int deadline_ms = 0);

  // Drops every pooled connection; the next call redials. The router uses
  // this when a shard comes back suspect — stale sockets to a dead peer
  // must not linger under fresh attempts.
  void CloseConnections();

 private:
  // One request/response exchange with retry per the contract above.
  // `expect` is the success response type; kError frames become their
  // carried Status (never retried here — the server DID answer).
  common::Result<net::Frame> Call(net::FrameType type, std::string payload,
                                  net::FrameType expect, int deadline_ms);
  // Call, then `decode` the success reply's payload. A reply that does not
  // decode is the shard's fault and surfaces as kUnavailable.
  template <typename T>
  common::Result<T> CallDecoded(net::FrameType type, std::string payload,
                                net::FrameType expect, int deadline_ms,
                                bool (*decode)(const std::string&, T*));

  // Pool: pop an idle connection or dial a fresh one.
  common::Result<net::FrameConn> Acquire();
  void Release(net::FrameConn conn);

  int Deadline(int deadline_ms) const {
    return deadline_ms != 0 ? deadline_ms : opts_.call_deadline_ms;
  }

  Options opts_;

  std::mutex pool_mu_;
  std::vector<net::FrameConn> pool_;

  std::mutex seq_mu_;
  uint64_t next_request_id_ = 1;
};

}  // namespace zeus::cluster

#endif  // ZEUS_CLUSTER_REMOTE_SHARD_H_
