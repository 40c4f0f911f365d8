// End-to-end tests for the multi-process cluster layer: ShardServer +
// RemoteShard over real TCP, the deterministic fault-injection scenarios
// (drop / delay / close / corrupt), and the failover drills — an
// in-process one (ShardServer::Kill + manual health passes, fully
// deterministic, ASan-friendly) and a real-process one (fork/exec shardd,
// SIGKILL mid-load). The invariant under test throughout is the cluster's
// failure contract: a query either completes bit-identical to the
// single-process engine or fails with an explicitly retryable status —
// and after a failover, the re-homed dataset answers from warmed plans
// (plan_seconds == 0, no new planner runs).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/remote_shard.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/stringutil.h"
#include "net/fault.h"
#include "video/dataset.h"

namespace zeus {
namespace {

namespace fs = std::filesystem;

constexpr char kSql[] =
    "SELECT segment_ids FROM UDF(video) "
    "WHERE action_class = 'cross-right' AND accuracy >= 80%";

cluster::DatasetSpec SmokeSpec() {
  cluster::DatasetSpec spec;
  spec.name = "d";
  spec.family = video::DatasetFamily::kBdd100kLike;
  spec.seed = 17;
  spec.num_videos = 10;
  spec.frames_per_video = 160;
  return spec;
}

engine::QueryEngine::Options EngineOptions(const std::string& persist_dir) {
  engine::QueryEngine::Options opts;
  opts.num_workers = 2;
  opts.cache.persist_dir = persist_dir;
  // Every engine in a bit-identity comparison must share these knobs:
  // identical planner options + identical dataset spec => identical plan.
  opts.planner = core::QueryPlanner::ReducedOptions();
  return opts;
}

void ExpectSameOutcome(const engine::QueryResult& a,
                       const engine::QueryResult& b) {
  EXPECT_TRUE(engine::SameSegments(a, b))
      << a.segments.size() << " vs " << b.segments.size() << " segments";
  EXPECT_EQ(a.metrics.tp, b.metrics.tp);
  EXPECT_EQ(a.metrics.fp, b.metrics.fp);
  EXPECT_EQ(a.metrics.fn, b.metrics.fn);
  EXPECT_EQ(a.metrics.tn, b.metrics.tn);
}

// One HTTP/1.1 GET on `port`; returns everything the server sent before
// it closed the connection (Connection: close).
std::string HttpGet(int port, const std::string& path) {
  net::TcpSocket http;
  if (!http.Connect("127.0.0.1", port, 2'000).ok()) return "";
  const std::string get = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  if (!http.WriteAll(get.data(), get.size(), 2'000).ok()) return "";
  std::string response;
  char c = 0;
  while (http.ReadAll(&c, 1, 2'000).ok()) response.push_back(c);
  return response;
}

class FaultGuard {
 public:
  explicit FaultGuard(net::FaultInjector* injector) {
    net::SetFaultInjector(injector);
  }
  ~FaultGuard() { net::SetFaultInjector(nullptr); }
};

// ---- Shared fixture: one shard server, one trained plan --------------------

// The reference engine trains the smoke dataset's plan ONCE into the shared
// persist dir; the shard server warms from that catalog, so every test gets
// a bit-identity baseline and a warm shard without retraining.
class ClusterTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    persist_root_ = new std::string(testing::TempDir() + "/zeus_cluster_" +
                                    std::to_string(::getpid()));
    fs::remove_all(*persist_root_);
    fs::create_directories(*persist_root_ + "/shared");

    const cluster::DatasetSpec spec = SmokeSpec();
    ref_engine_ =
        new engine::QueryEngine(EngineOptions(*persist_root_ + "/shared"));
    ASSERT_TRUE(ref_engine_
                    ->RegisterDataset(spec.name,
                                      video::SyntheticDataset::Generate(
                                          cluster::ProfileFor(spec), spec.seed))
                    .ok());
    auto ref = ref_engine_->Execute(spec.name, kSql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ref_result_ = new engine::QueryResult(ref.value());

    cluster::ShardServer::Options sopts;
    sopts.engine = EngineOptions(*persist_root_ + "/shared");
    sopts.name = "s0";
    server_ = new cluster::ShardServer(sopts);
    ASSERT_TRUE(server_->Start().ok());

    cluster::RemoteShard::Options copts;
    copts.port = server_->port();
    copts.name = "fixture";
    client_ = new cluster::RemoteShard(copts);
    auto reg = client_->RegisterDataset(spec);
    ASSERT_TRUE(reg.ok()) << reg.status().ToString();
    // The warm start IS the plan-catalog handoff: the server must have
    // loaded the reference engine's persisted plan, not retrained.
    EXPECT_GE(reg.value(), 1u);
  }

  static void TearDownTestSuite() {
    delete client_;
    client_ = nullptr;
    if (server_ != nullptr) server_->Stop();
    delete server_;
    server_ = nullptr;
    delete ref_engine_;
    ref_engine_ = nullptr;
    delete ref_result_;
    ref_result_ = nullptr;
    std::error_code ec;
    fs::remove_all(*persist_root_, ec);
    delete persist_root_;
    persist_root_ = nullptr;
  }

  static cluster::ExecRequest Exec() {
    cluster::ExecRequest req;
    req.dataset = SmokeSpec().name;
    req.sql = kSql;
    return req;
  }

  static std::string* persist_root_;
  static engine::QueryEngine* ref_engine_;
  static engine::QueryResult* ref_result_;
  static cluster::ShardServer* server_;
  static cluster::RemoteShard* client_;
};

std::string* ClusterTest::persist_root_ = nullptr;
engine::QueryEngine* ClusterTest::ref_engine_ = nullptr;
engine::QueryResult* ClusterTest::ref_result_ = nullptr;
cluster::ShardServer* ClusterTest::server_ = nullptr;
cluster::RemoteShard* ClusterTest::client_ = nullptr;

// ---- Basic transport-level serving ----------------------------------------

TEST_F(ClusterTest, RemoteExecuteIsBitIdenticalAndWarmStarted) {
  auto remote = client_->Execute(Exec());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ExpectSameOutcome(*ref_result_, remote.value());
  // Plan came from the shared catalog, not a planner run.
  EXPECT_EQ(remote.value().plan_seconds, 0.0);

  auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().stats.planner_runs, 0);
  EXPECT_GE(stats.value().stats.disk_loads, 1);
  EXPECT_GE(stats.value().stats.completed, 1);
}

TEST_F(ClusterTest, RemoteTicketsMirrorTheEngineSurface) {
  auto ticket = client_->Submit(Exec());
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  auto result = ticket.value().Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameOutcome(*ref_result_, result.value());

  // The wait reaped the server-side ticket: a second wait is NotFound.
  auto again = client_->TicketWait(ticket.value().id());
  EXPECT_EQ(again.status().code(), common::StatusCode::kNotFound);

  // Cancel is idempotent — unknown (already-reaped) ids are a no-op OK.
  EXPECT_TRUE(client_->Cancel(ticket.value().id()).ok());
  EXPECT_TRUE(client_->Cancel(999999).ok());
}

TEST_F(ClusterTest, ServerSideErrorsArriveAsTheSameStatus) {
  cluster::ExecRequest bad = Exec();
  bad.dataset = "no-such-dataset";
  auto result = client_->Execute(bad);
  EXPECT_EQ(result.status().code(), common::StatusCode::kNotFound);

  cluster::ExecRequest garbage = Exec();
  garbage.sql = "SELEKT nothing";
  auto parse = client_->Execute(garbage);
  EXPECT_FALSE(parse.ok());
  EXPECT_FALSE(common::IsRetryable(parse.status().code()));
}

// Every shard port is dual-protocol: the port that serves frames also
// answers a /metrics scrape with the shard's own engine counters.
TEST_F(ClusterTest, ShardServesMetricsOnItsFramePort) {
  ASSERT_TRUE(client_->Execute(Exec()).ok());
  auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const std::string metrics = HttpGet(server_->port(), "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << metrics;
  EXPECT_NE(metrics.find(common::Format("zeus_queries_completed_total %ld\n",
                                        stats.value().stats.completed)),
            std::string::npos);
  EXPECT_NE(metrics.find(common::Format("zeus_plan_disk_loads_total %ld\n",
                                        stats.value().stats.disk_loads)),
            std::string::npos);
  EXPECT_NE(metrics.find("zeus_planner_runs_total 0\n"), std::string::npos);
  EXPECT_NE(metrics.find("zeus_shards_alive 1\n"), std::string::npos);
  // Router-only families read zero on a shard.
  EXPECT_NE(metrics.find("zeus_cluster_failovers_total 0\n"),
            std::string::npos);

  const std::string missing = HttpGet(server_->port(), "/nope");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << missing;

  // The scrapes did not disturb the frame protocol on the same port.
  EXPECT_TRUE(client_->Ping().ok());
}

// Stop() and Kill() must not wait on idle clients. Two connections sit in
// a blocking server-side read: a frame connection parked between requests
// and a scrape stalled mid-request (the server holds it open for the rest
// of the HTTP head). Both calls return promptly, the stalled scrape is
// closed, and the next frame on the parked connection fails retryably.
TEST_F(ClusterTest, ShardStopAndKillKickIdleConnections) {
  for (const bool kill : {false, true}) {
    SCOPED_TRACE(kill ? "Kill" : "Stop");
    cluster::ShardServer::Options sopts;
    sopts.engine = EngineOptions(*persist_root_ + "/idle");
    sopts.name = kill ? "idle-kill" : "idle-stop";
    cluster::ShardServer server(sopts);
    ASSERT_TRUE(server.Start().ok());

    cluster::RemoteShard::Options copts;
    copts.port = server.port();
    copts.max_attempts = 1;
    copts.name = "idle-client";
    cluster::RemoteShard client(copts);
    ASSERT_TRUE(client.Ping().ok());  // leaves one pooled, idle connection

    net::TcpSocket scrape;
    ASSERT_TRUE(scrape.Connect("127.0.0.1", server.port(), 2'000).ok());
    const std::string partial = "GET /metrics HTTP/1.1\r\n";
    ASSERT_TRUE(scrape.WriteAll(partial.data(), partial.size(), 2'000).ok());
    char c = 0;
    const common::Status pending = scrape.ReadAll(&c, 1, 300);
    EXPECT_NE(pending.message().find("deadline"), std::string::npos)
        << "scrape was not held open: " << pending.ToString();

    const auto t0 = std::chrono::steady_clock::now();
    if (kill) {
      server.Kill();
    } else {
      server.Stop();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
    EXPECT_FALSE(server.running());

    EXPECT_FALSE(scrape.ReadAll(&c, 1, 2'000).ok());
    EXPECT_EQ(client.Ping().code(), common::StatusCode::kUnavailable);
  }
}

// ---- Fault-injection scenarios ---------------------------------------------

TEST_F(ClusterTest, InjectedCloseOnWriteRetriesTransparently) {
  net::FaultInjector injector;
  FaultGuard guard(&injector);
  net::FaultRule rule;
  rule.action = net::FaultAction::kClose;
  rule.direction = net::FaultDirection::kSend;
  rule.match_type = true;
  rule.type = net::FrameType::kExecute;
  rule.tag_contains = "client:fixture";
  injector.AddRule(rule);

  // The connection dies before the frame leaves, so the server cannot have
  // executed — the client proves this and retries even a non-idempotent
  // Execute. The caller sees nothing but success.
  auto result = client_->Execute(Exec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameOutcome(*ref_result_, result.value());
  EXPECT_EQ(injector.fired_count(), 1);
}

TEST_F(ClusterTest, DroppedResponseOnExecuteSurfacesRetryable) {
  // A dedicated single-attempt client: the fixture client would mask the
  // contract with its own retries.
  cluster::RemoteShard::Options copts;
  copts.port = server_->port();
  copts.name = "oneshot";
  copts.max_attempts = 1;
  copts.call_deadline_ms = 1'500;
  cluster::RemoteShard oneshot(copts);

  net::FaultInjector injector;
  FaultGuard guard(&injector);
  net::FaultRule rule;
  rule.action = net::FaultAction::kDrop;
  rule.direction = net::FaultDirection::kRecv;
  rule.match_type = true;
  rule.type = net::FrameType::kResult;
  rule.tag_contains = "client:oneshot";
  injector.AddRule(rule);

  // The request was fully written and the reply vanished: the query may
  // have run, so a non-idempotent Execute must NOT be silently retried —
  // the client surfaces an explicitly retryable kUnavailable instead.
  auto result = oneshot.Execute(Exec());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kUnavailable);
  EXPECT_TRUE(common::IsRetryable(result.status().code()));
  EXPECT_EQ(injector.fired_count(), 1);

  // The caller applies its own policy — a manual retry completes with the
  // bit-identical answer.
  auto retried = oneshot.Execute(Exec());
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ExpectSameOutcome(*ref_result_, retried.value());
}

TEST_F(ClusterTest, CorruptServerFrameIsRejectedThenRetried) {
  net::FaultInjector injector;
  FaultGuard guard(&injector);
  net::FaultRule rule;
  rule.action = net::FaultAction::kCorrupt;
  rule.direction = net::FaultDirection::kSend;
  rule.match_type = true;
  rule.type = net::FrameType::kStatsReply;
  rule.tag_contains = "server:s0";
  injector.AddRule(rule);

  // Attempt 1 reads a corrupt frame (crc mismatch, connection poisoned);
  // Stats is idempotent, so attempt 2 succeeds on a fresh connection.
  auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(injector.fired_count(), 1);
}

TEST_F(ClusterTest, SlowPeerDelaysButCompletes) {
  net::FaultInjector injector;
  FaultGuard guard(&injector);
  net::FaultRule rule;
  rule.action = net::FaultAction::kDelayMs;
  rule.delay_ms = 300;
  rule.direction = net::FaultDirection::kSend;
  rule.match_type = true;
  rule.type = net::FrameType::kStatsReply;
  rule.tag_contains = "server:s0";
  injector.AddRule(rule);

  const auto start = std::chrono::steady_clock::now();
  auto stats = client_->Stats();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            250);
}

TEST_F(ClusterTest, PartitionedShardTimesOutRetryably) {
  // A partition (peer present but silent) is a delay far past the
  // deadline: every attempt times out, the caller gets kUnavailable.
  cluster::RemoteShard::Options copts;
  copts.port = server_->port();
  copts.name = "partition";
  copts.max_attempts = 2;
  copts.backoff_base_ms = 10;
  copts.call_deadline_ms = 300;
  cluster::RemoteShard client(copts);

  net::FaultInjector injector;
  FaultGuard guard(&injector);
  net::FaultRule rule;
  rule.action = net::FaultAction::kDrop;
  rule.direction = net::FaultDirection::kSend;
  rule.tag_contains = "client:partition";
  rule.times = -1;  // the partition does not heal
  injector.AddRule(rule);

  auto st = client.Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(common::IsRetryable(st.code()));
  EXPECT_GE(injector.fired_count(), 2);  // every attempt swallowed
}

// ---- In-process failover drill (deterministic) -----------------------------

TEST_F(ClusterTest, RouterFailsOverKilledShardWithWarmPlansAndSameAnswers) {
  const std::string dir = *persist_root_ + "/router_drill";
  fs::create_directories(dir);

  std::vector<std::unique_ptr<cluster::ShardServer>> shards;
  cluster::Router::Options ropts;
  for (int i = 0; i < 3; ++i) {
    cluster::ShardServer::Options sopts;
    sopts.engine = EngineOptions(dir);
    sopts.name = "drill" + std::to_string(i);
    shards.push_back(std::make_unique<cluster::ShardServer>(sopts));
    ASSERT_TRUE(shards.back()->Start().ok());
    ropts.shards.push_back({"127.0.0.1", shards.back()->port()});
  }
  ropts.health_interval_ms = 0;  // tests drive the checker deterministically
  ropts.misses_to_dead = 2;
  ropts.health_deadline_ms = 1'000;
  ropts.name = "drillrouter";
  cluster::Router router(std::move(ropts));
  ASSERT_TRUE(router.Start().ok());

  cluster::DatasetSpec spec = SmokeSpec();
  spec.name = "drill-d";
  auto reg = router.RegisterDataset(spec);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();

  const int home = router.HomeOf(spec.name);
  ASSERT_GE(home, 0);
  auto r0 = router.Execute(spec.name, kSql);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  // Trained exactly once, on the home shard.
  EXPECT_GT(r0.value().plan_seconds, 0.0);
  EXPECT_EQ(router.CheckNow(), 0);  // healthy pass; snapshots the stats
  const auto before = router.Stats();
  EXPECT_EQ(before.stats.planner_runs, 1);

  // Kill the home shard abruptly (the in-process stand-in for kill -9).
  shards[static_cast<size_t>(home)]->Kill();

  // Before the checker notices, queries fail — but explicitly retryably,
  // never with a wrong or empty answer.
  auto during = router.Execute(spec.name, kSql);
  ASSERT_FALSE(during.ok());
  EXPECT_TRUE(common::IsRetryable(during.status().code()))
      << during.status().ToString();

  // Two missed beats declare the shard dead and re-home its datasets.
  int newly_dead = router.CheckNow();
  newly_dead += router.CheckNow();
  EXPECT_EQ(newly_dead, 1);
  EXPECT_FALSE(router.ShardAlive(home));
  EXPECT_EQ(router.num_alive(), 2);
  const int new_home = router.HomeOf(spec.name);
  EXPECT_NE(new_home, home);

  const cluster::ClusterHealth health = router.Health();
  EXPECT_EQ(health.failovers, 1);
  EXPECT_EQ(health.rehomed_datasets, 1);
  EXPECT_EQ(health.dead_shards, 1);

  // The re-homed dataset answers bit-identically from warmed plans: no new
  // planner run anywhere in the cluster, and the totals never went
  // backwards despite the death (the dead shard's history is carried).
  auto r1 = router.Execute(spec.name, kSql);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ExpectSameOutcome(r0.value(), r1.value());
  EXPECT_EQ(r1.value().plan_seconds, 0.0);

  const auto after = router.Stats();
  EXPECT_EQ(after.stats.planner_runs, before.stats.planner_runs);
  EXPECT_GE(after.stats.completed, before.stats.completed);
  // The dataset's own row keeps its completions from before the kill: the
  // dead shard's row is carried and merged by name with the new home's.
  auto completed_of = [&](const cluster::StatsReply& reply) -> long {
    for (const auto& row : reply.stats.datasets) {
      if (row.dataset == spec.name) return row.completed;
    }
    return -1;
  };
  EXPECT_GE(completed_of(before), 1);
  EXPECT_GE(completed_of(after), completed_of(before) + 1);
  EXPECT_EQ(after.num_shards, 2);
  EXPECT_EQ(after.failovers, 1);

  // The /metrics endpoint reports the failover (HTTP on the frame port).
  net::TcpSocket http;
  ASSERT_TRUE(http.Connect("127.0.0.1", router.port(), 2'000).ok());
  const std::string get = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_TRUE(http.WriteAll(get.data(), get.size(), 2'000).ok());
  std::string response;
  char buf[4096];
  for (;;) {
    // Read until the server closes (Connection: close).
    size_t chunk = sizeof(buf);
    common::Status st = http.ReadAll(buf, 1, 2'000);
    if (!st.ok()) break;
    response.push_back(buf[0]);
    (void)chunk;
  }
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("zeus_cluster_failovers_total 1\n"),
            std::string::npos);
  EXPECT_NE(response.find("zeus_shards_alive 2\n"), std::string::npos);

  router.Stop();
  for (auto& shard : shards) shard->Stop();
}

// ---- Replicated failover: zero unavailability ------------------------------

// With replication >= 2 a dead primary must be INVISIBLE to clients: the
// very next Execute — issued before any health pass has noticed the death —
// fails over to a live replica inside the call and returns the bit-identical
// answer, kCertain, from a propagated plan. This is the contract the R=1
// drill above cannot offer (there, the same window is explicitly retryable).
TEST_F(ClusterTest, ReplicatedPrimaryKillIsZeroUnavailability) {
  const std::string dir = *persist_root_ + "/repl_drill";
  fs::create_directories(dir);

  std::vector<std::unique_ptr<cluster::ShardServer>> shards;
  cluster::Router::Options ropts;
  for (int i = 0; i < 3; ++i) {
    cluster::ShardServer::Options sopts;
    sopts.engine = EngineOptions(dir);
    sopts.name = "repl" + std::to_string(i);
    shards.push_back(std::make_unique<cluster::ShardServer>(sopts));
    ASSERT_TRUE(shards.back()->Start().ok());
    ropts.shards.push_back({"127.0.0.1", shards.back()->port()});
  }
  ropts.health_interval_ms = 0;  // tests drive the checker deterministically
  ropts.misses_to_dead = 2;
  ropts.health_deadline_ms = 1'000;
  ropts.replication = 2;
  ropts.name = "replrouter";
  cluster::Router router(std::move(ropts));
  ASSERT_TRUE(router.Start().ok());

  cluster::DatasetSpec spec = SmokeSpec();
  spec.name = "repl-d";
  auto reg = router.RegisterDataset(spec);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  ASSERT_EQ(router.ReplicasOf(spec.name).size(), 2u);

  // First query trains the plan on the primary; the router propagates it to
  // the replica group before returning control here. The triggering answer
  // itself is certain — it matched the committed epoch when it was served.
  auto r0 = router.Execute(spec.name, kSql);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_GT(r0.value().plan_seconds, 0.0);
  EXPECT_EQ(r0.value().consistency, engine::Consistency::kCertain);
  EXPECT_EQ(router.CheckNow(), 0);
  EXPECT_EQ(router.Stats().stats.planner_runs, 1);
  EXPECT_EQ(router.Health().replicas_behind, 0);

  const int home = router.HomeOf(spec.name);
  ASSERT_GE(home, 0);
  shards[static_cast<size_t>(home)]->Kill();

  // No health pass has run: the router still believes the primary is alive.
  // The call itself must ride over the death — THE zero-unavailability
  // assertion. No retry loop here on purpose.
  auto r1 = router.Execute(spec.name, kSql);
  ASSERT_TRUE(r1.ok()) << "client saw the primary die: "
                       << r1.status().ToString();
  ExpectSameOutcome(r0.value(), r1.value());
  EXPECT_EQ(r1.value().plan_seconds, 0.0);
  EXPECT_EQ(r1.value().consistency, engine::Consistency::kCertain)
      << r1.value().divergence;
  EXPECT_GE(router.Health().read_failovers, 1);

  // Now let the checker notice and repair: the dataset gets a replacement
  // replica so the group is back at full strength.
  int newly_dead = router.CheckNow();
  newly_dead += router.CheckNow();
  EXPECT_EQ(newly_dead, 1);
  const cluster::ClusterHealth health = router.Health();
  EXPECT_EQ(health.failovers, 1);
  EXPECT_EQ(health.rehomed_datasets, 1);
  EXPECT_EQ(router.ReplicasOf(spec.name).size(), 2u);
  EXPECT_EQ(router.Health().replicas_behind, 0);

  auto r2 = router.Execute(spec.name, kSql);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ExpectSameOutcome(r0.value(), r2.value());
  EXPECT_EQ(r2.value().consistency, engine::Consistency::kCertain);

  // The whole drill never trained a second plan and never served degraded.
  EXPECT_EQ(router.Stats().stats.planner_runs, 1);
  EXPECT_EQ(router.Health().degraded_answers, 0);
  EXPECT_GE(router.Health().certain_answers, 3);

  router.Stop();
  for (auto& shard : shards) shard->Stop();
}

// ---- Live streams through the cluster --------------------------------------

// The full streaming contract, end to end over real TCP with a mid-stream
// primary kill: appends fan to every replica with absolute (target, epoch)
// targets, a standing query keeps delivering incremental results across
// the failover (the router re-attaches it to the new primary with the same
// subscription id and dedupes the replayed window by frame epoch), every
// delivered result is kCertain, planner_runs stays flat the whole time,
// and the final incremental answer is bit-identical to a cold one-shot
// over the same prefix in a single-process engine.
TEST_F(ClusterTest, StreamSubscriptionSurvivesPrimaryKill) {
  const std::string dir = *persist_root_ + "/stream_drill";
  fs::create_directories(dir);

  std::vector<std::unique_ptr<cluster::ShardServer>> shards;
  cluster::Router::Options ropts;
  for (int i = 0; i < 3; ++i) {
    cluster::ShardServer::Options sopts;
    sopts.engine = EngineOptions(dir);
    sopts.name = "stream" + std::to_string(i);
    shards.push_back(std::make_unique<cluster::ShardServer>(sopts));
    ASSERT_TRUE(shards.back()->Start().ok());
    ropts.shards.push_back({"127.0.0.1", shards.back()->port()});
  }
  ropts.health_interval_ms = 0;  // tests drive the checker deterministically
  ropts.misses_to_dead = 2;
  ropts.health_deadline_ms = 1'000;
  ropts.replication = 2;
  ropts.name = "streamrouter";
  cluster::Router router(std::move(ropts));
  ASSERT_TRUE(router.Start().ok());

  cluster::DatasetSpec spec = SmokeSpec();
  spec.name = "stream-d";
  ASSERT_TRUE(router.RegisterDataset(spec).ok());
  ASSERT_EQ(router.ReplicasOf(spec.name).size(), 2u);

  // Train the plan once (propagated to the replica group before control
  // returns), then pin the planner-run budget for the whole drill.
  auto r0 = router.Execute(spec.name, kSql);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_GT(r0.value().plan_seconds, 0.0);
  EXPECT_EQ(router.CheckNow(), 0);
  const auto planner_runs_before = router.Stats().stats.planner_runs;
  EXPECT_EQ(planner_runs_before, 1);

  // Subscribe through the router (sub_id 0 = router assigns). The initial
  // window covers the base prefix — the same prefix the one-shot above
  // answered — so the first incremental result must match it bit for bit.
  cluster::SubscribeRequest sub;
  sub.dataset = spec.name;
  sub.sql = kSql;
  auto attach = router.Subscribe(sub);
  ASSERT_TRUE(attach.ok()) << attach.status().ToString();
  const uint64_t sub_id = attach.value().sub_id;
  ASSERT_GT(sub_id, 0u);
  EXPECT_FALSE(attach.value().attached_existing);

  auto u1 = router.StreamPoll(sub_id, 0, 30'000);
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();
  EXPECT_EQ(u1.value().seq, 1u);
  ExpectSameOutcome(r0.value(), u1.value().result);
  EXPECT_EQ(u1.value().result.consistency, engine::Consistency::kCertain)
      << u1.value().result.divergence;

  // Re-sending the same subscribe is an idempotent attach, not a second
  // subscription.
  cluster::SubscribeRequest replay = sub;
  replay.sub_id = sub_id;
  auto again = router.Subscribe(replay);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().attached_existing);

  // Append through the router: the reply reports the absolute stream state
  // and the standing query delivers the grown window incrementally.
  const long base = cluster::ProfileFor(spec).frames_per_video;
  auto a1 = router.AppendFrames(spec.name, 64);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(a1.value().stream_length, static_cast<uint64_t>(base) + 64);
  EXPECT_EQ(a1.value().appended, 64u);

  auto u2 = router.StreamPoll(sub_id, u1.value().seq, 30'000);
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  EXPECT_EQ(u2.value().seq, 2u);
  EXPECT_EQ(u2.value().result.window_end, base + 64);
  EXPECT_EQ(u2.value().result.consistency, engine::Consistency::kCertain)
      << u2.value().result.divergence;

  // A healthy pass refreshes every shard's stats snapshot, so the carry
  // the failover folds in covers the updates delivered so far.
  EXPECT_EQ(router.CheckNow(), 0);

  // Kill the primary mid-stream and let the checker notice. The surviving
  // replica already holds every appended frame (appends fan to the whole
  // group), so the re-homed dataset needs no frame replay to keep serving.
  const int home = router.HomeOf(spec.name);
  ASSERT_GE(home, 0);
  shards[static_cast<size_t>(home)]->Kill();
  int newly_dead = router.CheckNow();
  newly_dead += router.CheckNow();
  EXPECT_EQ(newly_dead, 1);

  // Ingestion continues against the new primary, and the next poll
  // re-attaches the subscription there under the SAME id. The re-attached
  // host replays its current window; the router's frame-epoch dedupe line
  // guarantees the consumer sees the new epoch exactly once.
  auto a2 = router.AppendFrames(spec.name, 64);
  ASSERT_TRUE(a2.ok()) << a2.status().ToString();
  EXPECT_EQ(a2.value().stream_length, static_cast<uint64_t>(base) + 128);

  auto u3 = router.StreamPoll(sub_id, u2.value().seq, 30'000);
  ASSERT_TRUE(u3.ok()) << u3.status().ToString();
  EXPECT_EQ(u3.value().seq, 3u);
  EXPECT_EQ(u3.value().result.window_end, base + 128);
  EXPECT_EQ(u3.value().result.consistency, engine::Consistency::kCertain)
      << u3.value().result.divergence;

  // The whole drill — subscription windows, failover re-attach, appends on
  // two primaries — never trained a second plan and never served a
  // non-certain result.
  EXPECT_EQ(router.Stats().stats.planner_runs, planner_runs_before);
  EXPECT_EQ(router.Health().degraded_answers, 0);

  // Bit-identity through the cluster: a cold single-process engine grown
  // to the same prefix answers with the same bytes the subscriber got
  // incrementally (same shared plan catalog, so no planner run either).
  engine::QueryEngine local(EngineOptions(dir));
  ASSERT_TRUE(local
                  .RegisterDataset(spec.name,
                                   video::SyntheticDataset::Generate(
                                       cluster::ProfileFor(spec), spec.seed))
                  .ok());
  ASSERT_TRUE(local.GrowDataset(spec.name, base + 128, 1).ok());
  auto ref = local.Execute(spec.name, kSql);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref.value().plan_seconds, 0.0);
  ExpectSameOutcome(ref.value(), u3.value().result);

  // The stream counters made it into the folded cluster stats (each
  // replica counts the appends it applied).
  const auto stats = router.Stats();
  EXPECT_GE(stats.stats.appends, 2);
  EXPECT_GE(stats.stats.appended_frames, 128);
  EXPECT_GE(stats.stats.subscribes, 1);
  EXPECT_GE(stats.stats.stream_results, 3);

  // Unsubscribe is idempotent, through the router too.
  EXPECT_TRUE(router.Unsubscribe(sub_id).ok());
  EXPECT_TRUE(router.Unsubscribe(sub_id).ok());
  auto gone = router.StreamPoll(sub_id, 0, 1'000);
  EXPECT_EQ(gone.status().code(), common::StatusCode::kNotFound);

  router.Stop();
  for (auto& shard : shards) shard->Stop();
}

// A replica that could not apply the latest plan epoch must say so: while
// it is the only live holder its answers come back kDegraded with a
// divergence reason — never silently presented as certain — and once the
// partition heals, repair catches it up and answers are certain again.
TEST_F(ClusterTest, LaggingReplicaServesDegradedUntilRepaired) {
  const std::string dir = *persist_root_ + "/lag_drill";
  fs::create_directories(dir);

  std::vector<std::unique_ptr<cluster::ShardServer>> shards;
  cluster::Router::Options ropts;
  for (int i = 0; i < 3; ++i) {
    cluster::ShardServer::Options sopts;
    sopts.engine = EngineOptions(dir);
    sopts.name = "lag" + std::to_string(i);
    shards.push_back(std::make_unique<cluster::ShardServer>(sopts));
    ASSERT_TRUE(shards.back()->Start().ok());
    ropts.shards.push_back({"127.0.0.1", shards.back()->port()});
  }
  ropts.health_interval_ms = 0;
  ropts.misses_to_dead = 2;
  ropts.health_deadline_ms = 1'000;
  ropts.replication = 2;
  ropts.name = "lagrouter";
  cluster::Router router(std::move(ropts));
  ASSERT_TRUE(router.Start().ok());

  cluster::DatasetSpec spec = SmokeSpec();
  spec.name = "lag-d";
  ASSERT_TRUE(router.RegisterDataset(spec).ok());
  const int home = router.HomeOf(spec.name);
  ASSERT_GE(home, 0);
  const auto replicas = router.ReplicasOf(spec.name);
  ASSERT_EQ(replicas.size(), 2u);
  int secondary = -1;
  for (int id : replicas) {
    if (id != home) secondary = id;
  }
  ASSERT_GE(secondary, 0);

  engine::QueryResult reference;
  {
    net::FaultInjector injector;
    FaultGuard guard(&injector);
    // The secondary cannot receive plan syncs (its link to the router eats
    // every kSyncPlans frame)...
    net::FaultRule sync_rule;
    sync_rule.action = net::FaultAction::kClose;
    sync_rule.direction = net::FaultDirection::kSend;
    sync_rule.match_type = true;
    sync_rule.type = net::FrameType::kSyncPlans;
    sync_rule.tag_contains = "lagrouter->s" + std::to_string(secondary);
    sync_rule.times = -1;
    injector.AddRule(sync_rule);
    // ...and repair cannot recruit a replacement replica either, so the
    // lagging secondary stays the only live holder after the kill.
    net::FaultRule reg_rule;
    reg_rule.action = net::FaultAction::kClose;
    reg_rule.direction = net::FaultDirection::kSend;
    reg_rule.match_type = true;
    reg_rule.type = net::FrameType::kRegisterDataset;
    reg_rule.tag_contains = "lagrouter->";
    reg_rule.times = -1;
    injector.AddRule(reg_rule);

    // Training bumps the committed epoch; the propagation to the secondary
    // fails, leaving it one epoch behind.
    auto r0 = router.Execute(spec.name, kSql);
    ASSERT_TRUE(r0.ok()) << r0.status().ToString();
    EXPECT_GT(r0.value().plan_seconds, 0.0);
    EXPECT_EQ(r0.value().consistency, engine::Consistency::kCertain);
    reference = r0.value();
    EXPECT_GE(router.Health().replicas_behind, 1);
    // Healthy pass: snapshots every shard's stats so the primary's single
    // planner run survives its upcoming death in the aggregate.
    EXPECT_EQ(router.CheckNow(), 0);

    // Ask the secondary itself: it holds the dataset at the stale epoch.
    cluster::RemoteShard::Options popts;
    popts.port = shards[static_cast<size_t>(secondary)]->port();
    popts.name = "epochprobe";
    cluster::RemoteShard probe(popts);
    auto ep = probe.EpochOf(spec.name);
    ASSERT_TRUE(ep.ok()) << ep.status().ToString();
    EXPECT_TRUE(ep.value().has_dataset);
    EXPECT_EQ(ep.value().epoch, 1u);

    // Kill the primary; after the health passes the stale secondary is the
    // only live holder left.
    shards[static_cast<size_t>(home)]->Kill();
    router.CheckNow();
    router.CheckNow();
    ASSERT_FALSE(router.ShardAlive(home));

    auto r1 = router.Execute(spec.name, kSql);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    // Still the right answer (the plan loads from the shared catalog), but
    // honestly labelled: degraded, with a reason a human can read.
    ExpectSameOutcome(reference, r1.value());
    EXPECT_EQ(r1.value().consistency, engine::Consistency::kDegraded);
    EXPECT_FALSE(r1.value().divergence.empty());
    EXPECT_GE(router.Health().degraded_answers, 1);
    EXPECT_EQ(router.Stats().stats.planner_runs, 1);
  }  // partition heals: the injector is gone

  // The next maintenance pass syncs the lagging replica (and recruits a
  // replacement), after which answers are certain again.
  router.CheckNow();
  EXPECT_EQ(router.Health().replicas_behind, 0);
  auto r2 = router.Execute(spec.name, kSql);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ExpectSameOutcome(reference, r2.value());
  EXPECT_EQ(r2.value().consistency, engine::Consistency::kCertain)
      << r2.value().divergence;
  EXPECT_EQ(router.Stats().stats.planner_runs, 1);

  router.Stop();
  for (auto& shard : shards) shard->Stop();
}

// ---- Real-process SIGKILL drill --------------------------------------------

// Spawns real shardd processes, hammers queries through the router, and
// SIGKILLs the home shard mid-load. Every query must eventually complete
// with the bit-identical answer (retryable failures ridden out, exactly as
// a real client would), and the post-failover cluster must not have
// retrained the plan.
class ShardProcess {
 public:
  static std::string BinaryPath() {
    // shardd sits next to the test binary in the build tree.
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0) return "";
    self[n] = '\0';
    const fs::path dir = fs::path(self).parent_path();
    const fs::path shardd = dir / "shardd";
    return fs::exists(shardd) ? shardd.string() : "";
  }

  bool Spawn(const std::string& binary, const std::string& persist_dir,
             const std::string& port_file, const std::string& name) {
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::execl(binary.c_str(), "shardd", "--persist-dir", persist_dir.c_str(),
              "--fast-planner", "--workers", "2", "--port-file",
              port_file.c_str(), "--name", name.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return true;
  }

  int WaitForPort(const std::string& port_file, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) return port;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return 0;
  }

  void Kill9() {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
  }

  ~ShardProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

TEST(ClusterProcessTest, SigkillMidLoadFailsOverBitIdentically) {
  const std::string binary = ShardProcess::BinaryPath();
  if (binary.empty()) {
    GTEST_SKIP() << "shardd binary not found next to the test binary";
  }
  const std::string root = testing::TempDir() + "/zeus_sigkill_" +
                           std::to_string(::getpid());
  fs::remove_all(root);
  fs::create_directories(root + "/plans");

  ShardProcess procs[3];
  cluster::Router::Options ropts;
  for (int i = 0; i < 3; ++i) {
    const std::string port_file =
        root + "/shard" + std::to_string(i) + ".port";
    ASSERT_TRUE(procs[i].Spawn(binary, root + "/plans", port_file,
                               "proc" + std::to_string(i)));
    const int port = procs[i].WaitForPort(port_file, 15'000);
    ASSERT_GT(port, 0) << "shard " << i << " never published its port";
    ropts.shards.push_back({"127.0.0.1", port});
  }
  // Background health checking: the failover must happen while the load
  // loop below is mid-flight, with no test intervention.
  ropts.health_interval_ms = 100;
  ropts.health_deadline_ms = 500;
  ropts.misses_to_dead = 2;
  ropts.name = "procrouter";
  cluster::Router router(std::move(ropts));
  ASSERT_TRUE(router.Start().ok());

  cluster::DatasetSpec spec = SmokeSpec();
  spec.name = "proc-d";
  auto reg = router.RegisterDataset(spec);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  const int home = router.HomeOf(spec.name);
  ASSERT_GE(home, 0);

  constexpr int kQueries = 10;
  engine::QueryResult reference;
  bool have_reference = false;
  int completed = 0;
  for (int q = 0; q < kQueries; ++q) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
      auto result = router.Execute(spec.name, kSql);
      if (result.ok()) {
        if (!have_reference) {
          reference = result.value();
          have_reference = true;
        } else {
          // Bit-identical across the kill: THE cluster contract.
          ExpectSameOutcome(reference, result.value());
        }
        ++completed;
        break;
      }
      // In-flight failures during the failover window must be explicitly
      // retryable — never a wrong or silently-empty answer.
      ASSERT_TRUE(common::IsRetryable(result.status().code()))
          << result.status().ToString();
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "query " << q << " never recovered: "
          << result.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (q == 2) {
      // kill -9 the home shard mid-load, after the plan is trained and
      // persisted (query 0 did that).
      procs[static_cast<size_t>(home)].Kill9();
    }
  }
  EXPECT_EQ(completed, kQueries);

  // The health thread declared the shard dead and re-homed the dataset.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.ShardAlive(home) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_FALSE(router.ShardAlive(home));
  EXPECT_EQ(router.num_alive(), 2);
  EXPECT_NE(router.HomeOf(spec.name), home);
  EXPECT_GE(router.Health().failovers, 1);
  EXPECT_GE(router.Health().rehomed_datasets, 1);

  // Post-failover: warm-plan answer, no retraining anywhere.
  auto after = router.Execute(spec.name, kSql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameOutcome(reference, after.value());
  EXPECT_EQ(after.value().plan_seconds, 0.0);
  // planner_runs counts at most the single cold training on the original
  // home (it can read 0 if the kill landed before a health probe snapshot
  // of that shard); what it must never do is grow with the failover.
  EXPECT_LE(router.Stats().stats.planner_runs, 1);

  // Bit-identity against the single-process engine: a local engine warmed
  // from the same catalog must produce the same answer the cluster did.
  engine::QueryEngine local(EngineOptions(root + "/plans"));
  ASSERT_TRUE(local
                  .RegisterDataset(spec.name,
                                   video::SyntheticDataset::Generate(
                                       cluster::ProfileFor(spec), spec.seed))
                  .ok());
  EXPECT_GE(local.WarmUpDataset(spec.name), 1u);
  auto local_result = local.Execute(spec.name, kSql);
  ASSERT_TRUE(local_result.ok());
  ExpectSameOutcome(local_result.value(), reference);

  router.Stop();
  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace
}  // namespace zeus
