// serve and stream: the concurrent workloads.
//
// serve: closed loop, two clients, each calling Router::Execute on an
// in-process router in front of two loopback ShardServers that hold warm
// plans — admission, plan lookup, the executor round, the agent step, the
// wire codec and the router hop carry every operation.
// stream: open loop, one 64-frame append per tick on a fixed schedule to an
// EngineGroup with a full-prefix and a sliding-window subscriber; latency
// runs from each append's due time until both subscribers hold an answer
// covering its epoch.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "cluster/protocol.h"
#include "cluster/remote_shard.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/rng.h"
#include "engine/engine_group.h"
#include "perfbench/bench.h"

namespace zeus::perfbench {

namespace {

constexpr int kShards = 2;
// Two clients, not one per vCPU: every localization also fans out to the
// compute pool, and four clients on four vCPUs oversubscribed them enough
// that identical runs differed by a third in latency.
constexpr int kMaxClients = 2;

// Stream shape: appends per second and the sliding subscriber's window.
// At this rate the per-update service time stays well below the tick
// period up to the stream length an 8 s run reaches (48 appends, 3472
// frames per test video).
constexpr double kAppendsPerSecond = 6.0;
constexpr long kWindowFrames = 256;
constexpr double kCatchUpSeconds = 60.0;
// Every append grows each test video and every re-execution walks the
// whole prefix, so a small test split lets the rate, and with it the
// number of latency samples a run collects, stay high.
constexpr int kStreamTestVideos = 4;

bool OkAnswer(const common::Result<engine::QueryResult>& r,
              const Segments& expected) {
  return r.ok() && r.value().segments == expected &&
         r.value().consistency == engine::Consistency::kCertain &&
         r.value().plan_seconds == 0.0;
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  const double setup_start = Now(), setup_cpu = CpuNow();
  TempDir dir(args.work_dir, "serve");
  std::vector<std::unique_ptr<cluster::ShardServer>> shards;
  cluster::Router::Options ropts;
  for (int i = 0; i < kShards; ++i) {
    cluster::ShardServer::Options sopts;
    sopts.engine.num_workers = 2;
    sopts.engine.planner = PlannerOptions();
    sopts.engine.cache.persist_dir = dir.path();
    sopts.name = "perfbench-shard" + std::to_string(i);
    shards.push_back(std::make_unique<cluster::ShardServer>(sopts));
    report->Check(shards.back()->Start().ok(), "start shard server");
    ropts.shards.push_back({"127.0.0.1", shards.back()->port()});
  }
  ropts.health_interval_ms = 0;  // no prober thread: every shard stays up
  ropts.name = "perfbench-router";
  cluster::Router router(std::move(ropts));
  report->Check(router.Start().ok(), "start router");

  std::vector<std::string> names, sqls;
  for (int i = 0; i < 3; ++i) {
    const QuerySpec& q = kQueries[i];
    const video::DatasetProfile profile = ProfileFor(q.family);
    cluster::DatasetSpec spec;
    spec.name = DatasetName(q);
    spec.family = q.family;
    spec.seed = DatasetSeed(args.seed, i);
    spec.num_videos = static_cast<uint32_t>(profile.num_videos);
    spec.frames_per_video = static_cast<uint32_t>(profile.frames_per_video);
    spec.warm_plans = false;
    // The wire spec can describe neither the profile's action fraction nor
    // the fixed training corpus, so the dataset is placed on its home shard
    // in-process first; the shard keeps it when the router's registration
    // arrives.
    report->Check(shards[static_cast<size_t>(router.HomeOf(spec.name))]
                      ->engine()
                      .RegisterDataset(spec.name, MakeDataset(i, args.seed))
                      .ok(),
                  "place dataset on its home shard");
    report->Check(router.RegisterDataset(spec).ok(), "register dataset");
    names.push_back(spec.name);
    sqls.push_back(Sql(q));
  }
  // Train the three plans concurrently, one per dataset's home shard.
  {
    std::vector<std::thread> trainers;
    std::atomic<int> failures{0};
    for (int i = 0; i < 3; ++i) {
      trainers.emplace_back([&, i] {
        if (!router.Execute(names[static_cast<size_t>(i)],
                            sqls[static_cast<size_t>(i)])
                 .ok()) {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : trainers) t.join();
    report->Check(failures.load() == 0, "planning query through the router");
  }
  std::vector<Segments> reference;
  std::vector<std::shared_ptr<core::QueryPlan>> plans;
  std::vector<engine::QueryEngine*> homes;
  for (int i = 0; i < 3; ++i) {
    const int home = router.HomeOf(names[static_cast<size_t>(i)]);
    engine::QueryEngine& engine = shards[static_cast<size_t>(home)]->engine();
    plans.push_back(engine.CachedPlan(names[static_cast<size_t>(i)],
                                      ActionQueryOf(kQueries[i])));
    if (plans.back() == nullptr) {
      report->Check(false, "no cached plan on the home shard");
      return;
    }
    reference.push_back(ReferenceSegments(
        *plans.back(), *engine.dataset(names[static_cast<size_t>(i)])));
    report->Check(!reference.back().empty(),
                  std::string("non-empty answer for ") + kQueries[i].sql_class);
    homes.push_back(&engine);
  }
  report->Setup(setup_start, setup_cpu);

  const engine::ShardStats before = router.Stats().stats;
  const int clients = std::max(
      1, std::min(kMaxClients,
                  static_cast<int>(std::thread::hardware_concurrency())));
  // One operation answers each of the three queries once, in a seeded
  // order, so per-operation figures weigh the three queries alike: a
  // median over single queries follows whichever one sits in the middle
  // of the mix.
  struct Client {
    Samples round, traced, untraced, f1, modeled;
    Samples query[3];
  };
  std::vector<Client> per_client(static_cast<size_t>(clients));
  const double start = Now(), start_cpu = CpuNow();
  const double deadline = start + args.seconds;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Client& me = per_client[static_cast<size_t>(c)];
        common::Rng mix(DatasetSeed(args.seed, 100 + c));
        size_t order[3] = {0, 1, 2};
        for (long op = 0; Now() < deadline; ++op) {
          for (size_t i = 2; i > 0; --i) {
            std::swap(order[i], order[static_cast<size_t>(
                                    mix.NextInt(0, static_cast<int>(i)))]);
          }
          const bool trace_op = TraceThisOp(args, op);
          TracedOp scope(op * kMaxClients + c, trace_op);
          double round_s = 0.0;
          bool round_ok = true;
          for (size_t q : order) {
            const double t0 = Now();
            common::Result<engine::QueryResult> r = [&] {
              Span s("op");
              return router.Execute(names[q], sqls[q]);
            }();
            const double dt = Now() - t0;
            if (!OkAnswer(r, reference[q])) {
              report->Op(false, "served " + names[q] + ": " +
                                    (r.ok() ? std::string(
                                                  "answer differs from the "
                                                  "sequential executor or "
                                                  "was not certain")
                                            : r.status().ToString()));
              round_ok = false;
              continue;
            }
            report->Op(true, "");
            round_s += dt;
            me.query[q].Add(dt);
            me.f1.Add(r.value().metrics.f1);
            me.modeled.Add(r.value().throughput_fps);
          }
          if (!round_ok) continue;
          me.round.Add(round_s);
          (trace_op ? me.traced : me.untraced).Add(round_s);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed = Now() - start;
  // Concurrent rounds share the process, so their CPU time is the window's
  // total over the rounds completed in it.
  const double window_cpu = CpuNow() - start_cpu;
  const engine::ShardStats after = router.Stats().stats;

  Samples round, traced, untraced, f1, modeled, latency;
  Samples query[3];
  for (const Client& me : per_client) {
    round.Append(me.round);
    traced.Append(me.traced);
    untraced.Append(me.untraced);
    f1.Append(me.f1);
    modeled.Append(me.modeled);
    for (size_t q = 0; q < 3; ++q) {
      query[q].Append(me.query[q]);
      latency.Append(me.query[q]);
    }
  }
  report->Check(after.planner_runs == before.planner_runs,
                "planner ran while serving warm plans");

  report->EndToEnd("op_cpu_s",
                   window_cpu / static_cast<double>(std::max<size_t>(
                                    1, round.size())),
                   "s", round.size());
  report->Layer("core.f1_mean", f1.Mean(), "ratio", f1.size());
  report->EndToEnd("modeled_fps", modeled.Mean(), "fps", modeled.size());
  std::printf("serve_qps %.1f with %d clients; serve p50/p95/p99 "
              "%.5f/%.5f/%.5f s wall over %zu queries; three-query round p50 "
              "%.5f s wall over %zu rounds\n",
              static_cast<double>(latency.size()) / elapsed, clients,
              latency.Median(), latency.Percentile(0.95),
              latency.Percentile(0.99), latency.size(), round.Median(),
              round.size());
  for (size_t q = 0; q < 3; ++q) {
    std::printf("  serve %-16s p50/p95 %.5f/%.5f s wall over %zu queries\n",
                kQueries[q].sql_class, query[q].Median(),
                query[q].Percentile(0.95), query[q].size());
  }

  if (args.trace) {
    ReportEngineDelta(before, after, report);
    // The serving path layer by layer, serially: the home engine
    // in-process and the wire codec on real answers; the shard and router
    // hops as differences of EXPLAIN calls (plan lookup without
    // localization), so a hop of ~0.1 ms is not lost in the noise of a
    // few-millisecond localization.
    std::vector<std::unique_ptr<cluster::RemoteShard>> direct;
    for (int i = 0; i < kShards; ++i) {
      cluster::RemoteShard::Options o;
      o.port = shards[static_cast<size_t>(i)]->port();
      o.name = "perfbench-direct";
      direct.push_back(std::make_unique<cluster::RemoteShard>(o));
    }
    constexpr int kHopCalls = 60;
    Samples bytes;
    TracedOp scope(-2, true);
    for (int k = 0; k < kHopCalls; ++k) {
      const size_t q = static_cast<size_t>(k % 3);
      common::Result<engine::QueryResult> local = [&] {
        Span s("engine.execute");
        return homes[q]->Execute(names[q], ActionQueryOf(kQueries[q]));
      }();
      report->Check(OkAnswer(local, reference[q]), "in-process home engine");
      if (!local.ok()) continue;
      std::string payload;
      {
        Span s("net.result_encode");
        payload = cluster::EncodeQueryResult(local.value());
      }
      bytes.Add(static_cast<double>(payload.size()));
      engine::QueryResult decoded;
      {
        Span s("net.result_decode");
        report->Check(cluster::DecodeQueryResult(payload, &decoded),
                      "decode a served answer");
      }
      report->Check(decoded.segments == local.value().segments,
                    "codec round trip");
    }
    constexpr int kExplainCalls = 300;
    for (int k = 0; k < kExplainCalls; ++k) {
      const size_t q = static_cast<size_t>(k % 3);
      core::ActionQuery query = ActionQueryOf(kQueries[q]);
      query.explain_only = true;
      cluster::ExecRequest req;
      req.dataset = names[q];
      req.sql = "EXPLAIN " + sqls[q];
      auto explained = [](const common::Result<engine::QueryResult>& r) {
        return r.ok() && !r.value().explanation.empty();
      };
      // Rotate the call order so no path always runs right after another.
      for (int step = 0; step < 3; ++step) {
        switch ((k + step) % 3) {
          case 0:
            report->Check(explained([&] {
                            Span s("engine.explain");
                            return homes[q]->Execute(names[q], query);
                          }()),
                          "in-process EXPLAIN");
            break;
          case 1:
            report->Check(
                explained([&] {
                  Span s("cluster.remote_explain");
                  return direct[static_cast<size_t>(router.HomeOf(names[q]))]
                      ->Execute(req);
                }()),
                "EXPLAIN on the home shard");
            break;
          default:
            report->Check(explained([&] {
                            Span s("cluster.router_explain");
                            return router.Execute(req);
                          }()),
                          "EXPLAIN through the router");
        }
      }
    }
    // These spans occur only in this probe, so their medians are the
    // probe's own calls.
    const auto summary = Tracer::Get().Summarize();
    auto median_of = [&](const char* name) {
      auto it = summary.find(name);
      return it == summary.end() ? 0.0 : it->second.self_seconds.Median();
    };
    report->Layer("engine.execute_s", median_of("engine.execute"), "s",
                  kHopCalls);
    report->Layer("net.result_encode_s", median_of("net.result_encode"), "s",
                  bytes.size());
    report->Layer("net.result_decode_s", median_of("net.result_decode"), "s",
                  bytes.size());
    report->Layer("net.result_bytes", bytes.Median(), "bytes", bytes.size());
    report->Layer("cluster.shard_hop_s",
                  median_of("cluster.remote_explain") -
                      median_of("engine.explain"),
                  "s", kExplainCalls);
    report->Layer("cluster.router_hop_s",
                  median_of("cluster.router_explain") -
                      median_of("cluster.remote_explain"),
                  "s", kExplainCalls);

    Samples invocations;
    std::vector<const core::QueryPlan*> raw;
    for (size_t i = 0; i < plans.size(); ++i) {
      ProbeLayers(*plans[i], *homes[i]->dataset(names[i]), args.seed,
                  &invocations);
      raw.push_back(plans[i].get());
    }
    ReportTraceLayers(raw, invocations, traced, untraced, report);
  }
  router.Stop();
  for (auto& s : shards) s->Stop();
}

void RunStream(const Args& args, Report* report) {
  const QuerySpec& q = kQueries[0];
  const std::string name = "stream";
  const std::string sql = Sql(q);

  const double setup_start = Now(), setup_cpu = CpuNow();
  TempDir dir(args.work_dir, "stream");
  engine::EngineGroup::Options gopts;
  gopts.engine.num_workers = 2;
  gopts.engine.max_pending = 64;
  gopts.engine.planner = PlannerOptions();
  gopts.engine.cache.persist_dir = dir.path();
  engine::EngineGroup group(gopts);
  report->Check(group.RegisterDataset(
                    name, MakeDataset(0, args.seed, kStreamTestVideos))
                    .ok(),
                "register stream dataset");
  report->Check(group.Execute(name, sql).ok(), "planning query");
  const long planner_baseline = group.planner_runs();
  std::shared_ptr<core::QueryPlan> plan =
      group.CachedPlan(name, ActionQueryOf(q));
  if (plan == nullptr) {
    report->Check(false, "no cached plan after planning");
    return;
  }

  struct Subscriber {
    std::optional<engine::SubscriptionTicket> ticket;
    long window = 0;
    uint64_t last_seq = 0;
    // (frame epoch, arrival time) of every delivered update.
    std::vector<std::pair<uint64_t, double>> arrivals;
    engine::QueryResult last;
    long not_certain = 0;
  };
  std::vector<Subscriber> subs(2);
  subs[0].window = 0;  // full prefix
  subs[1].window = kWindowFrames;
  for (Subscriber& s : subs) {
    engine::SubscribeOptions sopts;
    sopts.window_frames = s.window;
    auto t = group.Subscribe(name, sql, sopts);
    report->Check(t.ok(), "subscribe");
    if (!t.ok()) return;
    s.ticket.emplace(t.value());
    auto first = s.ticket->Next(0, 60'000);
    report->Check(first.ok(), "first window");
    if (first.ok()) s.last_seq = first.value().seq;
  }
  report->Setup(setup_start, setup_cpu);

  const engine::GroupStats before = group.Stats(false);
  const size_t cache_size0 = plan->cache->size();
  const uint64_t cache_misses0 = plan->cache->misses();

  // Generator: one append per tick on a fixed schedule.
  const double period = 1.0 / kAppendsPerSecond;
  const long ticks = std::max(1L, static_cast<long>(args.seconds / period));
  std::vector<double> due(static_cast<size_t>(ticks));
  std::vector<uint64_t> epochs(static_cast<size_t>(ticks), 0);
  Samples lag;
  std::atomic<bool> generating{true};
  std::atomic<uint64_t> final_epoch{0};
  std::atomic<double> stopped_at{0.0};
  long append_failures = 0;
  const double start = Now() + period, start_cpu = CpuNow();

  std::vector<std::thread> consumers;
  for (Subscriber& s : subs) {
    consumers.emplace_back([&s, &generating, &final_epoch, &stopped_at] {
      for (;;) {
        auto u = s.ticket->Next(s.last_seq, 200);
        if (!u.ok()) {
          // Done once the last epoch is covered; give up a minute after the
          // generator stopped (the uncovered ticks then count as failed).
          const bool done =
              !generating.load() &&
              (s.last.frame_epoch >= final_epoch.load() ||
               Now() - stopped_at.load() > kCatchUpSeconds);
          if (done) return;
          if (u.status().code() == common::StatusCode::kUnavailable) continue;
          return;  // terminal: cancelled or a failed window run
        }
        s.last_seq = u.value().seq;
        s.arrivals.emplace_back(u.value().result.frame_epoch, Now());
        if (u.value().result.consistency != engine::Consistency::kCertain) {
          ++s.not_certain;
        }
        s.last = u.value().result;
        if (!generating.load() && s.last.frame_epoch >= final_epoch.load()) {
          return;
        }
      }
    });
  }
  for (long i = 0; i < ticks; ++i) {
    due[static_cast<size_t>(i)] = start + static_cast<double>(i) * period;
    const double wait = due[static_cast<size_t>(i)] - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    lag.Add(std::max(0.0, Now() - due[static_cast<size_t>(i)]));
    TracedOp scope(i, TraceThisOp(args, i));
    common::Result<engine::AppendOutcome> a = [&] {
      Span s("video.append");
      return group.AppendFrames(name,
                                video::SyntheticDataset::kStreamBlockFrames);
    }();
    if (!a.ok()) {
      ++append_failures;
      continue;
    }
    epochs[static_cast<size_t>(i)] = a.value().frame_epoch;
    final_epoch.store(a.value().frame_epoch);
  }
  stopped_at.store(Now());  // before the flag the consumers test first
  generating.store(false);
  for (std::thread& t : consumers) t.join();
  // The appends and the window runs they trigger overlap, so their CPU time
  // is the window's total over the ticks.
  const double window_cpu = CpuNow() - start_cpu;

  // Per tick: the time both subscribers first held an answer covering it.
  // A tick no update carried exactly was conflated into a later window.
  Samples update_s, traced, untraced;
  double last_cover = start;
  long conflated = 0;
  for (long i = 0; i < ticks; ++i) {
    const uint64_t e = epochs[static_cast<size_t>(i)];
    bool covered = e != 0;
    double at = 0.0;
    for (const Subscriber& s : subs) {
      auto it = std::find_if(s.arrivals.begin(), s.arrivals.end(),
                             [e](const auto& a) { return a.first >= e; });
      if (it == s.arrivals.end()) {
        covered = false;
        break;
      }
      conflated += it->first != e ? 1 : 0;
      at = std::max(at, it->second);
    }
    report->Op(covered, "tick " + std::to_string(i) +
                            " never reached every subscriber");
    if (!covered) continue;
    const double latency = at - due[static_cast<size_t>(i)];
    update_s.Add(latency);
    (TraceThisOp(args, i) ? traced : untraced).Add(latency);
    last_cover = std::max(last_cover, at);
  }
  report->Check(append_failures == 0, "every append applied");

  // The full-prefix subscriber's last answer equals a one-shot query over
  // the same prefix; the planner never ran again.
  auto oneshot = group.Execute(name, sql);
  report->Check(oneshot.ok() && !oneshot.value().segments.empty(),
                "one-shot answer over the final prefix is non-empty");
  if (oneshot.ok()) {
    report->Check(
        subs[0].last.frame_epoch == oneshot.value().frame_epoch &&
            engine::SameSegments(subs[0].last, oneshot.value()),
        "full-prefix subscriber answer equals the one-shot answer");
  }
  long delivered = 0;
  for (Subscriber& s : subs) {
    report->Check(s.not_certain == 0, "every update is kCertain");
    delivered += static_cast<long>(s.arrivals.size());
    s.ticket->Cancel();
  }
  report->Check(group.planner_runs() == planner_baseline,
                "planner ran during the stream");
  const engine::GroupStats after = group.Stats(false);

  report->EndToEnd("op_cpu_s", window_cpu / static_cast<double>(ticks), "s",
                   static_cast<size_t>(ticks));
  // Quality and modeled cost of the final full-prefix answer.
  report->Layer("core.f1_mean", subs[0].last.metrics.f1, "ratio", 1);
  report->EndToEnd("modeled_fps", subs[0].last.throughput_fps, "fps", 1);
  std::printf(
      "update p50/p90/p95 %.4f/%.4f/%.4f s wall over %zu ticks at %.1f "
      "appends/s (%.2f ticks/s answered); final stream length %ld frames "
      "per video\n",
      update_s.Median(), update_s.Percentile(0.90),
      update_s.Percentile(0.95), update_s.size(), kAppendsPerSecond,
      static_cast<double>(update_s.size()) / (last_cover - start),
      oneshot.ok() ? oneshot.value().window_end : 0L);

  if (args.trace) {
    ReportEngineDelta(before, after, report);
    const long lookups = (after.feature_hits - before.feature_hits) +
                         (after.feature_misses - before.feature_misses);
    report->Layer("stream.lookups_per_update",
                  delivered > 0 ? static_cast<double>(lookups) / delivered
                                : 0.0,
                  "ratio", static_cast<size_t>(delivered));
    const uint64_t misses = plan->cache->misses() - cache_misses0;
    report->Layer("apfg.miss_useful_ratio",
                  misses > 0 ? static_cast<double>(plan->cache->size() -
                                                   cache_size0) /
                                   static_cast<double>(misses)
                             : 0.0,
                  "ratio", static_cast<size_t>(misses));
    report->Layer("stream.conflated", static_cast<double>(conflated), "count",
                  static_cast<size_t>(delivered));
    report->Layer("stream.generator_lag_max_s", lag.Max(), "s", lag.size());
    const auto summary = Tracer::Get().Summarize();
    auto it = summary.find("video.append");
    if (it != summary.end()) {
      report->Layer("video.append_s", it->second.self_seconds.Median(), "s",
                    static_cast<size_t>(it->second.count));
    }
    Samples invocations;
    ProbeLayers(*plan, *group.dataset(name), args.seed, &invocations);
    ReportTraceLayers({plan.get()}, invocations, traced, untraced, report);
  }
}

}  // namespace zeus::perfbench
