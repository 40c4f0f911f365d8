// plan-cold and scan: the two single-client closed loops.
//
// BENCHMARK.json lists scan, not plan-cold: a plan-cold run takes 30-40 s
// on a 4-vCPU VM, while scan's set-up trains the same three plans cold, so
// scan's setup_s and the traced Table 6 phases carry that cost at a
// fraction of the run time. plan-cold stays runnable by hand
// (--workload plan-cold).
//
// plan-cold answers one query per dataset family, one after another, on an
// EngineGroup whose plan cache starts empty, so APFG fine-tuning,
// configuration profiling and DQN training carry the operation.
// scan localizes each dataset's test split once per operation, each pass
// with a copy of its trained plan and a fresh feature cache, so decode and
// extraction misses carry it.

#include <memory>

#include "apfg/feature_cache.h"
#include "core/batched_executor.h"
#include "core/executor.h"
#include "engine/engine_group.h"
#include "perfbench/bench.h"

namespace zeus::perfbench {

namespace {

std::vector<video::SyntheticDataset> GenerateDatasets(uint64_t seed) {
  std::vector<video::SyntheticDataset> out;
  for (int i = 0; i < 3; ++i) {
    out.push_back(MakeDataset(i, seed));
  }
  return out;
}

engine::EngineGroup::Options GroupOptions(const std::string& persist_dir,
                                          int workers) {
  engine::EngineGroup::Options gopts;
  gopts.engine.num_workers = workers;
  gopts.engine.planner = PlannerOptions();
  gopts.engine.cache.persist_dir = persist_dir;
  return gopts;
}

}  // namespace

void RunPlanCold(const Args& args, Report* report) {
  const double setup_start = Now(), setup_cpu = CpuNow();
  const std::vector<video::SyntheticDataset> datasets =
      GenerateDatasets(args.seed);
  report->Setup(setup_start, setup_cpu);

  Samples answer_s, answer_cpu, traced, untraced, f1, modeled;
  engine::ServingCounters totals_before, totals_after;
  std::vector<std::shared_ptr<core::QueryPlan>> plans;
  const double start = Now();
  long op = 0;
  do {
    TempDir dir(args.work_dir, "plan-cold");
    engine::EngineGroup group(GroupOptions(dir.path(), 1));
    for (int i = 0; i < 3; ++i) {
      report->Check(
          group.RegisterDataset(DatasetName(kQueries[i]), datasets[i]).ok(),
          "register dataset");
    }
    const bool trace_op = TraceThisOp(args, op);
    TracedOp scope(op, trace_op);
    bool ok = true;
    std::string why;
    const double t0 = Now(), c0 = CpuNow();
    {
      Span s("op");
      for (const QuerySpec& q : kQueries) {
        common::Result<engine::QueryResult> r = [&] {
          Span e("engine.execute");
          return group.Execute(DatasetName(q), ActionQueryOf(q));
        }();
        if (!r.ok()) {
          ok = false;
          why = r.status().ToString();
          continue;
        }
        if (r.value().segments.empty()) {
          ok = false;
          why = std::string("empty answer for ") + q.sql_class;
        }
        f1.Add(r.value().metrics.f1);
        modeled.Add(r.value().throughput_fps);
        // The Table 6 phases fit inside the engine's planner time.
        auto plan = group.CachedPlan(DatasetName(q), ActionQueryOf(q));
        if (plan == nullptr ||
            plan->apfg_train_seconds + plan->profile_seconds +
                    plan->rl_train_seconds >
                r.value().plan_seconds + 1e-3) {
          ok = false;
          why = "plan phases exceed the planner's time";
        }
        if (plan != nullptr && op == 0) plans.push_back(plan);
      }
    }
    const double dt = Now() - t0;
    answer_cpu.Add(CpuNow() - c0);
    if (group.planner_runs() != 3) {
      ok = false;
      why = "planner_runs " + std::to_string(group.planner_runs()) +
            " != 3 distinct queries";
    }
    report->Op(ok, "plan-cold op " + std::to_string(op) + ": " + why);
    answer_s.Add(dt);
    (trace_op ? traced : untraced).Add(dt);
    totals_after.Fold(group.Stats(false));
    ++op;
  } while (Now() - start < args.seconds);

  report->EndToEnd("op_cpu_s", answer_cpu.Median(), "s", answer_cpu.size());
  report->Layer("core.f1_mean", f1.Mean(), "ratio", f1.size());
  report->EndToEnd("modeled_fps", modeled.Mean(), "fps", modeled.size());
  std::printf("cold_answer_s p50/max %.3f/%.3f s wall over %zu query sets\n",
              answer_s.Median(), answer_s.Max(), answer_s.size());

  if (args.trace) {
    ReportEngineDelta(totals_before, totals_after, report);
    Samples invocations;
    std::vector<const core::QueryPlan*> raw;
    for (size_t i = 0; i < plans.size(); ++i) {
      ProbeLayers(*plans[i], datasets[i], args.seed, &invocations);
      raw.push_back(plans[i].get());
    }
    ReportTraceLayers(raw, invocations, traced, untraced, report);
  }
}

void RunScan(const Args& args, Report* report) {
  const double setup_start = Now(), setup_cpu = CpuNow();
  TempDir dir(args.work_dir, "scan");
  engine::EngineGroup group(GroupOptions(dir.path(), 3));
  std::vector<engine::QueryTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    const QuerySpec& q = kQueries[i];
    report->Check(
        group.RegisterDataset(DatasetName(q), MakeDataset(i, args.seed)).ok(),
        "register dataset");
    auto t = group.Submit(DatasetName(q), ActionQueryOf(q));
    report->Check(t.ok(), "submit planning query");
    if (t.ok()) tickets.push_back(t.value());
  }
  for (const engine::QueryTicket& t : tickets) {
    report->Check(t.Wait().ok(), "planning query");
  }
  report->Check(group.planner_runs() == 3,
                "one planner run per distinct query");
  std::vector<std::shared_ptr<core::QueryPlan>> plans;
  std::vector<std::vector<const video::Video*>> videos;
  std::vector<std::vector<core::FrameMask>> reference;
  for (const QuerySpec& q : kQueries) {
    plans.push_back(group.CachedPlan(DatasetName(q), ActionQueryOf(q)));
    if (plans.back() == nullptr) {
      report->Check(false, "no cached plan after planning");
      return;
    }
    videos.push_back(TestVideos(*group.dataset(DatasetName(q))));
    core::QueryExecutor sequential(plans.back().get());
    reference.push_back(sequential.Localize(videos.back()).masks);
  }
  report->Setup(setup_start, setup_cpu);

  // One operation scans all three test splits, one pass each: the sum
  // averages over the three queries' seed-drawn videos, where a median over
  // single passes would land on whichever query's passes sit in the middle.
  Samples op_s, op_cpu, traced, untraced, f1, modeled, invocations;
  Samples pass_s[3];
  long frames = 0, hits = 0, misses = 0, resident = 0;
  const double start = Now();
  long op = 0;
  do {
    const bool trace_op = TraceThisOp(args, op);
    TracedOp scope(op, trace_op);
    double op_time = 0.0, op_cpu_s = 0.0;
    for (size_t d = 0; d < 3; ++d) {
      core::QueryPlan copy = *plans[d];
      copy.cache = std::make_shared<apfg::FeatureCache>(copy.apfg.get());
      core::BatchedExecutor executor(&copy);
      const double t0 = Now(), c0 = CpuNow();
      core::RunResult run;
      {
        Span s("core.localize_cold");
        run = executor.Localize(videos[d]);
      }
      const double dt = Now() - t0;
      op_cpu_s += CpuNow() - c0;
      bool nonempty = false;
      for (const core::FrameMask& m : run.masks) {
        for (uint8_t b : m) nonempty |= b != 0;
      }
      report->Op(run.masks == reference[d] && nonempty,
                 std::string("scan pass over ") + kQueries[d].sql_class +
                     (nonempty ? " differs from the sequential executor"
                               : " returned an empty answer"));
      op_time += dt;
      pass_s[d].Add(dt);
      frames += run.total_frames;
      invocations.Add(static_cast<double>(run.invocations));
      modeled.Add(run.ThroughputFps());
      f1.Add(core::EvaluateVideos(videos[d], copy.targets, run.masks,
                                  core::EvalOptions{})
                 .f1);
      hits += static_cast<long>(copy.cache->hits());
      misses += static_cast<long>(copy.cache->misses());
      resident += static_cast<long>(copy.cache->size());
    }
    op_s.Add(op_time);
    op_cpu.Add(op_cpu_s);
    (trace_op ? traced : untraced).Add(op_time);
    ++op;
  } while (Now() - start < args.seconds);
  const double elapsed = Now() - start;

  report->EndToEnd("op_cpu_s", op_cpu.Median(), "s", op_cpu.size());
  report->Layer("core.f1_mean", f1.Mean(), "ratio", f1.size());
  report->EndToEnd("modeled_fps", modeled.Mean(), "fps", modeled.size());
  std::printf("scan_fps %.0f frames/s; scan of three splits p50/p95/p99 "
              "%.4f/%.4f/%.4f s wall over %zu scans\n",
              static_cast<double>(frames) / elapsed, op_s.Median(),
              op_s.Percentile(0.95), op_s.Percentile(0.99), op_s.size());
  for (size_t d = 0; d < 3; ++d) {
    std::printf("  scan_pass %-16s p50/p95 %.4f/%.4f s wall over %zu passes\n",
                kQueries[d].sql_class, pass_s[d].Median(),
                pass_s[d].Percentile(0.95), pass_s[d].size());
  }

  if (args.trace) {
    report->Layer("apfg.hit_ratio",
                  hits + misses > 0
                      ? static_cast<double>(hits) / (hits + misses)
                      : 0.0,
                  "ratio", static_cast<size_t>(hits + misses));
    report->Layer("apfg.miss_useful_ratio",
                  misses > 0 ? static_cast<double>(resident) / misses : 0.0,
                  "ratio", static_cast<size_t>(misses));
    std::vector<const core::QueryPlan*> raw;
    for (size_t i = 0; i < plans.size(); ++i) {
      ProbeLayers(*plans[i], *group.dataset(DatasetName(kQueries[i])),
                  args.seed, &invocations);
      raw.push_back(plans[i].get());
    }
    ReportTraceLayers(raw, invocations, traced, untraced, report);
  }
}

}  // namespace zeus::perfbench
