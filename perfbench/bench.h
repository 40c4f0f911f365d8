#ifndef ZEUS_PERFBENCH_BENCH_H_
#define ZEUS_PERFBENCH_BENCH_H_

// Shared pieces of the Zeus benchmark (perfbench/run.py drives it): the
// seeded inputs, per-operation samples, the in-memory span tracer, the
// result report and the layer probes every traced run makes.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_planner.h"
#include "engine/query_engine.h"
#include "video/dataset.h"

namespace zeus::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch root inside the checkout: plan-persist dirs and the span dump.
  std::string work_dir = ".bench_build/work";
};

// ---- Seeded inputs ---------------------------------------------------------

// One query per dataset family at the paper's accuracy targets (§6.2).
struct QuerySpec {
  video::DatasetFamily family;
  video::ActionClass cls;
  double target;
  const char* sql_class;  // the class as the SQL grammar spells it
};
extern const QuerySpec kQueries[3];

// Dataset shape per family (videos, frames, action density).
video::DatasetProfile ProfileFor(video::DatasetFamily family);
// Per-dataset generator seed derived from the run seed.
uint64_t DatasetSeed(uint64_t run_seed, int index);
// The dataset kQueries[index] runs on: a fixed training/validation corpus
// plus `test_videos` test videos (and stream growth) drawn from the run
// seed. kTestVideos keeps every answer non-empty on every seed.
constexpr int kTestVideos = 32;
video::SyntheticDataset MakeDataset(int index, uint64_t run_seed,
                                    int test_videos = kTestVideos);
// Planner knobs pinned by the benchmark (the reduced training schedule).
core::QueryPlanner::Options PlannerOptions();

std::string DatasetName(const QuerySpec& q);
std::string Sql(const QuerySpec& q);
core::ActionQuery ActionQueryOf(const QuerySpec& q);

// ---- Samples ---------------------------------------------------------------

double Now();  // steady-clock seconds
// Process CPU seconds over all threads. The kernel leaves out the time the
// hypervisor ran other guests on this VM's vCPUs (steal), which wall time
// includes: on a shared host steal slowed identical runs by up to 4x in
// wall time, so the gated costs are CPU time and wall times are printed.
double CpuNow();

// Per-operation samples; every percentile comes from these, never from a
// histogram.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Nearest-rank percentile, p in [0, 1]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }
  double Max() const { return Percentile(1.0); }
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

// ---- Tracing ---------------------------------------------------------------

// In-memory spans around the benchmark's own calls into each module. A span
// is recorded only while the calling thread's current operation is traced
// (see TracedOp), so one traced run can alternate traced and untraced
// operations and report the tracing overhead from the difference.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
    long op = -1;     // operation id shared by the spans of one operation
  };

  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int Begin(const char* name);
  void End(int index);

  // Per span name: call count and median self time (duration minus the
  // union of its children's intervals).
  struct Summary {
    long count = 0;
    Samples self_seconds;
  };
  std::map<std::string, Summary> Summarize() const;

  // Writes every span as JSON lines; returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Marks the calling thread's current operation: its id and whether spans
// are recorded for it.
class TracedOp {
 public:
  TracedOp(long op_id, bool traced);
  ~TracedOp();
  TracedOp(const TracedOp&) = delete;
  TracedOp& operator=(const TracedOp&) = delete;

 private:
  long prev_op_;
  bool prev_traced_;
};

// RAII span; a no-op unless the tracer is on and the current op is traced.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
  int prev_parent_ = -1;
};

// ---- Report ----------------------------------------------------------------

// Everything one run prints: the correctness tally and the named metrics.
// End-to-end metrics come from the untraced run; layer metrics from the
// traced one (run.py keeps the set the --trace flag asks for).
class Report {
 public:
  // Counts one operation; a false `ok` counts it failed and logs `what`.
  // Safe to call from several client threads.
  void Op(bool ok, const std::string& what);
  // A set-up or final check that is not an operation of its own.
  void Check(bool ok, const std::string& what);

  void EndToEnd(const std::string& name, double value, const char* unit,
                size_t samples);
  // setup_s: set-up's CPU time since `cpu_start`; prints its wall time
  // since `wall_start` beside it.
  void Setup(double wall_start, double cpu_start);
  void Layer(const std::string& name, double value, const char* unit,
             size_t samples);

  long failed() const { return failed_; }
  bool correct() const { return correct_; }

  // Human-readable table, then the machine line run.py reads.
  void Print(const Args& args) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    size_t samples;
  };
  mutable std::mutex mu_;  // guards the tallies below
  long attempted_ = 0;
  long failed_ = 0;
  bool correct_ = true;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
};

// A fresh, empty directory under the work root, removed on destruction.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- Shared checks and probes ----------------------------------------------

using Segments = std::vector<engine::QueryResult::Segment>;

// The answer a sequential core::QueryExecutor gives on `plan` over the
// dataset's test split, as the engine reports it (segment per instance).
Segments ReferenceSegments(const core::QueryPlan& plan,
                           const video::SyntheticDataset& dataset);

std::vector<const video::Video*> TestVideos(
    const video::SyntheticDataset& dataset);

// Times each layer's public entry points on this plan and dataset's test
// videos under spans: decode, extraction at batch 1 and 8, cache hit,
// agent step, and one cold and one warm localization pass. Adds the cold
// pass's model invocations to `invocations_per_pass`.
void ProbeLayers(const core::QueryPlan& plan,
                 const video::SyntheticDataset& dataset, uint64_t seed,
                 Samples* invocations_per_pass);

// Emits the layer metrics that come from span summaries, the plans'
// training phases and the trace overhead; `plans` are the plans this run
// trained or used.
void ReportTraceLayers(const std::vector<const core::QueryPlan*>& plans,
                       const Samples& invocations_per_pass,
                       const Samples& traced_ops,
                       const Samples& untraced_ops, Report* report);

// Engine counters over a measured window (the difference of two
// snapshots): planner runs, plan-cache hit ratio, queue-wait and execution
// means from histogram sum/count, and the feature-cache hit ratio.
void ReportEngineDelta(const engine::ServingCounters& before,
                       const engine::ServingCounters& after, Report* report);

// Splits an operation sequence into traced and untraced halves: in a
// traced run every other operation records spans.
inline bool TraceThisOp(const Args& args, long op) {
  return args.trace && (op % 2 == 0);
}

// The workloads (BENCHMARK.json gates all but plan-cold).
void RunPlanCold(const Args& args, Report* report);
void RunScan(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);
void RunStream(const Args& args, Report* report);

}  // namespace zeus::perfbench

#endif  // ZEUS_PERFBENCH_BENCH_H_
