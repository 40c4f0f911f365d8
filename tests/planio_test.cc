// Tests for plan checkpointing (PlanIo) and the parallel feature
// pre-extraction path.

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "apfg/feature_cache.h"
#include "common/crc32.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/plan_io.h"
#include "core/query_planner.h"
#include "engine/plan_cache.h"
#include "tensor/tensor_ops.h"
#include "video/dataset.h"

namespace zeus {
namespace {

video::DatasetProfile SmallProfile() {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 12;
  profile.frames_per_video = 200;
  return profile;
}

core::QueryPlanner::Options FastPlannerOptions() {
  core::QueryPlanner::Options opts;
  opts.apfg.epochs = 4;
  opts.profile.max_windows_per_config = 60;
  opts.trainer.episodes = 3;
  opts.trainer.min_buffer = 32;
  opts.trainer.agent.batch_size = 32;
  opts.max_rl_configs = 4;
  return opts;
}

TEST(ThreadPoolTest, RunsAllTasks) {
  common::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  common::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(50);
  common::ParallelFor(&pool, 50, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForInlineWithoutPool) {
  int sum = 0;
  common::ParallelFor(nullptr, 10, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnceForAnySize) {
  for (int threads : {2, 3, 8}) {
    common::ThreadPool pool(threads);
    for (int n : {0, 1, 2, 7, 64}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      common::ParallelFor(&pool, n,
                          [&](int i) { hits[static_cast<size_t>(i)]++; });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " " << n;
    }
  }
}

// ParallelFor must return once its own work is done, even while another
// caller's task in the same pool is still running. The other task is held
// by a latch that opens only after the check, so the outcome does not
// depend on timing; the bounded wait only turns a hang into a failure.
TEST(ThreadPoolTest, ParallelForDoesNotWaitForOtherCallersTasks) {
  common::ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false, released = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  std::atomic<int> sum{0};
  std::promise<void> returned;
  std::future<void> done = returned.get_future();
  std::thread caller([&] {
    common::ParallelFor(&pool, 10, [&](int i) { sum += i; });
    returned.set_value();
  });
  const bool returned_first =
      done.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(released);
    released = true;
  }
  cv.notify_all();
  caller.join();
  pool.Wait();
  EXPECT_TRUE(returned_first)
      << "ParallelFor waited for another caller's blocked task";
  EXPECT_EQ(sum.load(), 45);
}

TEST(FeatureCachePrecomputeTest, ParallelMatchesSerial) {
  common::Rng rng(3);
  apfg::Apfg apfg(apfg::ApfgTrainOptions{}, true, &rng);
  auto ds = video::SyntheticDataset::Generate(SmallProfile(), 71);
  std::vector<const video::Video*> vids;
  for (size_t i = 0; i < 3; ++i) vids.push_back(&ds.video(i));
  video::DecodeSpec spec{15, 4, 2};

  apfg::FeatureCache serial(&apfg), parallel(&apfg);
  for (const video::Video* v : vids) serial.Precompute(*v, spec, 16);
  common::ThreadPool pool(2);
  parallel.PrecomputeParallel(vids, spec, 16, &pool);
  EXPECT_EQ(serial.size(), parallel.size());
  // Spot-check one entry for identical outputs.
  const auto a = serial.Get(*vids[0], 16, spec);
  const auto b = parallel.Get(*vids[0], 16, spec);
  EXPECT_LT(tensor::MaxAbsDiff(a->feature, b->feature), 1e-6f);
}

TEST(PlanIoTest, SaveLoadRoundTripExecutesIdentically) {
  auto ds = video::SyntheticDataset::Generate(SmallProfile(), 72);
  auto opts = FastPlannerOptions();
  core::QueryPlanner planner(&ds, opts);
  auto plan = planner.PlanForClasses({video::ActionClass::kCrossRight}, 0.8);
  ASSERT_TRUE(plan.ok());

  std::string prefix = testing::TempDir() + "/zeus_plan";
  ASSERT_TRUE(core::PlanIo::Save(prefix, plan.value()).ok());

  auto loaded = core::PlanIo::Load(prefix, video::DatasetFamily::kBdd100kLike,
                                   opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().targets, plan.value().targets);
  EXPECT_DOUBLE_EQ(loaded.value().accuracy_target,
                   plan.value().accuracy_target);
  EXPECT_EQ(loaded.value().rl_space.size(), plan.value().rl_space.size());

  // The reloaded plan must reproduce the original executor's output
  // bit-for-bit (same weights, same thresholds, greedy policy).
  auto test = planner.SplitVideos(ds.test_indices());
  core::QueryExecutor original(&plan.value());
  core::QueryExecutor restored(&loaded.value());
  auto run_a = original.Localize(test);
  auto run_b = restored.Localize(test);
  ASSERT_EQ(run_a.masks.size(), run_b.masks.size());
  for (size_t i = 0; i < run_a.masks.size(); ++i) {
    EXPECT_EQ(run_a.masks[i], run_b.masks[i]) << "video " << i;
  }
  EXPECT_EQ(run_a.invocations, run_b.invocations);
}

TEST(PlanIoTest, LoadRejectsMissingFiles) {
  auto r = core::PlanIo::Load(testing::TempDir() + "/no_such_plan",
                              video::DatasetFamily::kBdd100kLike,
                              FastPlannerOptions());
  EXPECT_FALSE(r.ok());
}

TEST(PlanIoTest, CorruptCheckpointIsRejected) {
  auto ds = video::SyntheticDataset::Generate(SmallProfile(), 74);
  auto opts = FastPlannerOptions();
  core::QueryPlanner planner(&ds, opts);
  auto plan = planner.PlanForClasses({video::ActionClass::kCrossRight}, 0.8);
  ASSERT_TRUE(plan.ok());
  std::string prefix = testing::TempDir() + "/zeus_plan_corrupt";
  ASSERT_TRUE(core::PlanIo::Save(prefix, plan.value()).ok());

  // Truncate the DQN weight file: load must fail, not return garbage.
  {
    std::ofstream trunc(prefix + ".dqn",
                        std::ios::binary | std::ios::trunc);
    trunc << "zz";
  }
  auto loaded = core::PlanIo::Load(prefix, video::DatasetFamily::kBdd100kLike,
                                   opts);
  EXPECT_FALSE(loaded.ok());
}

TEST(PlanIoTest, SaveRejectsUntrainedPlan) {
  core::QueryPlan plan;
  EXPECT_FALSE(core::PlanIo::Save(testing::TempDir() + "/p", plan).ok());
}

// ---- Manifest hardening ----------------------------------------------------
//
// PlanCache trusts PlanIo to reject any damaged checkpoint instead of
// serving a half-initialized plan, so every corruption class must fail
// loudly: truncation, bit flips (crc), unparsable rows, out-of-range ids,
// and unsupported format versions.

// Reads a saved manifest and returns its payload (the lines between the
// magic line and the crc trailer, newline-terminated).
std::string ReadPayload(const std::string& meta_path) {
  std::ifstream f(meta_path);
  std::string line, payload;
  EXPECT_TRUE(std::getline(f, line));  // magic
  while (std::getline(f, line)) {
    if (common::StartsWith(line, "crc32 ")) break;
    payload += line;
    payload += '\n';
  }
  return payload;
}

// Writes a manifest with a *valid* trailer over `payload`, so parsing-level
// defenses are exercised rather than the checksum.
void WriteManifest(const std::string& meta_path, const std::string& payload) {
  std::ofstream f(meta_path, std::ios::trunc);
  f << "zeus-plan\n" << payload;
  f << common::Format(
      "crc32 %08x\n", common::Crc32(0, payload.data(), payload.size()));
}

class PlanIoManifestTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new video::SyntheticDataset(
        video::SyntheticDataset::Generate(SmallProfile(), 75));
    opts_ = new core::QueryPlanner::Options(FastPlannerOptions());
    core::QueryPlanner planner(dataset_, *opts_);
    auto plan =
        planner.PlanForClasses({video::ActionClass::kCrossRight}, 0.8);
    ASSERT_TRUE(plan.ok());
    prefix_ = new std::string(testing::TempDir() + "/zeus_manifest_plan");
    ASSERT_TRUE(core::PlanIo::Save(*prefix_, plan.value()).ok());
    payload_ = new std::string(ReadPayload(*prefix_ + ".meta"));
    ASSERT_FALSE(payload_->empty());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete opts_;
    delete prefix_;
    delete payload_;
    dataset_ = nullptr;
    opts_ = nullptr;
    prefix_ = nullptr;
    payload_ = nullptr;
  }

  // Loads after replacing the manifest payload; the weight files stay
  // intact, so any failure comes from the manifest checks.
  common::Status LoadWith(const std::string& payload) {
    WriteManifest(*prefix_ + ".meta", payload);
    return core::PlanIo::Load(*prefix_, video::DatasetFamily::kBdd100kLike,
                              *opts_)
        .status();
  }

  void TearDown() override {
    // Restore the pristine manifest for the next case.
    WriteManifest(*prefix_ + ".meta", *payload_);
  }

  static video::SyntheticDataset* dataset_;
  static core::QueryPlanner::Options* opts_;
  static std::string* prefix_;
  static std::string* payload_;
};

video::SyntheticDataset* PlanIoManifestTest::dataset_ = nullptr;
core::QueryPlanner::Options* PlanIoManifestTest::opts_ = nullptr;
std::string* PlanIoManifestTest::prefix_ = nullptr;
std::string* PlanIoManifestTest::payload_ = nullptr;

TEST_F(PlanIoManifestTest, PristineManifestLoads) {
  EXPECT_TRUE(LoadWith(*payload_).ok());
}

TEST_F(PlanIoManifestTest, TruncatedManifestIsRejected) {
  // Cut the file mid-way: the crc trailer disappears with the tail.
  std::ofstream f(*prefix_ + ".meta", std::ios::trunc);
  f << "zeus-plan\n" << payload_->substr(0, payload_->size() / 2);
  f.close();
  auto st = core::PlanIo::Load(*prefix_, video::DatasetFamily::kBdd100kLike,
                               *opts_)
                .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("crc32"), std::string::npos) << st.ToString();
}

TEST_F(PlanIoManifestTest, BitFlipFailsChecksum) {
  std::string flipped = *payload_;
  flipped[flipped.size() / 2] ^= 0x20;
  WriteManifest(*prefix_ + ".meta", *payload_);
  // Write the damaged payload under the ORIGINAL trailer.
  {
    std::ofstream f(*prefix_ + ".meta", std::ios::trunc);
    f << "zeus-plan\n" << flipped;
    f << common::Format("crc32 %08x\n",
                        common::Crc32(0, payload_->data(), payload_->size()));
  }
  auto st = core::PlanIo::Load(*prefix_, video::DatasetFamily::kBdd100kLike,
                               *opts_)
                .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("crc32 mismatch"), std::string::npos);
}

TEST_F(PlanIoManifestTest, UnparsableConfigRowIsRejected) {
  // Replace the first config-table row (the line after "configs N") with
  // junk; the trailer is recomputed, so the parser must catch it.
  std::istringstream in(*payload_);
  std::ostringstream out;
  std::string line;
  bool corrupt_next = false;
  while (std::getline(in, line)) {
    if (corrupt_next) {
      out << "not a number\n";
      corrupt_next = false;
      continue;
    }
    if (common::StartsWith(line, "configs ")) corrupt_next = true;
    out << line << "\n";
  }
  auto st = LoadWith(out.str());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("config table row"), std::string::npos)
      << st.ToString();
}

TEST_F(PlanIoManifestTest, OutOfRangeRlSpaceIdIsRejected) {
  std::istringstream in(*payload_);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (common::StartsWith(line, "rl_space")) {
      out << "rl_space 0 9999\n";
    } else {
      out << line << "\n";
    }
  }
  auto st = LoadWith(out.str());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("rl_space id out of range"), std::string::npos)
      << st.ToString();
}

TEST_F(PlanIoManifestTest, MissingFormatVersionIsRejected) {
  std::istringstream in(*payload_);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (!common::StartsWith(line, "format_version")) out << line << "\n";
  }
  EXPECT_FALSE(LoadWith(out.str()).ok());
}

TEST_F(PlanIoManifestTest, WrongFormatVersionIsRejected) {
  std::string bumped = *payload_;
  size_t pos = bumped.find("format_version 2");
  ASSERT_NE(pos, std::string::npos);
  bumped.replace(pos, 16, "format_version 9");
  auto st = LoadWith(bumped);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unsupported plan format version"),
            std::string::npos)
      << st.ToString();
}

// ---- Crash-atomic persistence ----------------------------------------------
//
// Checkpoints, manifests and catalog sidecars are written temp-then-rename
// so a crash (or a SIGKILLed shardd, which the cluster failover drill does
// on purpose) can never leave a half-written file under its final name.
// These tests pin both halves of that contract: the writer leaves no
// droppings behind, and the catalog scanner survives whatever droppings or
// damage it finds anyway.

TEST(AtomicWriteFileTest, WritesReplacesAndLeavesNoTemp) {
  namespace fs = std::filesystem;
  const std::string dir =
      testing::TempDir() + "/zeus_atomic_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/target.txt";

  ASSERT_TRUE(common::AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(common::AtomicWriteFile(path, "second").ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");

  // The rename consumed the temp file: the final name is the only entry.
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename().string(), "target.txt");
  }
  EXPECT_EQ(entries, 1);
  fs::remove_all(dir);
}

TEST(AtomicWriteFileTest, FailsCleanlyOnMissingDirectory) {
  const std::string path = testing::TempDir() + "/zeus_no_such_dir_" +
                           std::to_string(::getpid()) + "/x/y/target";
  EXPECT_FALSE(common::AtomicWriteFile(path, "data").ok());
}

TEST(PlanCacheCatalogTest, WarmUpSurvivesTruncatedAndGarbageSidecars) {
  namespace fs = std::filesystem;
  const std::string dir =
      testing::TempDir() + "/zeus_catalog_" + std::to_string(::getpid());
  fs::remove_all(dir);

  // Train and persist one real plan through the cache.
  auto ds = video::SyntheticDataset::Generate(SmallProfile(), 76);
  engine::PlanCache::Options copts;
  copts.persist_dir = dir;
  const std::string key = "bdd|cross-right|0.80";
  {
    engine::PlanCache writer(copts, FastPlannerOptions());
    auto r = writer.GetOrPlan(key, &ds, {video::ActionClass::kCrossRight},
                              0.8);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(writer.planner_runs(), 1);
  }

  // A normal save leaves no atomic-write droppings behind.
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().string().find(".tmp"), std::string::npos)
        << "temp file leaked: " << e.path();
  }

  // Litter the catalog dir with every damage class the scanner must
  // shrug off: a sidecar truncated mid-write the non-atomic way (magic
  // line only), pure garbage, an empty file, a well-formed sidecar whose
  // checkpoint files are missing, and a stray temp file from a crashed
  // writer (its extension is not `.key`, so the scan skips it outright).
  { std::ofstream f(dir + "/truncated.key"); f << "zeus-plan-key\n"; }
  { std::ofstream f(dir + "/garbage.key"); f << "\x7f\x03!!not a catalog"; }
  { std::ofstream f(dir + "/empty.key"); }
  {
    std::ofstream f(dir + "/orphan.key");
    f << "zeus-plan-key\nsome|other|key\nfamily 0\n";
  }
  { std::ofstream f(dir + "/plan.key.tmp.12345"); f << "zeus-plan-key\n"; }

  // A fresh cache over the same dir warms exactly the one real plan —
  // nothing crashes, nothing half-loads, nothing trains.
  engine::PlanCache reader(copts, FastPlannerOptions());
  EXPECT_EQ(reader.WarmUp(), 1u);
  EXPECT_EQ(reader.disk_loads(), 1);
  EXPECT_EQ(reader.planner_runs(), 0);
  EXPECT_NE(reader.Peek(key), nullptr);
  EXPECT_EQ(reader.Peek("some|other|key"), nullptr);

  fs::remove_all(dir);
}

TEST_F(PlanIoManifestTest, LegacyV1ManifestIsRejected) {
  {
    std::ofstream f(*prefix_ + ".meta", std::ios::trunc);
    f << "zeus-plan-v1\n" << *payload_;
  }
  auto st = core::PlanIo::Load(*prefix_, video::DatasetFamily::kBdd100kLike,
                               *opts_)
                .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unsupported plan format v1"),
            std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace zeus
