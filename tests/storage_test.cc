// Tests for the storage substrate: CRC32, the ZVF1 video file format
// (round-trips and corruption handling), VideoStore, dataset persistence,
// and the Catalog.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/video_file.h"
#include "storage/video_store.h"
#include "video/dataset.h"

namespace zeus {
namespace {

namespace fs = std::filesystem;

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  std::string dir =
      testing::TempDir() + "/zeus_storage_" + tag + std::to_string(counter++);
  fs::remove_all(dir);
  return dir;
}

video::Video MakeVideo(int id, int frames = 24, int side = 12,
                       uint64_t seed = 7) {
  common::Rng rng(seed);
  video::Video v(frames, side, side);
  for (int f = 0; f < frames; ++f) {
    float* data = v.FrameData(f);
    for (int i = 0; i < side * side; ++i) {
      data[i] = rng.NextFloat();
    }
  }
  // A couple of label runs so RLE has work to do.
  for (int f = 4; f < std::min(9, frames); ++f) {
    v.SetLabel(f, video::ActionClass::kCrossRight);
  }
  for (int f = 12; f < std::min(15, frames); ++f) {
    v.SetLabel(f, video::ActionClass::kLeftTurn);
  }
  v.set_id(id);
  return v;
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  const char msg[] = "123456789";
  EXPECT_EQ(common::Crc32(0, msg, 9), 0xCBF43926u);
  // Empty input is the identity.
  EXPECT_EQ(common::Crc32(0, msg, 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesSingleShot) {
  const std::string data = "zeus localizes actions with reinforcement";
  uint32_t whole = common::Crc32(0, data.data(), data.size());
  uint32_t crc = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    size_t n = std::min<size_t>(7, data.size() - i);
    crc = common::Crc32(crc, data.data() + i, n);
  }
  EXPECT_EQ(crc, whole);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t clean = common::Crc32(0, data.data(), data.size());
  data[100] = static_cast<char>(data[100] ^ 0x10);
  EXPECT_NE(common::Crc32(0, data.data(), data.size()), clean);
}

// ---------------------------------------------------------------------------
// VideoFile

TEST(VideoFileTest, Float32RoundTripIsLossless) {
  const auto v = MakeVideo(1);
  const std::string path = testing::TempDir() + "/vf_f32.zvf";
  ASSERT_TRUE(
      storage::VideoFile::Save(path, v, storage::PixelEncoding::kFloat32).ok());
  auto loaded = storage::VideoFile::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const video::Video& w = loaded.value();
  ASSERT_EQ(w.num_frames(), v.num_frames());
  ASSERT_EQ(w.height(), v.height());
  ASSERT_EQ(w.width(), v.width());
  EXPECT_EQ(w.id(), v.id());
  for (int f = 0; f < v.num_frames(); ++f) {
    const float* a = v.FrameData(f);
    const float* b = w.FrameData(f);
    for (int i = 0; i < v.height() * v.width(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "frame " << f << " pixel " << i;
    }
    EXPECT_EQ(w.Label(f), v.Label(f));
  }
}

TEST(VideoFileTest, Uint8RoundTripErrorIsBounded) {
  const auto v = MakeVideo(2, 16, 10);
  const std::string path = testing::TempDir() + "/vf_u8.zvf";
  ASSERT_TRUE(
      storage::VideoFile::Save(path, v, storage::PixelEncoding::kUint8).ok());
  auto loaded = storage::VideoFile::Load(path);
  ASSERT_TRUE(loaded.ok());
  const video::Video& w = loaded.value();
  // Pixels are in [0, 1]; quantization error must be <= range/255/2 + eps.
  const float bound = 1.0f / 255.0f / 2.0f + 1e-5f;
  for (int f = 0; f < v.num_frames(); ++f) {
    const float* a = v.FrameData(f);
    const float* b = w.FrameData(f);
    for (int i = 0; i < v.height() * v.width(); ++i) {
      ASSERT_NEAR(a[i], b[i], bound);
    }
  }
  // Labels are exact regardless of pixel encoding.
  for (int f = 0; f < v.num_frames(); ++f) EXPECT_EQ(w.Label(f), v.Label(f));
}

TEST(VideoFileTest, ConstantFrameQuantizesWithoutDivideByZero) {
  video::Video v(3, 4, 4);
  for (int f = 0; f < 3; ++f) {
    float* d = v.FrameData(f);
    for (int i = 0; i < 16; ++i) d[i] = 0.5f;
  }
  v.set_id(11);
  const std::string path = testing::TempDir() + "/vf_const.zvf";
  ASSERT_TRUE(
      storage::VideoFile::Save(path, v, storage::PixelEncoding::kUint8).ok());
  auto loaded = storage::VideoFile::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NEAR(loaded.value().FrameData(0)[0], 0.5f, 1e-2f);
}

TEST(VideoFileTest, RejectsBadMagic) {
  const std::string path = testing::TempDir() + "/vf_magic.zvf";
  std::ofstream(path, std::ios::binary) << "not a video file at all";
  auto loaded = storage::VideoFile::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

TEST(VideoFileTest, RejectsMissingFile) {
  auto loaded = storage::VideoFile::Load(testing::TempDir() + "/nonexistent");
  ASSERT_FALSE(loaded.ok());
}

// Corruption matrix: flip one byte at several offsets; every case must be
// rejected by the checksum (or structural validation), never returned as a
// silently wrong video.
class VideoFileCorruptionTest : public testing::TestWithParam<size_t> {};

TEST_P(VideoFileCorruptionTest, FlippedByteIsDetected) {
  const auto v = MakeVideo(3);
  const std::string path = testing::TempDir() + "/vf_corrupt.zvf";
  ASSERT_TRUE(
      storage::VideoFile::Save(path, v, storage::PixelEncoding::kUint8).ok());

  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<size_t>(f.tellg());
  const size_t offset = GetParam() % size;
  // Skip the magic word: corrupting it is tested separately and reports a
  // different (equally fatal) error.
  const size_t target = std::max<size_t>(offset, 4);
  f.seekg(static_cast<std::streamoff>(target));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(target));
  f.write(&byte, 1);
  f.close();

  auto loaded = storage::VideoFile::Load(path);
  EXPECT_FALSE(loaded.ok()) << "byte " << target << " flip undetected";
}

INSTANTIATE_TEST_SUITE_P(Offsets, VideoFileCorruptionTest,
                         testing::Values(4, 9, 13, 21, 40, 100, 500, 1500,
                                         2500, 2879));

TEST(VideoFileTest, TruncationIsDetected) {
  const auto v = MakeVideo(4);
  const std::string path = testing::TempDir() + "/vf_trunc.zvf";
  ASSERT_TRUE(
      storage::VideoFile::Save(path, v, storage::PixelEncoding::kFloat32).ok());
  const auto size = fs::file_size(path);
  for (size_t keep : {size / 4, size / 2, size - 1}) {
    fs::resize_file(path, keep);
    auto loaded = storage::VideoFile::Load(path);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << keep << " undetected";
  }
}

// ---------------------------------------------------------------------------
// VideoStore

TEST(VideoStoreTest, PutGetRemove) {
  auto store = storage::VideoStore::Open(UniqueDir("store"));
  ASSERT_TRUE(store.ok());
  auto& s = store.value();

  EXPECT_EQ(s.size(), 0u);
  ASSERT_TRUE(s.Put(MakeVideo(10)).ok());
  ASSERT_TRUE(s.Put(MakeVideo(11)).ok());
  EXPECT_TRUE(s.Contains(10));
  EXPECT_FALSE(s.Contains(12));
  EXPECT_EQ(s.size(), 2u);

  auto v = s.Get(10);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().id(), 10);

  EXPECT_EQ(s.Get(99).status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(s.Put(MakeVideo(10)).code(), common::StatusCode::kAlreadyExists);

  ASSERT_TRUE(s.Remove(10).ok());
  EXPECT_FALSE(s.Contains(10));
  EXPECT_FALSE(fs::exists(s.PathFor(10)));
  EXPECT_EQ(s.Remove(10).code(), common::StatusCode::kNotFound);
}

TEST(VideoStoreTest, ReopenPreservesInsertionOrder) {
  const std::string dir = UniqueDir("reopen");
  {
    auto store = storage::VideoStore::Open(dir);
    ASSERT_TRUE(store.ok());
    for (int id : {42, 7, 19}) ASSERT_TRUE(store.value().Put(MakeVideo(id)).ok());
  }
  auto reopened = storage::VideoStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().ids(), (std::vector<int>{42, 7, 19}));
  auto v = reopened.value().Get(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().id(), 7);
}

TEST(VideoStoreTest, DatasetRoundTripPreservesLabelsAndSplits) {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 6;
  profile.frames_per_video = 120;
  auto ds = video::SyntheticDataset::Generate(profile, 99);

  const std::string dir = UniqueDir("dataset");
  ASSERT_TRUE(storage::SaveDataset(dir, ds).ok());
  auto loaded = storage::LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& ds2 = loaded.value();

  EXPECT_EQ(ds2.num_videos(), ds.num_videos());
  EXPECT_EQ(ds2.train_indices(), ds.train_indices());
  EXPECT_EQ(ds2.val_indices(), ds.val_indices());
  EXPECT_EQ(ds2.test_indices(), ds.test_indices());
  EXPECT_EQ(ds2.profile().family, ds.profile().family);
  EXPECT_EQ(ds2.profile().classes, ds.profile().classes);
  EXPECT_DOUBLE_EQ(ds2.profile().action_fraction,
                   ds.profile().action_fraction);
  // Ground-truth labels survive bit-for-bit even with lossy pixel encoding.
  for (size_t i = 0; i < ds.num_videos(); ++i) {
    ASSERT_EQ(ds2.video(i).labels(), ds.video(i).labels()) << "video " << i;
  }
  // Statistics computed from the reloaded dataset match (labels identical).
  auto s1 = ds.ComputeStatistics();
  auto s2 = ds2.ComputeStatistics();
  EXPECT_EQ(s2.num_instances, s1.num_instances);
  EXPECT_DOUBLE_EQ(s2.percent_action_frames, s1.percent_action_frames);
}

TEST(VideoStoreTest, LoadDatasetFailsWithoutManifest) {
  const std::string dir = UniqueDir("nomanifest");
  ASSERT_TRUE(storage::VideoStore::Open(dir).ok());  // creates empty dir
  EXPECT_FALSE(storage::LoadDataset(dir).ok());
}

TEST(VideoStoreTest, LoadDatasetRejectsOutOfRangeSplit) {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 3;
  profile.frames_per_video = 60;
  auto ds = video::SyntheticDataset::Generate(profile, 5);
  const std::string dir = UniqueDir("badsplit");
  ASSERT_TRUE(storage::SaveDataset(dir, ds).ok());

  // Corrupt the split line.
  const std::string manifest = dir + "/DATASET";
  std::ifstream is(manifest);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  is.close();
  auto pos = content.find("train ");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 7, "train 9");
  std::ofstream(manifest, std::ios::trunc) << content;

  EXPECT_FALSE(storage::LoadDataset(dir).ok());
}

// ---------------------------------------------------------------------------
// VideoStore append mode (live-stream ingest)

bool SameVideo(const video::Video& a, const video::Video& b) {
  if (a.num_frames() != b.num_frames() || a.height() != b.height() ||
      a.width() != b.width() || a.labels() != b.labels()) {
    return false;
  }
  for (int f = 0; f < a.num_frames(); ++f) {
    const float* pa = a.FrameData(f);
    const float* pb = b.FrameData(f);
    for (int i = 0; i < a.height() * a.width(); ++i) {
      if (pa[i] != pb[i]) return false;
    }
  }
  return true;
}

TEST(VideoStoreAppendTest, AppendRoundTripsLosslessly) {
  auto store = storage::VideoStore::Open(UniqueDir("append"));
  ASSERT_TRUE(store.ok());
  auto& s = store.value();
  // Base saved float32 so the whole reconstruction is bit-exact.
  auto base = MakeVideo(1, 20, 8);
  ASSERT_TRUE(s.Put(base, storage::PixelEncoding::kFloat32).ok());

  auto tail1 = MakeVideo(1, 6, 8, /*seed=*/11);
  auto tail2 = MakeVideo(1, 9, 8, /*seed=*/12);
  ASSERT_TRUE(s.AppendFrames(1, tail1).ok());
  ASSERT_TRUE(s.AppendFrames(1, tail2).ok());

  auto committed = s.CommittedFrames(1);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), 35);

  video::Video expect = base;
  expect.Append(tail1);
  expect.Append(tail2);
  auto got = s.Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameVideo(expect, got.value()));
}

// A video whose pixels span several frame blocks, as a grown stream
// video's do: `blocks` appended pieces of uneven length.
video::Video MultiBlockVideo(int id, int blocks, int side) {
  video::Video v = MakeVideo(id, 7, side, /*seed=*/31);
  for (int b = 0; b < blocks; ++b) {
    v.Append(MakeVideo(id, 3 + 2 * b, side, /*seed=*/40 + b));
  }
  v.set_id(id);
  return v;
}

TEST(VideoFileTest, MultiBlockVideoRoundTripsInBothEncodings) {
  const auto v = MultiBlockVideo(5, 3, 8);
  ASSERT_EQ(v.num_frames(), 7 + 3 + 5 + 7);
  const std::string path = testing::TempDir() + "/vf_blocks.zvf";

  ASSERT_TRUE(
      storage::VideoFile::Save(path, v, storage::PixelEncoding::kFloat32).ok());
  auto f32 = storage::VideoFile::Load(path);
  ASSERT_TRUE(f32.ok()) << f32.status().ToString();
  EXPECT_EQ(f32.value().id(), 5);
  EXPECT_TRUE(SameVideo(v, f32.value()));

  ASSERT_TRUE(
      storage::VideoFile::Save(path, v, storage::PixelEncoding::kUint8).ok());
  auto u8 = storage::VideoFile::Load(path);
  ASSERT_TRUE(u8.ok()) << u8.status().ToString();
  const video::Video& w = u8.value();
  ASSERT_EQ(w.num_frames(), v.num_frames());
  EXPECT_EQ(w.labels(), v.labels());
  // One quantization range spans every block.
  const float bound = 1.0f / 255.0f / 2.0f + 1e-5f;
  for (int f = 0; f < v.num_frames(); ++f) {
    for (int i = 0; i < v.height() * v.width(); ++i) {
      ASSERT_NEAR(v.FrameData(f)[i], w.FrameData(f)[i], bound)
          << "frame " << f << " pixel " << i;
    }
  }
}

TEST(VideoStoreAppendTest, MultiBlockAppendRoundTripsLosslessly) {
  auto store = storage::VideoStore::Open(UniqueDir("appendblocks"));
  ASSERT_TRUE(store.ok());
  auto& s = store.value();
  const auto base = MultiBlockVideo(3, 2, 6);
  ASSERT_TRUE(s.Put(base, storage::PixelEncoding::kFloat32).ok());
  const auto tail = MultiBlockVideo(3, 3, 6);
  ASSERT_TRUE(s.AppendFrames(3, tail).ok());

  video::Video expect = base;
  expect.Append(tail);
  auto got = s.Get(3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameVideo(expect, got.value()));
}

TEST(VideoStoreAppendTest, RejectsShapeMismatchAndUnknownId) {
  auto store = storage::VideoStore::Open(UniqueDir("appendbad"));
  ASSERT_TRUE(store.ok());
  auto& s = store.value();
  ASSERT_TRUE(s.Put(MakeVideo(1, 10, 8)).ok());
  EXPECT_EQ(s.AppendFrames(1, MakeVideo(1, 4, 6)).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(s.AppendFrames(9, MakeVideo(9, 4, 8)).code(),
            common::StatusCode::kNotFound);
}

TEST(VideoStoreAppendTest, TornAppendLeavesPriorSnapshotByteIdentical) {
  // SIGKILL simulation: the crash window of AppendFrames is "tail bytes
  // (partially) written, commit sidecar still old". Every cut point in
  // that window must leave the previously committed snapshot readable,
  // byte-identical — the commit sidecar is the only length readers trust.
  auto store = storage::VideoStore::Open(UniqueDir("torn"));
  ASSERT_TRUE(store.ok());
  auto& s = store.value();
  auto base = MakeVideo(1, 12, 6);
  ASSERT_TRUE(s.Put(base, storage::PixelEncoding::kFloat32).ok());
  auto tail1 = MakeVideo(1, 5, 6, /*seed=*/21);
  ASSERT_TRUE(s.AppendFrames(1, tail1).ok());
  auto snapshot = s.Get(1);
  ASSERT_TRUE(snapshot.ok());
  const auto committed_tail_bytes = fs::file_size(s.TailPathFor(1));

  // A second append dies mid-write: emulate every torn state by writing
  // garbage of increasing length past the committed tail bytes, leaving
  // the commit sidecar untouched (AtomicWriteFile never exposes a torn
  // commit, so this is the full crash surface).
  common::Rng rng(3);
  for (size_t garbage : {size_t{1}, size_t{37}, size_t{4 + 6 * 6 * 4},
                         size_t{3 * (4 + 6 * 6 * 4) + 17}}) {
    fs::resize_file(s.TailPathFor(1), committed_tail_bytes);
    std::ofstream os(s.TailPathFor(1),
                     std::ios::binary | std::ios::app);
    std::string junk(garbage, '\0');
    for (auto& c : junk) c = static_cast<char>(rng.NextInt(0, 255));
    os.write(junk.data(), static_cast<std::streamoff>(junk.size()));
    os.close();

    auto read = s.Get(1);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(SameVideo(snapshot.value(), read.value()))
        << "garbage bytes: " << garbage;
    auto committed = s.CommittedFrames(1);
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(committed.value(), 17);
  }

  // Keep the real committed bytes so they can be restored after the
  // destructive truncation below (resize_file re-extends with zeros,
  // which is corruption, not recovery).
  std::string committed_bytes;
  {
    std::ifstream is(s.TailPathFor(1), std::ios::binary);
    committed_bytes.assign((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    committed_bytes.resize(committed_tail_bytes);
  }

  // A stale-length crash the other way: tail bytes SHORTER than a commit
  // claims (commit landed, tail lost — cannot happen with our write
  // order, but readers must still fail loudly, never return garbage).
  fs::resize_file(s.TailPathFor(1), committed_tail_bytes - 3);
  EXPECT_FALSE(s.Get(1).ok());

  // Recovery: restore the committed bytes and the next append proceeds
  // on top of the prior snapshot as if the torn write never happened.
  std::ofstream(s.TailPathFor(1), std::ios::binary | std::ios::trunc)
      << committed_bytes << std::string(64, 'x');  // torn garbage again
  auto tail2 = MakeVideo(1, 4, 6, /*seed=*/22);
  ASSERT_TRUE(s.AppendFrames(1, tail2).ok());
  video::Video expect = snapshot.value();
  expect.Append(tail2);
  auto final_read = s.Get(1);
  ASSERT_TRUE(final_read.ok());
  EXPECT_TRUE(SameVideo(expect, final_read.value()));
}

TEST(VideoStoreAppendTest, GrownDatasetRoundTripsThroughSaveLoad) {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 5;
  profile.frames_per_video = 60;
  profile.native_resolution = 12;
  auto ds = video::SyntheticDataset::Generate(profile, 7);
  ASSERT_TRUE(ds.GrowTo(150, 4).ok());

  const std::string dir = UniqueDir("growds");
  ASSERT_TRUE(storage::SaveDataset(dir, ds).ok());
  auto loaded = storage::LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto& ds2 = loaded.value();
  EXPECT_EQ(ds2.frame_epoch(), 4u);
  EXPECT_EQ(ds2.base_frames(), 60);
  EXPECT_EQ(ds2.stream_length(), 150);
  ASSERT_TRUE(ds2.streamable());
  // The reloaded dataset keeps growing on the same deterministic stream:
  // labels (lossless) match a fresh growth of the original.
  ASSERT_TRUE(ds2.GrowTo(220, 5).ok());
  ASSERT_TRUE(ds.GrowTo(220, 5).ok());
  for (size_t i = 0; i < ds.num_videos(); ++i) {
    EXPECT_EQ(ds.video(i).labels(), ds2.video(i).labels()) << "video " << i;
  }
}

// ---------------------------------------------------------------------------
// Catalog

TEST(CatalogTest, DatasetRegistrationRoundTrip) {
  const std::string root = UniqueDir("catalog");
  {
    auto cat = storage::Catalog::Open(root);
    ASSERT_TRUE(cat.ok());
    ASSERT_TRUE(cat.value().AddDataset("bdd", "bdd_corpus").ok());
    ASSERT_TRUE(cat.value().AddDataset("thumos", "/abs/thumos").ok());
    EXPECT_EQ(cat.value().AddDataset("bdd", "x").code(),
              common::StatusCode::kAlreadyExists);
  }
  auto reopened = storage::Catalog::Open(root);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().DatasetNames(),
            (std::vector<std::string>{"bdd", "thumos"}));
  // Relative dirs resolve under the root; absolute dirs pass through.
  auto dir = reopened.value().DatasetDir("bdd");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir.value(), (fs::path(root) / "bdd_corpus").string());
  EXPECT_EQ(reopened.value().DatasetDir("thumos").value(), "/abs/thumos");
  EXPECT_EQ(reopened.value().DatasetDir("nope").status().code(),
            common::StatusCode::kNotFound);
}

TEST(CatalogTest, PlanRegistrationReplacesOnSameKey) {
  auto cat = storage::Catalog::Open(UniqueDir("plans"));
  ASSERT_TRUE(cat.ok());
  storage::PlanEntry e{"bdd", "CrossRight", 0.85, "plans/p1"};
  ASSERT_TRUE(cat.value().AddPlan(e).ok());
  e.prefix = "plans/p2";
  ASSERT_TRUE(cat.value().AddPlan(e).ok());
  ASSERT_EQ(cat.value().plans().size(), 1u);
  auto found = cat.value().FindPlan("bdd", "CrossRight", 0.85);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->prefix, "plans/p2");
  EXPECT_FALSE(cat.value().FindPlan("bdd", "CrossRight", 0.80).has_value());
  EXPECT_FALSE(cat.value().FindPlan("bdd", "LeftTurn", 0.85).has_value());
}

TEST(CatalogTest, PersistsPlansAcrossReopen) {
  const std::string root = UniqueDir("persist");
  {
    auto cat = storage::Catalog::Open(root);
    ASSERT_TRUE(cat.ok());
    ASSERT_TRUE(cat.value()
                    .AddPlan({"bdd", "CrossRight,CrossLeft", 0.8, "p/multi"})
                    .ok());
  }
  auto cat = storage::Catalog::Open(root);
  ASSERT_TRUE(cat.ok());
  auto found = cat.value().FindPlan("bdd", "CrossRight,CrossLeft", 0.8);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->prefix, "p/multi");
}

TEST(CatalogTest, PlanMatchingQuantizesToAccuracyBands) {
  // Regression: plan lookups used raw float equality (abs diff < 1e-9),
  // which aliased near-boundary targets after a persist/reopen round trip
  // (the file stores %.3f, so a target carrying float noise no longer
  // matched its own entry). All matching now goes through the
  // milli-accuracy band grid (core/accuracy.h).
  const std::string root = UniqueDir("bands");
  {
    auto cat = storage::Catalog::Open(root);
    ASSERT_TRUE(cat.ok());
    // A target with sub-band float noise lands on the 0.800 grid point.
    ASSERT_TRUE(
        cat.value().AddPlan({"bdd", "CrossRight", 0.8 + 1e-12, "p/a"}).ok());
    // Near-boundary lookups on the same band match...
    EXPECT_TRUE(cat.value().FindPlan("bdd", "CrossRight", 0.8).has_value());
    EXPECT_TRUE(
        cat.value().FindPlan("bdd", "CrossRight", 0.8 - 1e-12).has_value());
    // ...and adjacent bands stay distinct, even one grid step away.
    EXPECT_FALSE(cat.value().FindPlan("bdd", "CrossRight", 0.85).has_value());
    EXPECT_FALSE(cat.value().FindPlan("bdd", "CrossRight", 0.801).has_value());
    // Replacement keys on the band too: 0.85 and 0.85+noise are one entry.
    ASSERT_TRUE(cat.value().AddPlan({"bdd", "LeftTurn", 0.85, "p/b1"}).ok());
    ASSERT_TRUE(
        cat.value().AddPlan({"bdd", "LeftTurn", 0.85 + 1e-12, "p/b2"}).ok());
    ASSERT_EQ(cat.value().plans().size(), 2u);
    EXPECT_EQ(cat.value().FindPlan("bdd", "LeftTurn", 0.85)->prefix, "p/b2");
  }
  // The band survives the %.3f persist/reopen round trip bit-for-bit.
  auto cat = storage::Catalog::Open(root);
  ASSERT_TRUE(cat.ok());
  EXPECT_TRUE(cat.value().FindPlan("bdd", "CrossRight", 0.8).has_value());
  EXPECT_TRUE(
      cat.value().FindPlan("bdd", "CrossRight", 0.8 + 1e-12).has_value());
  EXPECT_FALSE(cat.value().FindPlan("bdd", "CrossRight", 0.805).has_value());
}

TEST(CatalogTest, RejectsWhitespaceInTokens) {
  auto cat = storage::Catalog::Open(UniqueDir("ws"));
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat.value().AddDataset("my data", "d").code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.value().AddPlan({"bdd", "Cross Right", 0.8, "p"}).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(CatalogTest, RejectsCorruptCatalogFile) {
  const std::string root = UniqueDir("corrupt");
  ASSERT_TRUE(storage::Catalog::Open(root).ok());
  std::ofstream(root + "/CATALOG", std::ios::trunc)
      << "plan too few fields\n";
  EXPECT_FALSE(storage::Catalog::Open(root).ok());
}

}  // namespace
}  // namespace zeus
