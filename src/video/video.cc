#include "video/video.h"

#include <algorithm>

#include "common/stringutil.h"

namespace zeus::video {

const char* ActionClassName(ActionClass cls) {
  switch (cls) {
    case ActionClass::kNone:
      return "None";
    case ActionClass::kCrossRight:
      return "CrossRight";
    case ActionClass::kCrossLeft:
      return "CrossLeft";
    case ActionClass::kLeftTurn:
      return "LeftTurn";
    case ActionClass::kPoleVault:
      return "PoleVault";
    case ActionClass::kCleanAndJerk:
      return "CleanAndJerk";
    case ActionClass::kIroningClothes:
      return "IroningClothes";
    case ActionClass::kTennisServe:
      return "TennisServe";
  }
  return "Unknown";
}

ActionClass ParseActionClass(const std::string& name) {
  std::string key = common::ToLower(name);
  std::string squashed;
  for (char c : key) {
    if (c == '-' || c == '_' || c == ' ') continue;
    squashed.push_back(c);
  }
  if (squashed == "crossright") return ActionClass::kCrossRight;
  if (squashed == "crossleft") return ActionClass::kCrossLeft;
  if (squashed == "leftturn") return ActionClass::kLeftTurn;
  if (squashed == "polevault") return ActionClass::kPoleVault;
  if (squashed == "cleanandjerk") return ActionClass::kCleanAndJerk;
  if (squashed == "ironingclothes" || squashed == "ironing")
    return ActionClass::kIroningClothes;
  if (squashed == "tennisserve") return ActionClass::kTennisServe;
  return ActionClass::kNone;
}

Video::Video(int num_frames, int height, int width)
    : num_frames_(num_frames),
      height_(height),
      width_(width),
      labels_(static_cast<size_t>(num_frames), ActionClass::kNone) {
  if (num_frames > 0) {
    blocks_.push_back(
        {0, num_frames,
         std::shared_ptr<float[]>(
             new float[static_cast<size_t>(num_frames) * FramePixels()]())});
  }
}

size_t Video::BlockIndex(int f) const {
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), f,
      [](int frame, const Block& b) { return frame < b.begin; });
  return static_cast<size_t>(it - blocks_.begin()) - 1;
}

float* Video::FrameData(int f) {
  ZEUS_CHECK(f >= 0 && f < num_frames_);
  Block& b = blocks_[BlockIndex(f)];
  // A caller with non-const access owns this Video, so a count of one
  // means no other Video can reach the block and it is safe to write.
  if (b.pixels.use_count() > 1) {
    const size_t n = static_cast<size_t>(b.frames) * FramePixels();
    std::shared_ptr<float[]> own(new float[n]);
    std::copy_n(b.pixels.get(), n, own.get());
    b.pixels = std::move(own);
  }
  return b.pixels.get() + static_cast<size_t>(f - b.begin) * FramePixels();
}

void Video::Append(const Video& tail) {
  ZEUS_CHECK(tail.height_ == height_ && tail.width_ == width_);
  for (const Block& b : tail.blocks_) {
    blocks_.push_back({num_frames_ + b.begin, b.frames, b.pixels});
  }
  labels_.insert(labels_.end(), tail.labels_.begin(), tail.labels_.end());
  num_frames_ += tail.num_frames_;
}

Video Video::Slice(int start, int count) const {
  ZEUS_CHECK(start >= 0 && count >= 0 && start + count <= num_frames_);
  Video out(count, height_, width_);
  for (int f = 0; f < count; ++f) {
    std::copy_n(FrameData(start + f), FramePixels(), out.FrameData(f));
  }
  std::copy(labels_.begin() + start, labels_.begin() + start + count,
            out.labels_.begin());
  return out;
}

bool Video::IsActionAny(int f, const std::vector<ActionClass>& classes) const {
  ActionClass l = Label(f);
  return std::find(classes.begin(), classes.end(), l) != classes.end();
}

int Video::CountActionFrames(ActionClass cls) const {
  int n = 0;
  for (ActionClass l : labels_)
    if (l == cls) ++n;
  return n;
}

std::vector<ActionInstance> ExtractInstances(const Video& video) {
  std::vector<ActionInstance> out;
  int n = video.num_frames();
  int i = 0;
  while (i < n) {
    ActionClass cls = video.Label(i);
    if (cls == ActionClass::kNone) {
      ++i;
      continue;
    }
    int j = i;
    while (j < n && video.Label(j) == cls) ++j;
    out.push_back({i, j, cls});
    i = j;
  }
  return out;
}

}  // namespace zeus::video
