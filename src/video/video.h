#ifndef ZEUS_VIDEO_VIDEO_H_
#define ZEUS_VIDEO_VIDEO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"

namespace zeus::video {

// Action classes supported by the synthetic datasets. Numbering is stable
// because frame annotations store the enum value.
enum class ActionClass : int {
  kNone = 0,
  // BDD100K-like driving classes (§6.1 of the paper).
  kCrossRight = 1,      // pedestrian crosses left -> right
  kCrossLeft = 2,       // pedestrian crosses right -> left
  kLeftTurn = 3,        // driver takes a left turn
  // Thumos14-like sports classes.
  kPoleVault = 4,
  kCleanAndJerk = 5,
  // ActivityNet-like household/sports classes.
  kIroningClothes = 6,
  kTennisServe = 7,
};

// Highest ActionClass value — keep in sync when extending the enum.
// Deserializers (e.g. PlanIo) range-check stored class ids against this.
inline constexpr int kMaxActionClassId = static_cast<int>(ActionClass::kTennisServe);

// Human-readable name ("CrossRight") used in reports and query strings.
const char* ActionClassName(ActionClass cls);

// Parses "cross-right" / "CrossRight" / "left_turn" etc. Returns kNone on
// unknown names.
ActionClass ParseActionClass(const std::string& name);

// A single-channel (luminance) video with per-frame ground-truth labels.
// Pixel (f, y, x) lives at FrameData(f)[y * width + x], values roughly in
// [0, 1]. Each frame is contiguous, but the video is not: pixels live in
// immutable, reference-counted blocks of consecutive frames. Copying a
// Video shares its blocks, Append adds the tail's blocks without touching
// earlier pixels, and a write through non-const FrameData first un-shares
// the one block it lands in (copy-on-write), so no copy ever observes
// another copy's writes. Labels stay one contiguous vector per video.
class Video {
 public:
  Video(int num_frames, int height, int width);

  int num_frames() const { return num_frames_; }
  int height() const { return height_; }
  int width() const { return width_; }

  // Pixels of frame f (height * width floats). Frames are only contiguous
  // within a frame: never index past one frame from this pointer. The
  // non-const form copies f's block first when another Video shares it.
  float* FrameData(int f);
  const float* FrameData(int f) const {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    const Block& b = blocks_[BlockIndex(f)];
    return b.pixels.get() + static_cast<size_t>(f - b.begin) * FramePixels();
  }

  // Oracle label function L(n) from §2.1.
  ActionClass Label(int f) const {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    return labels_[static_cast<size_t>(f)];
  }
  void SetLabel(int f, ActionClass cls) {
    ZEUS_CHECK(f >= 0 && f < num_frames_);
    labels_[static_cast<size_t>(f)] = cls;
  }

  // Binary label function f_X(n) from Eq. (1).
  bool IsAction(int f, ActionClass cls) const { return Label(f) == cls; }

  // Binary label against any of a set of classes (multi-class training,
  // §6.5: frames matching either class are positives).
  bool IsActionAny(int f, const std::vector<ActionClass>& classes) const;

  // Number of frames labeled with `cls`.
  int CountActionFrames(ActionClass cls) const;

  const std::vector<ActionClass>& labels() const { return labels_; }

  // Stream append: extends this video with `tail`'s frames and labels.
  // Shapes must match. The tail's blocks are shared, not copied, and no
  // earlier block is touched, so the cost is O(tail blocks + labels) and
  // every earlier frame keeps its address and bytes: a snapshot copied
  // before the append indexes the very same pixels below its
  // num_frames() — growth is strictly suffix-only.
  void Append(const Video& tail);

  // Copy of frames [start, start + count) as a standalone single-block
  // video (a partially appended stream block is sliced from its render).
  // The id is not copied.
  Video Slice(int start, int count) const;

  // Optional identifier for debugging / cache keys.
  void set_id(int id) { id_ = id; }
  int id() const { return id_; }

 private:
  // Frames [begin, begin + frames) of this video, in one allocation that
  // other Videos may share.
  struct Block {
    int begin;
    int frames;
    std::shared_ptr<float[]> pixels;
  };

  size_t FramePixels() const { return static_cast<size_t>(height_) * width_; }
  // Index of the block holding frame f (blocks are sorted by begin).
  size_t BlockIndex(int f) const;

  int num_frames_;
  int height_;
  int width_;
  std::vector<Block> blocks_;
  std::vector<ActionClass> labels_;
  int id_ = -1;
};

// A contiguous [start, end) frame interval of one action instance.
struct ActionInstance {
  int start = 0;
  int end = 0;  // exclusive
  ActionClass cls = ActionClass::kNone;

  int length() const { return end - start; }
};

// Extracts the ground-truth action instances (maximal runs of equal
// non-kNone labels) from a video.
std::vector<ActionInstance> ExtractInstances(const Video& video);

}  // namespace zeus::video

#endif  // ZEUS_VIDEO_VIDEO_H_
