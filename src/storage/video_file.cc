#include "storage/video_file.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/stringutil.h"

namespace zeus::storage {
namespace {

// Serialization sink that both writes bytes and folds them into a running
// CRC, so the trailing checksum covers exactly what was emitted.
class CrcWriter {
 public:
  explicit CrcWriter(std::ostream& os) : os_(os) {}

  void Write(const void* data, size_t n) {
    os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    crc_ = common::Crc32(crc_, data, n);
  }

  template <typename T>
  void WritePod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(&value, sizeof(T));
  }

  uint32_t crc() const { return crc_; }
  bool ok() const { return os_.good(); }

 private:
  std::ostream& os_;
  uint32_t crc_ = 0;
};

class CrcReader {
 public:
  explicit CrcReader(std::istream& is) : is_(is) {}

  bool Read(void* data, size_t n) {
    is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (static_cast<size_t>(is_.gcount()) != n) return false;
    crc_ = common::Crc32(crc_, data, n);
    return true;
  }

  template <typename T>
  bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Read(value, sizeof(T));
  }

  uint32_t crc() const { return crc_; }

 private:
  std::istream& is_;
  uint32_t crc_ = 0;
};

// Run-length encodes the per-frame labels: long stretches of kNone dominate
// real annotations, so RLE keeps label storage negligible.
std::vector<std::pair<int32_t, int32_t>> EncodeLabels(
    const video::Video& video) {
  std::vector<std::pair<int32_t, int32_t>> runs;
  for (int f = 0; f < video.num_frames(); ++f) {
    int32_t cls = static_cast<int32_t>(video.Label(f));
    if (!runs.empty() && runs.back().second == cls) {
      ++runs.back().first;
    } else {
      runs.push_back({1, cls});
    }
  }
  return runs;
}

constexpr int kMaxDim = 1 << 20;  // sanity bound on frames/height/width

}  // namespace

common::Status VideoFile::Write(std::ostream& os, const video::Video& video,
                                PixelEncoding encoding) {
  // The magic word is written outside the CRC so the checksum matches the
  // documented "every byte after the magic" contract.
  uint32_t magic = kMagic;
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));

  CrcWriter w(os);
  w.WritePod<uint32_t>(kVersion);
  w.WritePod<int32_t>(video.id());
  w.WritePod<int32_t>(video.num_frames());
  w.WritePod<int32_t>(video.height());
  w.WritePod<int32_t>(video.width());
  w.WritePod<uint8_t>(static_cast<uint8_t>(encoding));

  const auto runs = EncodeLabels(video);
  w.WritePod<uint32_t>(static_cast<uint32_t>(runs.size()));
  for (const auto& [length, cls] : runs) {
    w.WritePod<int32_t>(length);
    w.WritePod<int32_t>(cls);
  }

  // Pixels are contiguous within a frame only (frames live in shared
  // blocks), so every pass walks the video frame by frame.
  const int frames = video.num_frames();
  const size_t frame_px = static_cast<size_t>(video.height()) * video.width();
  switch (encoding) {
    case PixelEncoding::kFloat32:
      for (int f = 0; f < frames; ++f) {
        w.Write(video.FrameData(f), frame_px * sizeof(float));
      }
      break;
    case PixelEncoding::kUint8: {
      float lo = std::numeric_limits<float>::max();
      float hi = std::numeric_limits<float>::lowest();
      for (int f = 0; f < frames; ++f) {
        const float* px = video.FrameData(f);
        for (size_t i = 0; i < frame_px; ++i) {
          lo = std::min(lo, px[i]);
          hi = std::max(hi, px[i]);
        }
      }
      if (lo > hi) lo = 0.0f;        // no pixels: any range works
      if (hi <= lo) hi = lo + 1.0f;  // constant frame: any scale works
      w.WritePod<float>(lo);
      w.WritePod<float>(hi);
      const float scale = 255.0f / (hi - lo);
      std::vector<uint8_t> quantized(frame_px);
      for (int f = 0; f < frames; ++f) {
        const float* px = video.FrameData(f);
        for (size_t i = 0; i < frame_px; ++i) {
          float q = (px[i] - lo) * scale + 0.5f;
          quantized[i] = static_cast<uint8_t>(std::clamp(q, 0.0f, 255.0f));
        }
        w.Write(quantized.data(), frame_px);
      }
      break;
    }
    default:
      return common::Status::InvalidArgument("unknown pixel encoding");
  }

  uint32_t crc = w.crc();
  os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!os.good()) return common::Status::IoError("short write");
  return common::Status::Ok();
}

common::Result<video::Video> VideoFile::Read(std::istream& is) {
  uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (static_cast<size_t>(is.gcount()) != sizeof(magic) || magic != kMagic) {
    return common::Status::IoError("bad magic: not a ZVF1 video file");
  }

  CrcReader r(is);
  uint32_t version = 0;
  int32_t id = 0, frames = 0, height = 0, width = 0;
  uint8_t encoding_byte = 0;
  if (!r.ReadPod(&version) || !r.ReadPod(&id) || !r.ReadPod(&frames) ||
      !r.ReadPod(&height) || !r.ReadPod(&width) ||
      !r.ReadPod(&encoding_byte)) {
    return common::Status::IoError("truncated header");
  }
  if (version != kVersion) {
    return common::Status::IoError(
        common::Format("unsupported version %u", version));
  }
  if (frames < 0 || height <= 0 || width <= 0 || frames > kMaxDim ||
      height > kMaxDim || width > kMaxDim) {
    return common::Status::IoError("implausible shape in header");
  }

  video::Video video(frames, height, width);
  video.set_id(id);

  uint32_t num_runs = 0;
  if (!r.ReadPod(&num_runs)) return common::Status::IoError("truncated labels");
  int f = 0;
  for (uint32_t i = 0; i < num_runs; ++i) {
    int32_t length = 0, cls = 0;
    if (!r.ReadPod(&length) || !r.ReadPod(&cls)) {
      return common::Status::IoError("truncated label run");
    }
    if (length <= 0 || f + length > frames) {
      return common::Status::IoError("label runs exceed frame count");
    }
    for (int k = 0; k < length; ++k, ++f) {
      video.SetLabel(f, static_cast<video::ActionClass>(cls));
    }
  }
  if (f != frames) {
    return common::Status::IoError("label runs do not cover all frames");
  }

  const size_t frame_px = static_cast<size_t>(height) * width;
  switch (static_cast<PixelEncoding>(encoding_byte)) {
    case PixelEncoding::kFloat32:
      for (int f = 0; f < frames; ++f) {
        if (!r.Read(video.FrameData(f), frame_px * sizeof(float))) {
          return common::Status::IoError("truncated float32 pixels");
        }
      }
      break;
    case PixelEncoding::kUint8: {
      float lo = 0.0f, hi = 1.0f;
      if (!r.ReadPod(&lo) || !r.ReadPod(&hi)) {
        return common::Status::IoError("truncated quantization range");
      }
      const float scale = (hi - lo) / 255.0f;
      std::vector<uint8_t> quantized(frame_px);
      for (int f = 0; f < frames; ++f) {
        if (!r.Read(quantized.data(), frame_px)) {
          return common::Status::IoError("truncated uint8 pixels");
        }
        float* px = video.FrameData(f);
        for (size_t i = 0; i < frame_px; ++i) {
          px[i] = lo + static_cast<float>(quantized[i]) * scale;
        }
      }
      break;
    }
    default:
      return common::Status::IoError("unknown pixel encoding byte");
  }

  uint32_t expected_crc = r.crc();
  uint32_t stored_crc = 0;
  is.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  if (static_cast<size_t>(is.gcount()) != sizeof(stored_crc)) {
    return common::Status::IoError("truncated checksum");
  }
  if (stored_crc != expected_crc) {
    return common::Status::IoError(
        common::Format("checksum mismatch: stored %08x computed %08x",
                       stored_crc, expected_crc));
  }
  return video;
}

common::Status VideoFile::Save(const std::string& path,
                               const video::Video& video,
                               PixelEncoding encoding) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return common::Status::IoError("cannot open for write: " + path);
  ZEUS_RETURN_IF_ERROR(Write(os, video, encoding));
  os.close();
  if (!os.good()) return common::Status::IoError("close failed: " + path);
  return common::Status::Ok();
}

common::Result<video::Video> VideoFile::Load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return common::Status::IoError("cannot open for read: " + path);
  return Read(is);
}

}  // namespace zeus::storage
