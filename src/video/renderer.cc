#include "video/renderer.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace zeus::video {

void SceneRenderer::RenderBackground(int frame_idx, const double phases[6],
                                     float* out, common::Rng* rng) const {
  const double drift =
      style_.drift_speed * frame_idx / 100.0;  // fraction of width
  // The separable texture factors depend only on the column (with this
  // frame's drift) or only on the row: evaluate each once, with the same
  // expressions as the per-pixel term, so the bytes do not change.
  std::vector<double> col_sin(static_cast<size_t>(width_));
  for (int x = 0; x < width_; ++x) {
    const double fx = static_cast<double>(x) / width_ + drift;
    col_sin[static_cast<size_t>(x)] =
        std::sin(2.0 * M_PI * (1.3 * fx + phases[0]));
  }
  for (int y = 0; y < height_; ++y) {
    const double fy = static_cast<double>(y) / height_;
    const double row_cos = std::cos(2.0 * M_PI * (0.9 * fy + phases[1]));
    for (int x = 0; x < width_; ++x) {
      const double fx = static_cast<double>(x) / width_ + drift;
      double tex =
          col_sin[static_cast<size_t>(x)] * row_cos +
          0.5 * std::sin(2.0 * M_PI * (2.7 * fx + 1.9 * fy + phases[2]));
      double v = style_.base_brightness + style_.texture_amplitude * tex * 0.5 +
                 style_.noise_sigma * rng->NextGaussian();
      out[y * width_ + x] = static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
  }
}

void SceneRenderer::SplatBlob(Point center, double amplitude, double sigma,
                              BlobShape shape, float* frame) const {
  const double cx = center.x * width_;
  const double cy = center.y * height_;
  const double s = sigma * std::max(width_, height_);
  const int radius = static_cast<int>(std::ceil(3.5 * s));
  const int x0 = std::max(0, static_cast<int>(cx) - radius);
  const int x1 = std::min(width_ - 1, static_cast<int>(cx) + radius);
  const int y0 = std::max(0, static_cast<int>(cy) - radius);
  const int y1 = std::min(height_ - 1, static_cast<int>(cy) + radius);
  const double inv2s2 = 1.0 / (2.0 * s * s);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      double dx = x - cx, dy = y - cy;
      double d2 = dx * dx + dy * dy;
      double v = amplitude * std::exp(-d2 * inv2s2);
      if (shape == BlobShape::kTextured) {
        // High-frequency internal pattern (period ~1.5 sigma): a dark/light
        // modulation that area-averaging wipes out at low resolutions, so
        // textured agents and smooth ghosts become indistinguishable there.
        // Pattern period ~1.8 sigma: fine enough that area-averaging below
        // ~2/3 of the native resolution wipes it out (the Resolution knob's
        // accuracy cost), coarse enough to survive the native render.
        double pattern =
            std::cos(2.0 * M_PI * dx / (1.8 * s)) *
            std::cos(2.0 * M_PI * dy / (1.8 * s));
        v *= 0.50 + 0.50 * pattern;
      }
      double out = frame[y * width_ + x] + v;
      frame[y * width_ + x] = static_cast<float>(std::min(1.0, out));
    }
  }
}

Video SceneRenderer::Render(int num_frames,
                            const std::vector<BlobEvent>& events,
                            common::Rng* rng) const {
  Video video(num_frames, height_, width_);
  double phases[6];
  for (double& p : phases) p = rng->NextDouble();

  for (int f = 0; f < num_frames; ++f) {
    RenderBackground(f, phases, video.FrameData(f), rng);
  }
  for (const BlobEvent& ev : events) {
    const int len = ev.end_frame - ev.start_frame;
    if (len <= 0) continue;
    // Events longer than one trajectory cycle repeat the motion so that
    // per-frame speed does not shrink with instance length.
    const int cycle = std::min(len, TrajectoryCycleFrames(ev.traj));
    for (int f = std::max(0, ev.start_frame);
         f < std::min(num_frames, ev.end_frame); ++f) {
      int phase = (f - ev.start_frame) % cycle;
      double t = static_cast<double>(phase) / std::max(1, cycle - 1);
      Point p = TrajectoryPoint(ev.traj, t, ev.jitter);
      SplatBlob(p, ev.amplitude, ev.sigma, ev.shape, video.FrameData(f));
      if (ev.cls != ActionClass::kNone) {
        video.SetLabel(f, ev.cls);
      }
    }
  }
  return video;
}

}  // namespace zeus::video
