#include "apfg/feature_cache.h"

#include <algorithm>

#include "tensor/tensor_ops.h"
#include "video/decoder.h"

namespace zeus::apfg {

size_t FeatureCache::KeyHash::operator()(const Key& k) const {
  // SplitMix64-style mix over the packed fields.
  uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(k.video_id));
  h = h * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(k.start);
  h = h * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(k.avail);
  h = h * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(k.res);
  h = h * 0x9E3779B97F4A7C15ull +
      (static_cast<uint64_t>(static_cast<uint32_t>(k.len)) << 8 |
       static_cast<uint32_t>(k.rate));
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return static_cast<size_t>(h);
}

FeatureCache::Key FeatureCache::MakeKey(const video::Video& video,
                                        int start_frame,
                                        const video::DecodeSpec& spec) {
  Key k;
  k.video_id = video.id();
  k.start = start_frame;
  // Clamp-awareness: how many real source frames the decode can see. Once
  // the video has grown past start + covered, this saturates at covered
  // and the key becomes stable forever.
  k.avail = std::min(video::SegmentDecoder::CoveredFrames(spec),
                     video.num_frames() - start_frame);
  k.res = spec.resolution_px;
  k.len = spec.segment_length;
  k.rate = spec.sampling_rate;
  return k;
}

std::shared_ptr<const Apfg::Output> FeatureCache::InsertLocked(
    const Key& key, std::shared_ptr<const Apfg::Output> out) {
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second.out;  // first insert won a race
  lru_.push_front(key);
  cache_.emplace(key, Entry{out, lru_.begin()});
  EvictOverCapacityLocked();
  return out;
}

void FeatureCache::EvictOverCapacityLocked() {
  if (max_entries_ == 0) return;
  while (cache_.size() > max_entries_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const Apfg::Output> FeatureCache::Get(
    const video::Video& video, int start_frame,
    const video::DecodeSpec& spec) {
  const Key key = MakeKey(video, start_frame, spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.pos);  // refresh LRU
      return it->second.out;
    }
  }
  // Miss: a batch of one, which runs the (read-only, deterministic) APFG
  // inference outside the lock so concurrent callers don't serialize on
  // each other's compute, and lets the first insert win a race.
  return GetBatch({{&video, start_frame}}, spec, /*max_batch=*/1)[0];
}

std::vector<std::shared_ptr<const Apfg::Output>> FeatureCache::GetBatch(
    const std::vector<Segment>& segments, const video::DecodeSpec& spec,
    int max_batch) {
  ZEUS_CHECK(max_batch >= 1);
  const size_t n = segments.size();
  std::vector<std::shared_ptr<const Apfg::Output>> out(n);
  std::vector<Key> keys;
  keys.reserve(n);
  for (const Segment& s : segments) {
    keys.push_back(MakeKey(*s.video, s.start_frame, spec));
  }
  // Hits resolve now; each distinct missing key is computed once.
  std::vector<size_t> misses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      auto it = cache_.find(keys[i]);
      if (it != cache_.end()) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second.pos);
        out[i] = it->second.out;
      } else if (std::none_of(misses.begin(), misses.end(),
                              [&](size_t j) { return keys[j] == keys[i]; })) {
        misses.push_back(i);
      }
    }
  }
  // Misses: decode, stack and extract in batches outside the lock.
  const size_t batch = static_cast<size_t>(max_batch);
  std::vector<std::shared_ptr<const Apfg::Output>> computed(misses.size());
  for (size_t lo = 0; lo < misses.size(); lo += batch) {
    const size_t hi = std::min(misses.size(), lo + batch);
    std::vector<tensor::Tensor> decoded;
    decoded.reserve(hi - lo);
    for (size_t m = lo; m < hi; ++m) {
      const Segment& s = segments[misses[m]];
      decoded.push_back(
          video::SegmentDecoder::Decode(*s.video, s.start_frame, spec));
    }
    std::vector<Apfg::Output> rows =
        apfg_->ProcessBatch(tensor::Stack(decoded), spec);
    for (size_t m = lo; m < hi; ++m) {
      computed[m] = std::make_shared<Apfg::Output>(std::move(rows[m - lo]));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t m = 0; m < misses.size(); ++m) {
    const Key& key = keys[misses[m]];
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;  // lost a concurrent race; the first insert wins
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      out[misses[m]] = it->second.out;
    } else {
      ++misses_;
      out[misses[m]] = InsertLocked(key, std::move(computed[m]));
    }
  }
  // Repeats of a key that missed earlier in this call: hits on its value.
  for (size_t i = 0; i < n; ++i) {
    if (out[i] != nullptr) continue;
    ++hits_;
    for (size_t j : misses) {
      if (keys[j] == keys[i]) out[i] = out[j];
    }
    auto it = cache_.find(keys[i]);
    if (it != cache_.end()) lru_.splice(lru_.begin(), lru_, it->second.pos);
  }
  return out;
}

void FeatureCache::Precompute(const video::Video& video,
                              const video::DecodeSpec& spec, int alignment,
                              size_t max_entries) {
  for (int start = 0; start < video.num_frames(); start += alignment) {
    if (size() >= max_entries) return;
    Get(video, start, spec);
  }
}

void FeatureCache::PrecomputeParallel(
    const std::vector<const video::Video*>& videos,
    const video::DecodeSpec& spec, int alignment, common::ThreadPool* pool) {
  // Enumerate the (video, start) work items not yet cached.
  struct Item {
    const video::Video* video;
    int start;
  };
  std::vector<Item> items;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const video::Video* v : videos) {
      for (int start = 0; start < v->num_frames(); start += alignment) {
        if (cache_.find(MakeKey(*v, start, spec)) == cache_.end()) {
          items.push_back({v, start});
        }
      }
    }
  }
  std::vector<std::shared_ptr<const Apfg::Output>> outputs(items.size());
  common::ParallelFor(pool, static_cast<int>(items.size()), [&](int i) {
    const Item& it = items[static_cast<size_t>(i)];
    outputs[static_cast<size_t>(i)] = std::make_shared<Apfg::Output>(
        apfg_->Process(*it.video, it.start, spec));
  });
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < items.size(); ++i) {
    ++misses_;
    InsertLocked(MakeKey(*items[i].video, items[i].start, spec),
                 std::move(outputs[i]));
  }
}

size_t FeatureCache::InvalidateBefore(int frame) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->start + it->avail <= frame) {
      cache_.erase(*it);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  evictions_ += dropped;
  return dropped;
}

void FeatureCache::set_max_entries(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = n;
  EvictOverCapacityLocked();
}

}  // namespace zeus::apfg
