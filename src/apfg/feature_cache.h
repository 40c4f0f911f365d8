#ifndef ZEUS_APFG_FEATURE_CACHE_H_
#define ZEUS_APFG_FEATURE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "apfg/apfg.h"
#include "common/thread_pool.h"

namespace zeus::apfg {

// Memoizes APFG outputs keyed by (video id, start frame, decode spec) — the
// "Pre-Processing" optimization of §5: during RL training the agent
// repeatedly revisits the same (segment, configuration) pairs across
// episodes, so features are computed once and replayed from the cache.
//
// Window awareness (live streams): the key also carries the number of
// source frames actually available to the decode — min(covered frames,
// video length - start). SegmentDecoder clamps reads past the video end to
// the last frame, so a tail segment's features CHANGE when the video grows
// past it; baking the clamp into the key makes such stale entries simply
// unreachable (the grown video hashes to a new key) with no invalidation
// protocol. Interior segments keep their keys, which is why an appended
// window only pays extraction past the previous high-water mark.
//
// Retention (streams run indefinitely): the cache is LRU-bounded by
// `max_entries`, and InvalidateBefore() drops every entry that lies
// entirely before a retention horizon. Values are handed out as
// shared_ptr<const Output>, so eviction never dangles a reader that is
// still stepping with an old entry.
class FeatureCache {
 public:
  // Default LRU bound. Generous enough that stored-video training and
  // serving never evict (a full training run touches ~10^4-10^5 keys);
  // what it bounds is the indefinite-stream case.
  static constexpr size_t kDefaultMaxEntries = size_t{1} << 20;

  explicit FeatureCache(Apfg* apfg, size_t max_entries = kDefaultMaxEntries)
      : apfg_(apfg), max_entries_(max_entries) {}

  FeatureCache(const FeatureCache&) = delete;
  FeatureCache& operator=(const FeatureCache&) = delete;

  // Returns the (possibly cached) APFG output for this invocation. Never
  // null.
  //
  // Thread-safe: the map is mutex-guarded while the miss-path APFG
  // inference runs outside the lock; concurrent misses on one key compute
  // redundantly and the first insert wins. APFG inference is
  // deterministic, so results are identical to serial access.
  std::shared_ptr<const Apfg::Output> Get(const video::Video& video,
                                          int start_frame,
                                          const video::DecodeSpec& spec);

  // One segment of a batched lookup: `video` from `start_frame`.
  struct Segment {
    const video::Video* video = nullptr;
    int start_frame = 0;
  };

  // Batched Get: the APFG output for every segment under one decode spec
  // (index-parallel, never null). The misses are decoded, stacked and run
  // through Apfg::ProcessBatch in forwards of at most `max_batch` segments
  // — one launch per batch, where a Get per segment would run one each.
  // ProcessBatch rows equal Process bit for bit, so the values are those
  // Get would return, and the hit, miss and eviction counters read exactly
  // as after a Get per segment in order (a segment repeated within the call
  // is a hit after its first miss). Thread-safe like Get: inference runs
  // outside the lock and the first insert of a key wins.
  std::vector<std::shared_ptr<const Apfg::Output>> GetBatch(
      const std::vector<Segment>& segments, const video::DecodeSpec& spec,
      int max_batch);

  // Eagerly computes features for every position a traversal could visit:
  // all starts that are multiples of `alignment`. Bounded by `max_entries`.
  void Precompute(const video::Video& video, const video::DecodeSpec& spec,
                  int alignment, size_t max_entries = 1 << 20);

  // Parallel batch pre-extraction (§5: the paper batches feature
  // extraction across GPUs to cut RL training time; here across CPU
  // threads). APFG inference is read-only, so workers share the model;
  // results are inserted under a single-threaded merge.
  void PrecomputeParallel(const std::vector<const video::Video*>& videos,
                          const video::DecodeSpec& spec, int alignment,
                          common::ThreadPool* pool);

  // Drops every entry whose segment lies entirely before source frame
  // `frame` (start + available <= frame), across all videos — the stream
  // retention bound: once subscribers' windows have moved past a frame,
  // features behind it will never be asked for again. Returns the number
  // of entries dropped (also counted as evictions).
  size_t InvalidateBefore(int frame);

  // Adjusts the LRU bound; evicts immediately if over. 0 = unbounded.
  void set_max_entries(size_t n);
  size_t max_entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_entries_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    lru_.clear();
  }

 private:
  struct Key {
    int video_id = 0;
    int start = 0;
    int avail = 0;  // source frames available to the decode (clamp-aware)
    int res = 0;
    int len = 0;
    int rate = 0;
    bool operator==(const Key& o) const {
      return video_id == o.video_id && start == o.start && avail == o.avail &&
             res == o.res && len == o.len && rate == o.rate;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    std::shared_ptr<const Apfg::Output> out;
    std::list<Key>::iterator pos;  // position in lru_
  };

  static Key MakeKey(const video::Video& video, int start_frame,
                     const video::DecodeSpec& spec);

  // Inserts (or refreshes) under mu_; returns the resident value.
  std::shared_ptr<const Apfg::Output> InsertLocked(
      const Key& key, std::shared_ptr<const Apfg::Output> out);
  void EvictOverCapacityLocked();

  Apfg* apfg_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> cache_;
  std::list<Key> lru_;  // front = most recently used
  size_t max_entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace zeus::apfg

#endif  // ZEUS_APFG_FEATURE_CACHE_H_
