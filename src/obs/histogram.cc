#include "obs/histogram.h"

#include <algorithm>

namespace themis::obs {

size_t Histogram::BucketIndex(int64_t value) {
  if (value < 64) return value < 0 ? 0 : static_cast<size_t>(value);
  const uint64_t v = static_cast<uint64_t>(value);
  const int msb = 63 - __builtin_clzll(v);  // >= 6 here
  const int shift = msb - 5;
  return 64 + static_cast<size_t>(msb - 6) * kSubBuckets +
         static_cast<size_t>((v >> shift) - kSubBuckets);
}

int64_t Histogram::BucketUpperBound(size_t index) {
  if (index < 64) return static_cast<int64_t>(index);
  const size_t group = (index - 64) / kSubBuckets;
  const size_t sub = (index - 64) % kSubBuckets;
  const int shift = static_cast<int>(group) + 1;
  // Unsigned, so the top bucket's bound, 2^63 - 1, does not overflow.
  return static_cast<int64_t>(
      (static_cast<uint64_t>(sub + kSubBuckets + 1) << shift) - 1);
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  Shard& shard = ShardForThisThread();
  shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  int64_t seen = shard.max.load(std::memory_order_relaxed);
  while (seen < value && !shard.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Shard& Histogram::ShardForThisThread() {
  // A cheap stable per-thread index: the address of a thread_local byte
  // hashes threads across shards without any registration step.
  static thread_local char tls_anchor;
  const auto key = reinterpret_cast<uintptr_t>(&tls_anchor);
  return shards_[(key >> 6) % kShards];
}

int64_t Histogram::Snapshot::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; q=1 targets the last sample.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Never report past the true max (the last bucket's upper bound can
      // exceed it by the bucket width).
      return std::min(BucketUpperBound(i), max);
    }
  }
  return max;
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot out;
  out.buckets.assign(kNumBuckets, 0);
  for (const Shard& shard : shards_) {
    out.count += shard.count.load(std::memory_order_relaxed);
    out.sum += shard.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, shard.max.load(std::memory_order_relaxed));
    for (size_t i = 0; i < kNumBuckets; ++i) {
      out.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace themis::obs
