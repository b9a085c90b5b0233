#include "metrics/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace qsel::metrics {

std::size_t LatencyHistogram::bucket_index(std::uint64_t value) {
  if (value < kLinearBuckets) return static_cast<std::size_t>(value);
  const auto e =
      static_cast<std::size_t>(std::bit_width(value)) - 1;  // top bit, >= 4
  const auto sub =
      static_cast<std::size_t>((value >> (e - 4)) & (kSubBuckets - 1));
  return kLinearBuckets + (e - 4) * kSubBuckets + sub;
}

std::uint64_t LatencyHistogram::bucket_lower(std::size_t index) {
  QSEL_REQUIRE(index < kBucketCount);
  if (index < kLinearBuckets) return index;
  const std::size_t decade = (index - kLinearBuckets) / kSubBuckets;
  const std::uint64_t sub = (index - kLinearBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << decade;
}

std::uint64_t LatencyHistogram::bucket_upper(std::size_t index) {
  QSEL_REQUIRE(index < kBucketCount);
  if (index < kLinearBuckets) return index;
  const std::size_t decade = (index - kLinearBuckets) / kSubBuckets;
  return bucket_lower(index) + ((std::uint64_t{1} << decade) - 1);
}

void LatencyHistogram::record(std::uint64_t value) {
  ++buckets_[bucket_index(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::reset() { *this = LatencyHistogram{}; }

std::uint64_t LatencyHistogram::quantile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::min(bucket_upper(i), max_);
  }
  return max_;  // unreachable: seen reaches count_ >= rank
}

std::uint64_t LatencyHistogram::digest() const {
  std::uint64_t state = 0x716c6f6164686973ULL;  // arbitrary fixed seed
  std::uint64_t h = splitmix64(state);
  const auto fold = [&](std::uint64_t word) {
    state ^= word;
    h ^= splitmix64(state);
  };
  fold(count_);
  fold(sum_);
  fold(min_);
  fold(max_);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    fold(i);
    fold(buckets_[i]);
  }
  return h;
}

}  // namespace qsel::metrics
