// Fixed-bucket log-scale latency histogram.
//
// Latencies are recorded in nanoseconds at arbitrary volume (the load
// generator, every smr::Client), so no sample is kept. Instead values
// land in a fixed layout of 976 buckets: values below 16 get exact
// unit-width buckets, and every power-of-two decade above that is split
// into 16 sub-buckets (HdrHistogram's scheme with 4 significant bits).
// Bucket width is at most 1/16 of the bucket's lower bound, so any
// reported quantile overstates the true sample by at most 6.25%.
//
// The layout is identical in every instance, which buys two properties the
// tests pin down: merge() is plain bucket-wise addition (associative and
// commutative), and digest() is a deterministic function of the recorded
// multiset — two processes that observed the same latencies produce
// bit-identical digests.
#pragma once

#include <array>
#include <cstdint>

namespace qsel::metrics {

class LatencyHistogram {
 public:
  /// Exact unit buckets for values 0..15.
  static constexpr std::size_t kLinearBuckets = 16;
  /// Sub-buckets per power-of-two decade (4 significant bits).
  static constexpr std::size_t kSubBuckets = 16;
  /// Decades cover exponents 4..63 of a 64-bit value.
  static constexpr std::size_t kBucketCount =
      kLinearBuckets + (64 - 4) * kSubBuckets;  // 976

  /// Bucket index holding `value`; total over all 64-bit values.
  static std::size_t bucket_index(std::uint64_t value);
  /// Smallest / largest value mapping to bucket `index`.
  static std::uint64_t bucket_lower(std::size_t index);
  static std::uint64_t bucket_upper(std::size_t index);

  void record(std::uint64_t value);
  /// Bucket-wise addition; min/max/sum/count fold in too.
  void merge(const LatencyHistogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  /// Exact extrema and sum (tracked beside the buckets).
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t mean() const { return count_ == 0 ? 0 : sum_ / count_; }

  /// Nearest-rank quantile, p in [0, 1]; returns the upper bound of the
  /// bucket holding the ranked sample, clamped to max() (so the true value
  /// is never overstated by more than the bucket width, and no quantile
  /// exceeds the largest sample). 0 when empty.
  std::uint64_t quantile(double p) const;
  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p99() const { return quantile(0.99); }
  std::uint64_t p999() const { return quantile(0.999); }

  /// Order-independent 64-bit digest of the recorded multiset (bucket
  /// counts + count/sum/min/max), for cross-process determinism checks.
  std::uint64_t digest() const;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace qsel::metrics
