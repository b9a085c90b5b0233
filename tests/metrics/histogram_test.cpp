// LatencyHistogram unit battery: exact bucket boundaries, merge
// associativity, the quantile error bound against a sorted-vector oracle,
// and digest determinism (order independence).
#include "metrics/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace qsel::metrics {
namespace {

TEST(LatencyHistogramTest, BucketBoundariesAreExact) {
  // Every value lands in a bucket whose [lower, upper] range contains it,
  // and the decomposition round-trips: bucket_lower/upper are the extreme
  // values mapping to that index.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 4096; ++v) probes.push_back(v);
  for (int e = 4; e < 64; ++e) {
    const std::uint64_t p = std::uint64_t{1} << e;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  probes.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : probes) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    ASSERT_LT(index, LatencyHistogram::kBucketCount);
    const std::uint64_t lower = LatencyHistogram::bucket_lower(index);
    const std::uint64_t upper = LatencyHistogram::bucket_upper(index);
    EXPECT_LE(lower, v) << v;
    EXPECT_GE(upper, v) << v;
    EXPECT_EQ(LatencyHistogram::bucket_index(lower), index);
    EXPECT_EQ(LatencyHistogram::bucket_index(upper), index);
    if (index + 1 < LatencyHistogram::kBucketCount) {
      EXPECT_EQ(LatencyHistogram::bucket_lower(index + 1), upper + 1);
    }
  }
  // Values below 32 get unit-width (exact) buckets.
  for (std::uint64_t v = 0; v < 32; ++v) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(LatencyHistogram::bucket_lower(index),
              LatencyHistogram::bucket_upper(index));
  }
  // Relative bucket width never exceeds 1/16 of the lower bound.
  for (std::size_t i = LatencyHistogram::kLinearBuckets;
       i < LatencyHistogram::kBucketCount; ++i) {
    const std::uint64_t lower = LatencyHistogram::bucket_lower(i);
    const std::uint64_t width =
        LatencyHistogram::bucket_upper(i) - lower + 1;
    EXPECT_LE(width, lower / 16) << "bucket " << i;
  }
  // The top bucket ends exactly at the 64-bit ceiling.
  EXPECT_EQ(LatencyHistogram::bucket_upper(LatencyHistogram::kBucketCount - 1),
            ~std::uint64_t{0});
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  Rng rng(42);
  const auto fill = [&](std::size_t count) {
    LatencyHistogram h;
    for (std::size_t i = 0; i < count; ++i)
      h.record(rng.below(50'000'000));
    return h;
  };
  const LatencyHistogram a = fill(1000);
  const LatencyHistogram b = fill(500);
  const LatencyHistogram c = fill(2000);

  LatencyHistogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram bc = b;
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);
  LatencyHistogram cba = c;
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.digest(), a_bc.digest());
  EXPECT_EQ(ab_c.digest(), cba.digest());
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(ab_c.sum(), a.sum() + b.sum() + c.sum());
  EXPECT_EQ(ab_c.p99(), a_bc.p99());
}

TEST(LatencyHistogramTest, QuantileErrorBoundVsSortedOracle) {
  // 10k seeded samples spanning six orders of magnitude; the histogram
  // quantile must never understate the exact nearest-rank value and must
  // overstate it by at most the bucket width (<= 1/16 relative).
  Rng rng(7);
  LatencyHistogram hist;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 10'000; ++i) {
    // Log-uniform-ish: pick a decade, then a value inside it.
    const std::uint64_t decade = 1ULL << rng.between(4, 30);
    const std::uint64_t v = decade + rng.below(decade);
    samples.push_back(v);
    hist.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p * static_cast<double>(samples.size()))));
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t approx = hist.quantile(p);
    EXPECT_GE(approx, exact) << "p=" << p;
    EXPECT_LE(approx, exact + exact / 16 + 1) << "p=" << p;
  }
  EXPECT_EQ(hist.min(), samples.front());
  EXPECT_EQ(hist.max(), samples.back());
}

TEST(LatencyHistogramTest, QuantileNeverExceedsTheExactMaximum) {
  // Every sample lands in the one bucket [1024, 1087]: without the clamp
  // each quantile would report the bucket's upper bound, above any sample.
  LatencyHistogram hist;
  for (const std::uint64_t v : {1030u, 1040u, 1050u}) hist.record(v);
  ASSERT_EQ(LatencyHistogram::bucket_index(1030),
            LatencyHistogram::bucket_index(1050));
  ASSERT_GT(LatencyHistogram::bucket_upper(
                LatencyHistogram::bucket_index(1050)),
            1050u);
  for (const double p : {0.0, 0.5, 0.99, 0.999, 1.0})
    EXPECT_EQ(hist.quantile(p), 1050u) << "p=" << p;
}

TEST(LatencyHistogramTest, DigestIsOrderIndependentAndSensitive) {
  Rng rng(9);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 512; ++i) values.push_back(rng.below(1'000'000));

  LatencyHistogram forward;
  for (const auto v : values) forward.record(v);
  LatencyHistogram backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it)
    backward.record(*it);
  EXPECT_EQ(forward.digest(), backward.digest());

  LatencyHistogram tweaked = forward;
  tweaked.record(123'456'789);
  EXPECT_NE(forward.digest(), tweaked.digest());
}

TEST(LatencyHistogramTest, EmptyAndExtremes) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.mean(), 0u);

  h.record(0);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), ~std::uint64_t{0});

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.digest(), LatencyHistogram{}.digest());
}

}  // namespace
}  // namespace qsel::metrics
