#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/cardinality.h"
#include "common/random.h"

namespace shark {
namespace {

TEST(DistinctGrowthTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(0, 0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(100, 50, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(100, 50, 0.5), 1.0);
}

TEST(DistinctGrowthTest, NoCollisionsMeansLinear) {
  // All-unique sample: no evidence of saturation; scale linearly.
  EXPECT_DOUBLE_EQ(DistinctGrowthFactor(1000, 1000, 50.0), 50.0);
}

TEST(DistinctGrowthTest, FullySaturatedStaysFlat) {
  // 1250 draws hit only 100 distinct keys: the key space is tiny; scaling
  // the draws 1000x barely increases the distinct count.
  double f = DistinctGrowthFactor(1250, 100, 1000.0);
  EXPECT_LT(f, 1.05);
  EXPECT_GE(f, 1.0);
}

TEST(DistinctGrowthTest, BoundedByOneAndScale) {
  Random rng(6);
  for (int i = 0; i < 200; ++i) {
    double n = 1.0 + static_cast<double>(rng.Uniform(100000));
    double d = 1.0 + static_cast<double>(rng.Uniform(static_cast<uint64_t>(n)));
    double scale = 1.0 + static_cast<double>(rng.Uniform(10000));
    double f = DistinctGrowthFactor(n, d, scale);
    EXPECT_GE(f, 1.0) << "n=" << n << " d=" << d << " s=" << scale;
    EXPECT_LE(f, scale) << "n=" << n << " d=" << d << " s=" << scale;
  }
}

TEST(DistinctGrowthTest, RecoversTrueGrowthOnSimulatedDraws) {
  // Draw n samples uniformly from K keys; check the predicted growth
  // against an actual scaled-up simulation.
  Random rng(7);
  const uint64_t kKeySpace = 300000;
  const int kSample = 2500;
  const double kScale = 1000.0;

  std::vector<char> seen_small(kKeySpace, 0);
  int d_small = 0;
  for (int i = 0; i < kSample; ++i) {
    uint64_t k = rng.Uniform(kKeySpace);
    if (!seen_small[k]) {
      seen_small[k] = 1;
      ++d_small;
    }
  }
  double predicted = DistinctGrowthFactor(kSample, d_small, kScale);

  // The scaled-up "virtual" sample has kSample * kScale = 2.5M draws from
  // 300K keys: essentially the whole key space.
  double true_growth = static_cast<double>(kKeySpace) / d_small;
  EXPECT_NEAR(predicted, true_growth, 0.35 * true_growth);
}

TEST(DistinctGrowthTest, MonotoneInScale) {
  double prev = 0;
  for (double scale : {2.0, 10.0, 100.0, 1000.0, 10000.0}) {
    double f = DistinctGrowthFactor(1000, 900, scale);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(SplitHalfSampleTest, CountsDistinctHashesPerHalfAndTheirOverlap) {
  // Halves {5, 1, 5, 9} and {9, 2, 1, 2, 7} (the odd element goes to the
  // second half): 3 and 4 distinct, sharing 1 and 9.
  SampleCardinality s = SplitHalfSample({5, 1, 5, 9, 9, 2, 1, 2, 7}, 6);
  EXPECT_EQ(s.n, 9.0);
  EXPECT_EQ(s.d, 6.0);
  EXPECT_EQ(s.d_first, 3.0);
  EXPECT_EQ(s.d_second, 4.0);
  EXPECT_EQ(s.overlap, 2.0);

  SampleCardinality empty = SplitHalfSample({}, 0);
  EXPECT_EQ(empty.n, 0.0);
  EXPECT_EQ(empty.d_first + empty.d_second + empty.overlap, 0.0);
}

TEST(SplitHalfSampleTest, MatchesSetCountsOnRandomHashes) {
  Random rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> hashes(rng.Uniform(400));
    for (uint64_t& h : hashes) h = rng.Uniform(150) * 0x9E3779B97F4A7C15ULL;
    const size_t half = hashes.size() / 2;
    std::set<uint64_t> first(hashes.begin(), hashes.begin() + half);
    std::set<uint64_t> second(hashes.begin() + half, hashes.end());
    double overlap = 0.0;
    for (uint64_t h : first) overlap += static_cast<double>(second.count(h));
    SampleCardinality s = SplitHalfSample(hashes, 0);
    EXPECT_EQ(s.n, static_cast<double>(hashes.size()));
    EXPECT_EQ(s.d_first, static_cast<double>(first.size()));
    EXPECT_EQ(s.d_second, static_cast<double>(second.size()));
    EXPECT_EQ(s.overlap, overlap);
  }
}

}  // namespace
}  // namespace shark
