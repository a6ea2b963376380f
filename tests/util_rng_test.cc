#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace leakdet {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(13);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) hit_lo = true;
    if (v == 3) hit_hi = true;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, RandomStringUsesAlphabet) {
  Rng rng(29);
  std::string s = rng.RandomString(200, "ab");
  EXPECT_EQ(s.size(), 200u);
  for (char c : s) EXPECT_TRUE(c == 'a' || c == 'b');
}

TEST(RngTest, RandomDigitsAndHex) {
  Rng rng(31);
  std::string d = rng.RandomDigits(50);
  for (char c : d) EXPECT_TRUE(c >= '0' && c <= '9');
  std::string h = rng.RandomHex(50);
  for (char c : h) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(41);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  std::vector<int> one{5};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 5);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(43);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) counts[rng.WeightedIndex(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 8000.0, 0.25, 0.03);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(47);
  for (size_t k : {0ul, 1ul, 5ul, 50ul, 100ul}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementSparsePath) {
  Rng rng(53);
  auto sample = rng.SampleWithoutReplacement(1000000, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(ZipfSamplerTest, PmfSumsToOneAndDecreases) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0;
  for (size_t k = 0; k < 100; ++k) {
    sum += zipf.Pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.Pmf(k), zipf.Pmf(k - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, RankZeroIsMostLikely) {
  ZipfSampler zipf(50, 1.2);
  Rng rng(59);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(&rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49]);
  EXPECT_NEAR(counts[0] / 20000.0, zipf.Pmf(0), 0.02);
}

TEST(ZipfSamplerTest, SingleElement) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(61);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

}  // namespace
}  // namespace leakdet
