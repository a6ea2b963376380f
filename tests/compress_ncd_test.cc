#include "compress/ncd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace leakdet::compress {
namespace {

class NcdTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    auto c = MakeCompressor(GetParam());
    ASSERT_TRUE(c.ok());
    compressor_ = std::move(*c);
    ncd_ = std::make_unique<NcdCalculator>(compressor_.get());
  }
  std::unique_ptr<Compressor> compressor_;
  std::unique_ptr<NcdCalculator> ncd_;
};

// Self-distance depends on how well each codec exploits an exact repeat:
// LZ77 copies the whole second half as one match; LZW only reuses short
// phrases; the order-0 estimator cannot see repetition at all.
TEST_P(NcdTest, IdenticalStringsSelfDistanceByCodec) {
  std::string s =
      "GET /ad/v3/req?app_id=aabb&udid=35409806123456&r=17 HTTP/1.1";
  double d = ncd_->Ncd(s, s);
  std::string_view codec = GetParam();
  if (codec == "lz77h") {
    EXPECT_LT(d, 0.35);
  } else if (codec == "lzw") {
    EXPECT_LT(d, 0.65);
  } else {
    EXPECT_LT(d, 1.0);
  }
}

TEST_P(NcdTest, UnrelatedRandomStringsFar) {
  Rng rng(5);
  std::string a, b;
  for (int i = 0; i < 800; ++i) a += static_cast<char>(rng.UniformInt(256));
  for (int i = 0; i < 800; ++i) b += static_cast<char>(rng.UniformInt(256));
  EXPECT_GT(ncd_->Ncd(a, b), 0.5);
}

// The property the clustering actually relies on: for every codec, the
// self-distance sits well below the unrelated-distance.
TEST_P(NcdTest, SelfDistanceBelowUnrelatedDistance) {
  std::string s =
      "GET /gampad/ads?app_id=k1&sdk=2.1.3&dc_uid=900150983cd24fb0d696 "
      "HTTP/1.1";
  Rng rng(21);
  std::string unrelated;
  for (size_t i = 0; i < s.size(); ++i) {
    unrelated += static_cast<char>(rng.UniformInt(256));
  }
  EXPECT_LT(ncd_->Ncd(s, s) + 0.1, ncd_->Ncd(s, unrelated));
}

TEST_P(NcdTest, SimilarClosterThanDissimilar) {
  std::string base =
      "GET /gampad/ads?app_id=k1&sdk=2.1.3&fmt=banner320x50&dc_uid="
      "900150983cd24fb0d6963f7d28e17f72&r=11aabb22 HTTP/1.1";
  std::string similar =
      "GET /gampad/ads?app_id=k2&sdk=2.1.3&fmt=banner320x50&dc_uid="
      "900150983cd24fb0d6963f7d28e17f72&r=99ffcc00 HTTP/1.1";
  Rng rng(9);
  std::string unrelated;
  for (size_t i = 0; i < base.size(); ++i) {
    unrelated += static_cast<char>(rng.UniformInt(256));
  }
  EXPECT_LT(ncd_->Ncd(base, similar), ncd_->Ncd(base, unrelated));
}

TEST_P(NcdTest, BoundedInUnitInterval) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    std::string a = rng.RandomString(rng.UniformInt(300), "abcdef&=/?");
    std::string b = rng.RandomString(rng.UniformInt(300), "abcdef&=/?");
    double d = ncd_->Ncd(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST_P(NcdTest, ExactSymmetry) {
  // Real codecs are concatenation-order sensitive, so the raw formula is
  // slightly asymmetric; Ncd canonicalizes the concatenation order, which
  // makes the distance exactly symmetric (the pair caches key on unordered
  // pairs and rely on this).
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::string a = rng.RandomString(50 + rng.UniformInt(200), "abcdxyz");
    std::string b = rng.RandomString(50 + rng.UniformInt(200), "abcdxyz");
    EXPECT_DOUBLE_EQ(ncd_->Ncd(a, b), ncd_->Ncd(b, a));
  }
}

TEST_P(NcdTest, CacheCountersTrackHitsAndMisses) {
  std::string a = "count-me-a", b = "count-me-b";
  EXPECT_EQ(ncd_->cache_hits(), 0u);
  EXPECT_EQ(ncd_->cache_misses(), 0u);
  ncd_->Ncd(a, b);  // two fresh singleton compressions
  EXPECT_EQ(ncd_->cache_misses(), 2u);
  EXPECT_EQ(ncd_->cache_hits(), 0u);
  ncd_->Ncd(b, a);  // both served from the memo
  EXPECT_EQ(ncd_->cache_misses(), 2u);
  EXPECT_EQ(ncd_->cache_hits(), 2u);
}

// Sizes built the way the matrix builder builds them: the universe is
// sorted, row x resumes from one stream on its string (or materializes the
// pair where the codec has no streams), and the NCD comes from the sizes.
std::vector<std::vector<size_t>> RowSizedPairs(
    const Compressor& compressor, const std::vector<std::string>& sorted) {
  std::vector<std::vector<size_t>> pair(sorted.size(),
                                        std::vector<size_t>(sorted.size()));
  for (size_t x = 0; x < sorted.size(); ++x) {
    std::unique_ptr<Compressor::Stream> stream =
        compressor.NewStream(sorted[x]);
    for (size_t y = x; y < sorted.size(); ++y) {
      pair[x][y] = pair[y][x] =
          stream != nullptr
              ? stream->SizeWithSuffix(sorted[y])
              : CanonicalPairCompressedSize(compressor, sorted[x], sorted[y]);
    }
  }
  return pair;
}

TEST_P(NcdTest, PairCacheMatchesCalculatorExactly) {
  Rng rng(17);
  std::vector<std::string> universe;
  for (int i = 0; i < 12; ++i) {
    universe.push_back(rng.RandomString(20 + rng.UniformInt(120), "abcq&=/"));
  }
  std::sort(universe.begin(), universe.end());
  std::vector<std::vector<size_t>> pair =
      RowSizedPairs(*compressor_, universe);
  for (uint32_t x = 0; x < universe.size(); ++x) {
    for (uint32_t y = 0; y < universe.size(); ++y) {
      double from_sizes = NcdFromSizes(
          compressor_->CompressedSize(universe[x]),
          compressor_->CompressedSize(universe[y]), pair[x][y]);
      EXPECT_EQ(from_sizes, ncd_->Ncd(universe[x], universe[y]))
          << "x=" << x << " y=" << y;
    }
  }
}

TEST_P(NcdTest, PairCacheServesBothOrdersFromOneEntry) {
  // Sorted, the smaller string is the prefix of the canonical
  // concatenation, so the one entry a row stores is correct for both orders.
  std::vector<std::string> universe = {"GET /ads?id=1 HTTP/1.1",
                                       "GET /ads?id=2 HTTP/1.1"};
  std::vector<std::vector<size_t>> pair =
      RowSizedPairs(*compressor_, universe);
  const std::string& x = universe[0];
  const std::string& y = universe[1];
  EXPECT_EQ(pair[0][1], CanonicalPairCompressedSize(*compressor_, x, y));
  EXPECT_EQ(pair[0][1], CanonicalPairCompressedSize(*compressor_, y, x));
  EXPECT_EQ(ncd_->Ncd(x, y), ncd_->Ncd(y, x));
}

TEST_P(NcdTest, BothEmptyIsZero) {
  EXPECT_DOUBLE_EQ(ncd_->Ncd("", ""), 0.0);
}

TEST_P(NcdTest, EmptyVsNonEmptyIsLarge) {
  std::string s(300, 'q');
  s += "variation-0123456789";
  EXPECT_GT(ncd_->Ncd("", s), 0.4);
}

TEST_P(NcdTest, CacheMemoizesSingles) {
  std::string a = "cache-me-once", b = "cache-me-twice";
  ncd_->Ncd(a, b);
  size_t after_first = ncd_->cache_size();
  EXPECT_EQ(after_first, 2u);
  ncd_->Ncd(a, b);
  ncd_->Ncd(b, a);
  EXPECT_EQ(ncd_->cache_size(), after_first);
}

INSTANTIATE_TEST_SUITE_P(Compressors, NcdTest,
                         ::testing::Values("lz77h", "lzw", "entropy"));

// ---------------------------------------------------------------------------
// LZW stream resumption: every SizeWithSuffix is sized against the prefix
// alone, however many calls came before it and in whatever order.

std::string RandomBytes(Rng* rng, size_t length) {
  std::string s;
  for (size_t i = 0; i < length; ++i) {
    s += static_cast<char>(rng->UniformInt(256));
  }
  return s;
}

TEST(LzwStreamTest, RandomSuffixSequencesMatchCompressedSize) {
  LzwCompressor lzw;
  Rng rng(29);
  const std::string http =
      "GET /gampad/ads?app_id=k1&sdk=2.1.3&dc_uid=900150983cd24fb0 HTTP/1.1";
  const std::vector<std::string> prefixes = {
      "", "a", http, rng.RandomString(300, "ab&="), RandomBytes(&rng, 500)};
  for (const std::string& prefix : prefixes) {
    SCOPED_TRACE("prefix length " + std::to_string(prefix.size()));
    std::vector<std::string> suffixes = {
        "", "a", prefix, prefix + prefix, http, std::string("\0\xff\0", 3),
        std::string(700, '\xff')};
    for (int i = 0; i < 12; ++i) {
      suffixes.push_back(rng.RandomString(rng.UniformInt(400), "ab&=/"));
      suffixes.push_back(RandomBytes(&rng, rng.UniformInt(300)));
    }
    std::unique_ptr<Compressor::Stream> stream = lzw.NewStream(prefix);
    ASSERT_NE(stream, nullptr);
    for (int call = 0; call < 300; ++call) {
      const std::string& suffix = suffixes[rng.UniformInt(suffixes.size())];
      ASSERT_EQ(stream->SizeWithSuffix(suffix),
                lzw.CompressedSize(prefix + suffix))
          << "call " << call << " suffix length " << suffix.size();
    }
  }
}

TEST(LzwStreamTest, SuffixPastTheCodeFreezeThenReuse) {
  // Random bytes mint a code every 1.1-1.4 bytes: the dictionary fills at
  // about 90 kB, so 50 kB + 50 kB crosses the 65,536-code freeze inside the
  // suffix, and a 120 kB prefix freezes on its own.
  LzwCompressor lzw;
  Rng rng(31);
  const std::string short_suffix = rng.RandomString(200, "xyz");
  const std::string long_suffix = RandomBytes(&rng, 50000);
  for (size_t prefix_length : {50000u, 120000u}) {
    const std::string prefix = RandomBytes(&rng, prefix_length);
    std::unique_ptr<Compressor::Stream> stream = lzw.NewStream(prefix);
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("prefix " + std::to_string(prefix_length) + " round " +
                   std::to_string(round));
      EXPECT_EQ(stream->SizeWithSuffix(short_suffix),
                lzw.CompressedSize(prefix + short_suffix));
      EXPECT_EQ(stream->SizeWithSuffix(long_suffix),
                lzw.CompressedSize(prefix + long_suffix));
      EXPECT_EQ(stream->SizeWithSuffix(""), lzw.CompressedSize(prefix));
    }
  }
}

}  // namespace
}  // namespace leakdet::compress
