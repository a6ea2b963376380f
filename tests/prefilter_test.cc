// Unit and property tests for the multi-pattern prefilter: rare-token
// selection, the no-false-negative contract, mode agreement (every Mode
// must produce the same candidate bitmap), mode resolution, and the
// bucket-overflow path of the hash table.

#include "prefilter/prefilter.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "prefilter/scan_kernels.h"
#include "test_seed.h"
#include "util/rng.h"

namespace leakdet::prefilter {
namespace {

using SigTokens = std::vector<std::vector<std::string>>;

/// Every Mode Scan accepts; the reference mode first.
const std::vector<Mode>& AllModes() {
  static const std::vector<Mode> modes = {Mode::kScalar, Mode::kAuto,
                                          Mode::kOff};
  return modes;
}

std::string RandomPayload(Rng* rng, size_t max_len) {
  size_t len = rng->UniformInt(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>(rng->UniformInt(256));
  }
  return s;
}

TEST(PrefilterModeTest, ResolveMapsAutoToScalar) {
  EXPECT_EQ(Resolve(Mode::kAuto), Mode::kScalar);
  EXPECT_EQ(Resolve(Mode::kScalar), Mode::kScalar);
  EXPECT_EQ(Resolve(Mode::kOff), Mode::kOff);
}

TEST(PrefilterBuildTest, SelectsLowestDocumentFrequencyToken) {
  // "common=1" appears in all three signatures, the others are unique, so
  // every signature anchors on its unique token.
  SigTokens sigs = {
      {"common=1", "alpha-token"},
      {"common=1", "bravo-token"},
      {"common=1", "charlie-token"},
  };
  Prefilter pf = Prefilter::Build(sigs);
  EXPECT_EQ(pf.selected_token(0), "alpha-token");
  EXPECT_EQ(pf.selected_token(1), "bravo-token");
  EXPECT_EQ(pf.selected_token(2), "charlie-token");
  EXPECT_EQ(pf.num_always_candidates(), 0u);
}

TEST(PrefilterBuildTest, InjectedCorpusFrequencyOverridesDocFrequency) {
  SigTokens sigs = {{"seen-everywhere", "actually-rare"}};
  PrefilterOptions options;
  options.token_frequency = [](std::string_view tok) -> uint64_t {
    return tok == "actually-rare" ? 3 : 1000000;
  };
  Prefilter pf = Prefilter::Build(sigs, options);
  EXPECT_EQ(pf.selected_token(0), "actually-rare");
}

TEST(PrefilterBuildTest, TiePrefersLongerThenLexicographicToken) {
  // All tokens unique (doc freq 1): the longest wins; equal lengths break
  // toward the lexicographically smaller, deterministically.
  SigTokens sigs = {{"shrt1", "muchlongertoken"}, {"bbbb-same", "aaaa-same"}};
  Prefilter pf = Prefilter::Build(sigs);
  EXPECT_EQ(pf.selected_token(0), "muchlongertoken");
  EXPECT_EQ(pf.selected_token(1), "aaaa-same");
}

TEST(PrefilterBuildTest, ShortTokenSignaturesAreAlwaysCandidates) {
  SigTokens sigs = {{"ab", "xyz"}, {"long-enough-token"}};
  Prefilter pf = Prefilter::Build(sigs);
  EXPECT_EQ(pf.num_always_candidates(), 1u);
  EXPECT_EQ(pf.selected_token(0), "");
  ScanScratch scratch;
  // Payload contains nothing: the short-token signature must still be a
  // candidate (it could match content the windows can't see).
  EXPECT_TRUE(pf.Scan("nothing interesting here", &scratch, Mode::kScalar));
  EXPECT_TRUE(Prefilter::IsCandidate(scratch, 0));
  EXPECT_FALSE(Prefilter::IsCandidate(scratch, 1));
}

TEST(PrefilterBuildTest, EmptyConjunctionGetsNoBit) {
  SigTokens sigs = {{}, {"real-token-here"}};
  Prefilter pf = Prefilter::Build(sigs);
  EXPECT_EQ(pf.num_always_candidates(), 0u);
  ScanScratch scratch;
  EXPECT_FALSE(pf.Scan("whatever payload", &scratch, Mode::kScalar));
  EXPECT_FALSE(Prefilter::IsCandidate(scratch, 0));
}

TEST(PrefilterScanTest, EmptySetAndShortPayloads) {
  Prefilter empty = Prefilter::Build({});
  ScanScratch scratch;
  EXPECT_FALSE(empty.Scan("anything", &scratch));

  Prefilter pf = Prefilter::Build({{"token-x1"}});
  EXPECT_FALSE(pf.Scan("", &scratch, Mode::kScalar));
  EXPECT_FALSE(pf.Scan("tok", &scratch, Mode::kScalar));  // < window size
  EXPECT_TRUE(pf.Scan("token-x1", &scratch, Mode::kScalar));
}

TEST(PrefilterScanTest, FindsPlantedTokenAtEveryOffsetInEveryMode) {
  const std::string token = "rare$token&7231";
  Prefilter pf = Prefilter::Build({{token}});
  Rng rng(testing::TestSeed(0xF17E));
  for (Mode mode : AllModes()) {
    SCOPED_TRACE(static_cast<int>(mode));
    for (size_t offset = 0; offset < 80; ++offset) {
      std::string payload(offset, 'x');
      for (char& c : payload) c = static_cast<char>('a' + rng.UniformInt(26));
      payload += token;
      payload += "trailer";
      ScanScratch scratch;
      EXPECT_TRUE(pf.Scan(payload, &scratch, mode)) << "offset " << offset;
      EXPECT_TRUE(Prefilter::IsCandidate(scratch, 0)) << "offset " << offset;
    }
  }
}

TEST(PrefilterScanTest, BinaryTokensSurvive) {
  std::string token("\x00\xFF\x7F\x01\nbin", 7);
  Prefilter pf = Prefilter::Build({{token}});
  std::string payload = "prefix" + token + "suffix";
  for (Mode mode : AllModes()) {
    SCOPED_TRACE(static_cast<int>(mode));
    ScanScratch scratch;
    EXPECT_TRUE(pf.Scan(payload, &scratch, mode));
    EXPECT_TRUE(Prefilter::IsCandidate(scratch, 0));
  }
}

TEST(PrefilterScanTest, SharedWindowMarksEverySignature) {
  // Two signatures whose selected tokens share the same first 4 bytes: one
  // window entry must carry both signature ids.
  SigTokens sigs = {{"imei=352099"}, {"imei=999111"}, {"unrelated-tok"}};
  Prefilter pf = Prefilter::Build(sigs);
  ScanScratch scratch;
  for (Mode mode : AllModes()) {
    SCOPED_TRACE(static_cast<int>(mode));
    EXPECT_TRUE(pf.Scan("x=1&imei=352099&y=2", &scratch, mode));
    EXPECT_TRUE(Prefilter::IsCandidate(scratch, 0));
    // False positive by design: same window, different tail.
    EXPECT_TRUE(Prefilter::IsCandidate(scratch, 1));
    EXPECT_FALSE(Prefilter::IsCandidate(scratch, 2));
  }
}

TEST(PrefilterScanTest, ModesProduceIdenticalBitmaps) {
  uint64_t seed = testing::TestSeed(0xB17B17);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // A few hundred signatures so the table has real occupancy.
  SigTokens sigs;
  for (size_t s = 0; s < 300; ++s) {
    sigs.push_back({"tok" + std::to_string(s) + "=" + rng.RandomHex(8),
                    "alt" + std::to_string(s) + "-" + rng.RandomHex(6)});
  }
  Prefilter pf = Prefilter::Build(sigs);
  std::vector<Mode> modes = AllModes();
  for (int trial = 0; trial < 300; ++trial) {
    std::string payload = RandomPayload(&rng, 400);
    if (trial % 3 == 0) {
      // Plant a selected token at a random position so hit paths compare
      // too, not just misses.
      size_t s = rng.UniformInt(sigs.size());
      size_t pos = rng.UniformInt(payload.size() + 1);
      payload.insert(pos, pf.selected_token(s));
    }
    ScanScratch reference;
    pf.Scan(payload, &reference, Mode::kScalar);
    for (size_t m = 1; m < modes.size(); ++m) {
      ScanScratch scratch;
      pf.Scan(payload, &scratch, modes[m]);
      ASSERT_EQ(scratch.bits, reference.bits)
          << "mode " << static_cast<int>(modes[m]) << " diverged on trial " << trial;
    }
  }
}

TEST(PrefilterScanTest, NoFalseNegativeVsSubstringSearch) {
  uint64_t seed = testing::TestSeed(0x5EED);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  SigTokens sigs;
  for (size_t s = 0; s < 64; ++s) {
    sigs.push_back({"key" + std::to_string(s) + "=" + rng.RandomHex(10)});
  }
  Prefilter pf = Prefilter::Build(sigs);
  for (int trial = 0; trial < 500; ++trial) {
    std::string payload = RandomPayload(&rng, 300);
    if (trial % 2 == 0) {
      size_t s = rng.UniformInt(sigs.size());
      size_t pos = rng.UniformInt(payload.size() + 1);
      payload.insert(pos, sigs[s][0]);
    }
    for (Mode mode : AllModes()) {
      ScanScratch scratch;
      pf.Scan(payload, &scratch, mode);
      for (size_t s = 0; s < sigs.size(); ++s) {
        if (payload.find(pf.selected_token(s)) != std::string::npos) {
          ASSERT_TRUE(Prefilter::IsCandidate(scratch, s))
              << "mode " << static_cast<int>(mode) << " dropped sig " << s
              << " on trial " << trial;
        }
      }
    }
  }
}

TEST(PrefilterTableTest, BucketOverflowChainIsFollowed) {
  // Brute-force >16 distinct windows that all land in bucket 0 of the table
  // the builder will size for them, forcing the overflow chain. Windows are
  // 4-digit-ish ASCII tokens so the payload below stays printable.
  std::vector<std::string> tokens;
  uint32_t probe = 0;
  while (tokens.size() < 20 && probe < 200000000u) {
    ++probe;
    std::string tok = "w" + std::to_string(probe);
    if (tok.size() < 4) continue;
    uint32_t window;
    static_assert(sizeof(window) == 4);
    std::memcpy(&window, tok.data(), 4);
    // 20 windows -> want_buckets = ceil(40/16) = 3 -> 4 buckets, mask 3.
    if ((internal::HashWindow(window) & 3u) == 0) {
      tok += "-tail";
      tokens.push_back(tok);
    }
  }
  ASSERT_EQ(tokens.size(), 20u) << "hash changed? could not force collisions";

  SigTokens sigs;
  for (const std::string& tok : tokens) sigs.push_back({tok});
  Prefilter pf = Prefilter::Build(sigs);
  ASSERT_EQ(pf.num_buckets(), 4u);
  for (Mode mode : AllModes()) {
    SCOPED_TRACE(static_cast<int>(mode));
    for (size_t s = 0; s < sigs.size(); ++s) {
      ScanScratch scratch;
      EXPECT_TRUE(pf.Scan("pad|" + sigs[s][0] + "|pad", &scratch, mode));
      EXPECT_TRUE(Prefilter::IsCandidate(scratch, s)) << "sig " << s;
    }
  }
}

TEST(PrefilterTableTest, IntrospectionIsSane) {
  // Distinct first-4-byte windows ("abcd", "efgh"); "toke"-style shared
  // prefixes would collapse into one window (see SharedWindowMarksEvery).
  SigTokens sigs = {{"abcd-token"}, {"efgh-token"}, {"xy"}};
  Prefilter pf = Prefilter::Build(sigs);
  EXPECT_EQ(pf.num_signatures(), 3u);
  EXPECT_EQ(pf.num_windows(), 2u);
  EXPECT_EQ(pf.num_always_candidates(), 1u);
  EXPECT_GT(pf.table_bytes(), internal::kBloomBytes);
  EXPECT_GE(pf.num_buckets(), 4u);
}

}  // namespace
}  // namespace leakdet::prefilter
