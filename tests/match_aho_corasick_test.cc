#include "match/aho_corasick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace leakdet::match {
namespace {

TEST(AhoCorasickTest, FindsSinglePattern) {
  AhoCorasick ac({"needle"});
  auto matches = ac.FindAll("hay needle hay needle");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].pattern, 0u);
  EXPECT_EQ(matches[0].end, 10u);
  EXPECT_EQ(matches[1].end, 21u);
}

TEST(AhoCorasickTest, OverlappingPatternsAllReported) {
  AhoCorasick ac({"he", "she", "hers", "his"});
  auto matches = ac.FindAll("ushers");
  std::set<std::pair<uint32_t, size_t>> got;
  for (auto m : matches) got.insert({m.pattern, m.end});
  // "she" ends at 4, "he" ends at 4, "hers" ends at 6.
  EXPECT_TRUE(got.count({1, 4}));
  EXPECT_TRUE(got.count({0, 4}));
  EXPECT_TRUE(got.count({2, 6}));
  EXPECT_EQ(matches.size(), 3u);
}

TEST(AhoCorasickTest, PatternInsidePattern) {
  AhoCorasick ac({"abcd", "bc"});
  auto matches = ac.FindAll("abcd");
  std::set<uint32_t> patterns;
  for (auto m : matches) patterns.insert(m.pattern);
  EXPECT_TRUE(patterns.count(0));
  EXPECT_TRUE(patterns.count(1));
}

TEST(AhoCorasickTest, DuplicatePatternsShareMatches) {
  AhoCorasick ac({"dup", "dup"});
  auto matches = ac.FindAll("dup");
  // Both ids end at the same node; both are reported.
  EXPECT_EQ(matches.size(), 2u);
}

TEST(AhoCorasickTest, EmptyPatternsIgnored) {
  AhoCorasick ac({"", "x"});
  EXPECT_EQ(ac.num_patterns(), 2u);
  auto matches = ac.FindAll("xx");
  for (auto m : matches) EXPECT_EQ(m.pattern, 1u);
  EXPECT_EQ(matches.size(), 2u);
}

TEST(AhoCorasickTest, NoPatterns) {
  AhoCorasick ac({});
  EXPECT_TRUE(ac.FindAll("anything").empty());
  EXPECT_FALSE(ac.AnyMatch("anything"));
}

TEST(AhoCorasickTest, MarkPresent) {
  AhoCorasick ac({"imei=", "android_id=", "carrier="});
  std::vector<bool> seen(3, false);
  ac.MarkPresent("GET /x?imei=3520&carrier=docomo HTTP/1.1", &seen);
  EXPECT_TRUE(seen[0]);
  EXPECT_FALSE(seen[1]);
  EXPECT_TRUE(seen[2]);
}

TEST(AhoCorasickTest, AnyMatchEarlyOut) {
  AhoCorasick ac({"zzz"});
  EXPECT_TRUE(ac.AnyMatch("aaazzzbbb"));
  EXPECT_FALSE(ac.AnyMatch("aaabbbccc"));
  EXPECT_FALSE(ac.AnyMatch(""));
}

TEST(AhoCorasickTest, AnyMatchViaReportChain) {
  // Match that only surfaces through the report (suffix) chain.
  AhoCorasick ac({"bc"});
  EXPECT_TRUE(ac.AnyMatch("abcd"));
}

TEST(AhoCorasickTest, BinaryPatterns) {
  std::string p1("\x00\x01", 2);
  std::string p2("\xff\xfe\xfd", 3);
  AhoCorasick ac({p1, p2});
  std::string text = "x" + p1 + "y" + p2;
  auto matches = ac.FindAll(text);
  EXPECT_EQ(matches.size(), 2u);
}

// Brute-force differential test.
TEST(AhoCorasickTest, MatchesBruteForceOnRandomInput) {
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::string> patterns;
    size_t np = 1 + rng.UniformInt(8);
    for (size_t i = 0; i < np; ++i) {
      patterns.push_back(rng.RandomString(1 + rng.UniformInt(5), "ab"));
    }
    std::string text = rng.RandomString(200, "ab");
    AhoCorasick ac(patterns);
    auto matches = ac.FindAll(text);
    std::multiset<std::pair<uint32_t, size_t>> got;
    for (auto m : matches) got.insert({m.pattern, m.end});
    std::multiset<std::pair<uint32_t, size_t>> expected;
    for (uint32_t p = 0; p < patterns.size(); ++p) {
      size_t pos = text.find(patterns[p]);
      while (pos != std::string::npos) {
        expected.insert({p, pos + patterns[p].size()});
        pos = text.find(patterns[p], pos + 1);
      }
    }
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(AhoCorasickTest, ManyPatternsScale) {
  Rng rng(23);
  std::vector<std::string> patterns;
  for (int i = 0; i < 500; ++i) {
    patterns.push_back("tok-" + std::to_string(i) + "-" + rng.RandomHex(6));
  }
  AhoCorasick ac(patterns);
  std::string text = "prefix " + patterns[123] + " infix " + patterns[499];
  std::vector<bool> seen(patterns.size(), false);
  ac.MarkPresent(text, &seen);
  EXPECT_TRUE(seen[123]);
  EXPECT_TRUE(seen[499]);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 2);
}

// The flat automaton against a naive substring oracle on random pattern
// sets: duplicates, empty patterns, overlaps, the bytes 0x00 and 0xFF, and
// alphabets wide enough that nodes have more edges than the short linear
// scan covers.
TEST(AhoCorasickTest, CsrAutomatonMatchesNaiveOracle) {
  Rng rng(41);
  const std::string binary("ab\0\xff", 4);
  const std::string wide = "abcdefghijklmnopqrstu=&" + binary;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string& alphabet = trial % 2 == 0 ? binary : wide;
    std::vector<std::string> patterns;
    size_t np = 1 + rng.UniformInt(30);
    for (size_t i = 0; i < np; ++i) {
      if (rng.Bernoulli(0.1)) {
        patterns.push_back("");
      } else if (!patterns.empty() && rng.Bernoulli(0.15)) {
        patterns.push_back(patterns[rng.UniformInt(patterns.size())]);
      } else {
        patterns.push_back(rng.RandomString(1 + rng.UniformInt(6), alphabet));
      }
    }
    AhoCorasick ac(patterns);
    for (int probe = 0; probe < 10; ++probe) {
      std::string text = rng.RandomString(rng.UniformInt(120), alphabet);
      std::multiset<std::pair<uint32_t, size_t>> expected;
      std::vector<bool> expected_seen(patterns.size(), false);
      for (uint32_t p = 0; p < patterns.size(); ++p) {
        if (patterns[p].empty()) continue;
        for (size_t pos = text.find(patterns[p]); pos != std::string::npos;
             pos = text.find(patterns[p], pos + 1)) {
          expected.insert({p, pos + patterns[p].size()});
          expected_seen[p] = true;
        }
      }
      std::multiset<std::pair<uint32_t, size_t>> got;
      for (auto m : ac.FindAll(text)) got.insert({m.pattern, m.end});
      EXPECT_EQ(got, expected) << "trial " << trial << " probe " << probe;
      std::vector<bool> seen(patterns.size(), false);
      ac.MarkPresent(text, &seen);
      EXPECT_EQ(seen, expected_seen) << "trial " << trial;
      EXPECT_EQ(ac.AnyMatch(text), !expected.empty()) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace leakdet::match
