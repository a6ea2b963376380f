// Differential tests of the flat-edge suffix automaton and the token
// extractor built on it, against brute force: substring membership, the
// longest common substring, and the maximal invariant tokens of a sample
// set. Run over a 3-letter alphabet (deep automata, many clones) and over
// all 256 byte values (wide fan-out, and narrow trials of NUL, 0xFF and two
// random bytes).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "test_seed.h"
#include "text/suffix_automaton.h"
#include "text/token_extract.h"
#include "util/rng.h"

namespace leakdet::text {
namespace {

const std::string kAbc = "abc";

std::string AllBytes() {
  std::string s;
  for (int c = 0; c < 256; ++c) s += static_cast<char>(c);
  return s;
}

/// The alphabet of one trial. Over all 256 bytes, odd trials draw from
/// NUL, 0xFF and two random bytes instead, so strings repeat and the
/// automaton clones states whose edges carry those labels.
std::string TrialAlphabet(const std::string& alphabet, int trial, Rng* rng) {
  if (alphabet.size() < 256 || trial % 2 == 0) return alphabet;
  std::string narrow = std::string(1, '\0') + std::string(1, '\xff');
  for (int i = 0; i < 2; ++i) {
    narrow += static_cast<char>(rng->UniformInt(256));
  }
  return narrow;
}

size_t BruteLcsLength(const std::string& a, const std::string& b) {
  size_t best = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      size_t len = 0;
      while (i + len < a.size() && j + len < b.size() &&
             a[i + len] == b[j + len]) {
        ++len;
      }
      best = std::max(best, len);
    }
  }
  return best;
}

/// ExtractInvariantTokens by definition: every common substring of length
/// >= min_token_len that no other common substring contains, longest first
/// then bytewise, capped at max_tokens.
std::vector<std::string> BruteInvariantTokens(
    const std::vector<std::string>& samples,
    const TokenExtractOptions& options) {
  if (samples.empty()) return {};
  for (const std::string& s : samples) {
    if (s.empty()) return {};
  }
  const std::string& base = samples[0];
  std::set<std::string> common;
  for (size_t i = 0; i <= base.size(); ++i) {
    for (size_t len = options.min_token_len; i + len <= base.size(); ++len) {
      std::string sub = base.substr(i, len);
      bool everywhere = true;
      for (const std::string& s : samples) {
        if (s.find(sub) == std::string::npos) everywhere = false;
      }
      if (everywhere) common.insert(sub);
    }
  }
  std::vector<std::string> maximal;
  for (const std::string& tok : common) {
    bool contained = false;
    for (const std::string& other : common) {
      if (other.size() > tok.size() &&
          other.find(tok) != std::string::npos) {
        contained = true;
        break;
      }
    }
    if (!contained) maximal.push_back(tok);
  }
  std::sort(maximal.begin(), maximal.end(),
            [](const std::string& a, const std::string& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  if (options.max_tokens != 0 && maximal.size() > options.max_tokens) {
    maximal.resize(options.max_tokens);
  }
  return maximal;
}

/// A random string over `alphabet`, with a chunk of `shared` spliced in
/// half the time so samples have common substrings over large alphabets.
std::string Sample(Rng* rng, const std::string& alphabet,
                   const std::string& shared, size_t max_len) {
  std::string s = rng->RandomString(rng->UniformInt(max_len + 1), alphabet);
  if (!shared.empty() && rng->Bernoulli(0.5)) {
    size_t begin = rng->UniformInt(shared.size());
    size_t len = 1 + rng->UniformInt(shared.size() - begin);
    s.insert(rng->UniformInt(s.size() + 1), shared.substr(begin, len));
  }
  return s;
}

void CheckAutomaton(const std::string& alphabet, uint64_t default_seed) {
  const uint64_t seed = testing::TestSeed(default_seed);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 150; ++trial) {
    const std::string letters = TrialAlphabet(alphabet, trial, &rng);
    const std::string shared = rng.RandomString(12, letters);
    const std::string s = Sample(&rng, letters, shared, 40);
    SuffixAutomaton sam(s);
    ASSERT_EQ(sam.source(), s);
    // Every substring is recognized, and probes are recognized iff they
    // occur.
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t len = 1; i + len <= s.size(); ++len) {
        ASSERT_TRUE(sam.ContainsSubstring(s.substr(i, len))) << "trial "
                                                             << trial;
      }
    }
    for (int probe = 0; probe < 40; ++probe) {
      std::string t = Sample(&rng, letters, s, 6);
      ASSERT_EQ(sam.ContainsSubstring(t), s.find(t) != std::string::npos)
          << "trial " << trial;
    }
    for (int other = 0; other < 5; ++other) {
      std::string t = Sample(&rng, letters, shared, 40);
      SuffixAutomaton::LcsResult r = sam.LongestCommonSubstring(t);
      ASSERT_EQ(r.length, BruteLcsLength(s, t)) << "trial " << trial;
      ASSERT_LE(r.length, r.end_in_other);
      ASSERT_NE(s.find(t.substr(r.end_in_other - r.length, r.length)),
                std::string::npos);
      EXPECT_EQ(LongestCommonSubstring(s, t).size(), r.length);
    }
  }
}

void CheckTokens(const std::string& alphabet, uint64_t default_seed) {
  const uint64_t seed = testing::TestSeed(default_seed);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string letters = TrialAlphabet(alphabet, trial, &rng);
    const std::string shared = rng.RandomString(16, letters);
    std::vector<std::string> samples;
    size_t count = 1 + rng.UniformInt(4);
    for (size_t i = 0; i < count; ++i) {
      samples.push_back(Sample(&rng, letters, shared, 24));
    }
    TokenExtractOptions options;
    options.min_token_len = rng.UniformInt(4);
    options.max_tokens = rng.UniformInt(5);
    ASSERT_EQ(ExtractInvariantTokens(samples, options),
              BruteInvariantTokens(samples, options))
        << "trial " << trial << " min_len " << options.min_token_len
        << " max_tokens " << options.max_tokens;
  }
}

TEST(SuffixAutomatonDifferentialTest, ThreeLetterAlphabet) {
  CheckAutomaton(kAbc, 3101);
}

TEST(SuffixAutomatonDifferentialTest, AllByteValues) {
  CheckAutomaton(AllBytes(), 3102);
}

TEST(TokenExtractDifferentialTest, ThreeLetterAlphabet) {
  CheckTokens(kAbc, 3103);
}

TEST(TokenExtractDifferentialTest, AllByteValues) {
  CheckTokens(AllBytes(), 3104);
}

}  // namespace
}  // namespace leakdet::text
