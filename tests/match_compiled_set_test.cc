#include "match/compiled_set.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "match/signature.h"
#include "util/rng.h"

namespace leakdet::match {
namespace {

ConjunctionSignature Sig(const std::string& id,
                         std::vector<std::string> tokens,
                         const std::string& host_scope = "") {
  ConjunctionSignature sig;
  sig.id = id;
  sig.tokens = std::move(tokens);
  sig.host_scope = host_scope;
  return sig;
}

TEST(CompiledSignatureSetTest, EmptySetMatchesNothing) {
  CompiledSignatureSet compiled{SignatureSet(), 1};
  MatchScratch scratch;
  EXPECT_EQ(compiled.MatchInto("anything at all", {}, &scratch), 0u);
  EXPECT_FALSE(compiled.Matches("anything", {}, &scratch));
  EXPECT_EQ(compiled.version(), 1u);
}

TEST(CompiledSignatureSetTest, ConjunctionRequiresEveryToken) {
  CompiledSignatureSet compiled{
      SignatureSet({Sig("sig-0", {"udid=abc", "model=NexusS"})}), 3};
  MatchScratch scratch;
  EXPECT_TRUE(compiled.Matches("x udid=abc y model=NexusS z", {}, &scratch));
  EXPECT_FALSE(compiled.Matches("x udid=abc y", {}, &scratch));
  EXPECT_FALSE(compiled.Matches("model=NexusS", {}, &scratch));
  EXPECT_EQ(compiled.version(), 3u);
}

TEST(CompiledSignatureSetTest, HostScopeEnforcedLikeSignatureSet) {
  SignatureSet set({Sig("sig-0", {"token"}, "ads.example")});
  CompiledSignatureSet compiled{set, 1};
  MatchScratch scratch;
  // Same contract as SignatureSet::Match: scope enforced when a domain is
  // passed, skipped when the caller passes "".
  EXPECT_TRUE(compiled.Matches("token", "ads.example", &scratch));
  EXPECT_FALSE(compiled.Matches("token", "other.example", &scratch));
  EXPECT_TRUE(compiled.Matches("token", "", &scratch));
}

TEST(CompiledSignatureSetTest, HitsReportSignatureIndices) {
  SignatureSet set({Sig("sig-0", {"aaa"}), Sig("sig-1", {"bbb"}),
                    Sig("sig-2", {"aaa", "bbb"})});
  CompiledSignatureSet compiled{set, 1};
  MatchScratch scratch;
  ASSERT_EQ(compiled.MatchInto("xx aaa yy bbb", {}, &scratch), 3u);
  EXPECT_EQ(scratch.hits, (std::vector<size_t>{0, 1, 2}));
  ASSERT_EQ(compiled.MatchInto("xx bbb", {}, &scratch), 1u);
  EXPECT_EQ(scratch.hits, (std::vector<size_t>{1}));
}

TEST(CompiledSignatureSetTest, OverlappingTokensAllDetected) {
  // Tokens that are substrings / share prefixes exercise the output
  // closures of the flattened DFA (fail-chain outputs must be preserved).
  SignatureSet set({Sig("sig-0", {"abcd"}), Sig("sig-1", {"bcd"}),
                    Sig("sig-2", {"cd", "ab"})});
  CompiledSignatureSet compiled{set, 1};
  MatchScratch scratch;
  ASSERT_EQ(compiled.MatchInto("xx abcd yy", {}, &scratch), 3u);
}

TEST(CompiledSignatureSetTest, RandomizedEquivalenceWithSignatureSet) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ConjunctionSignature> sigs;
    size_t num_sigs = 1 + rng.UniformInt(12);
    for (size_t s = 0; s < num_sigs; ++s) {
      ConjunctionSignature sig;
      sig.id = "sig-" + std::to_string(s);
      size_t num_tokens = 1 + rng.UniformInt(4);
      for (size_t t = 0; t < num_tokens; ++t) {
        sig.tokens.push_back(rng.RandomString(1 + rng.UniformInt(6), "abcx=&"));
      }
      if (rng.Bernoulli(0.3)) sig.host_scope = "scoped.example";
      sigs.push_back(std::move(sig));
    }
    SignatureSet set(sigs);
    CompiledSignatureSet compiled{set, static_cast<uint64_t>(trial + 1)};
    MatchScratch scratch;
    for (int probe = 0; probe < 200; ++probe) {
      std::string content = rng.RandomString(rng.UniformInt(80), "abcx=& ");
      std::string domain = rng.Bernoulli(0.5) ? "scoped.example" : "";
      std::vector<size_t> expected = set.Match(content, domain);
      compiled.MatchInto(content, domain, &scratch);
      EXPECT_EQ(scratch.hits, expected)
          << "trial=" << trial << " content=" << content
          << " domain=" << domain;
    }
  }
}

TEST(CompiledSignatureSetTest, ReportsCompilationStats) {
  SignatureSet set({Sig("sig-0", {"hello", "world"})});
  CompiledSignatureSet compiled{set, 1};
  EXPECT_EQ(compiled.num_signatures(), 1u);
  EXPECT_EQ(compiled.num_tokens(), 2u);
  // Root + one state per pattern byte (no shared prefixes here).
  EXPECT_EQ(compiled.num_states(), 11u);
  EXPECT_GT(compiled.table_bytes(), compiled.num_states() * 256 * 4 - 1);
}

// Every entry of the row-inherited table against the fail-chain walk.
TEST(CompiledSignatureSetTest, EveryTableEntryEqualsStep) {
  Rng rng(103);
  const std::string binary("ab\0\xff", 4);
  const std::string wide = "abcdefghijklmnopqrstu=&" + binary;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<ConjunctionSignature> sigs;
    size_t num_sigs = 1 + rng.UniformInt(10);
    for (size_t s = 0; s < num_sigs; ++s) {
      std::vector<std::string> tokens;
      size_t num_tokens = 1 + rng.UniformInt(4);
      for (size_t t = 0; t < num_tokens; ++t) {
        tokens.push_back(rng.RandomString(1 + rng.UniformInt(7),
                                          trial % 2 == 0 ? binary : wide));
      }
      sigs.push_back(Sig("sig-" + std::to_string(s), std::move(tokens)));
    }
    SignatureSet set(sigs);
    const AhoCorasick& automaton = *set.automaton();
    std::vector<int32_t> table = automaton.DenseTransitions();
    ASSERT_EQ(table.size(), automaton.num_nodes() * 256);
    for (size_t u = 0; u < automaton.num_nodes(); ++u) {
      for (int c = 0; c < 256; ++c) {
        ASSERT_EQ(table[u * 256 + static_cast<size_t>(c)],
                  automaton.Step(static_cast<int32_t>(u),
                                 static_cast<uint8_t>(c)))
            << "trial " << trial << " state " << u << " byte " << c;
      }
    }
    CompiledSignatureSet compiled{set, 1};
    EXPECT_EQ(compiled.num_states(), automaton.num_nodes());
  }
}

// A fixed feed's compiled footprint and transition function, pinned: a
// change of trie layout or table construction must not change either.
TEST(CompiledSignatureSetTest, PinnedFootprintOfFixedFeed) {
  SignatureSet set({Sig("sig-0", {"imei=", "udid=3520"}),
                    Sig("sig-1", {"android_id=", "imei="}, "ads.example"),
                    Sig("sig-2", {"GET /gampad/ads?", "dc_uid="}),
                    Sig("sig-3", {"carrier=docomo", "model=NexusS"}),
                    Sig("sig-4", {"id=", "uid=", "d="})});
  CompiledSignatureSet compiled{set, 1};
  EXPECT_EQ(compiled.num_states(), 81u);
  EXPECT_EQ(compiled.table_bytes(), 83352u);
  // FNV-1a over Step(s, c) for every state and byte, in table order.
  uint64_t digest = 0xcbf29ce484222325u;
  const AhoCorasick& automaton = *set.automaton();
  for (size_t u = 0; u < automaton.num_nodes(); ++u) {
    for (int c = 0; c < 256; ++c) {
      digest ^= static_cast<uint32_t>(
          automaton.Step(static_cast<int32_t>(u), static_cast<uint8_t>(c)));
      digest *= 0x100000001b3u;
    }
  }
  EXPECT_EQ(digest, uint64_t{5400404328918103691u});
}

}  // namespace
}  // namespace leakdet::match
