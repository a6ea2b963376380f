#include "match/signature.h"

#include <gtest/gtest.h>

namespace leakdet::match {
namespace {

ConjunctionSignature MakeSig(std::string id, std::vector<std::string> tokens,
                             std::string host = "") {
  ConjunctionSignature sig;
  sig.id = std::move(id);
  sig.tokens = std::move(tokens);
  sig.host_scope = std::move(host);
  sig.cluster_size = 3;
  return sig;
}

TEST(SignatureSetTest, ConjunctionRequiresAllTokens) {
  SignatureSet set({MakeSig("s0", {"alpha", "beta"})});
  EXPECT_TRUE(set.Matches("xx alpha yy beta zz"));
  EXPECT_FALSE(set.Matches("xx alpha yy"));
  EXPECT_FALSE(set.Matches("beta only"));
  EXPECT_FALSE(set.Matches(""));
}

TEST(SignatureSetTest, MultipleSignaturesIndependent) {
  SignatureSet set({MakeSig("s0", {"aaa", "bbb"}), MakeSig("s1", {"ccc"})});
  auto hits = set.Match("ccc aaa");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
  hits = set.Match("aaa bbb ccc");
  EXPECT_EQ(hits.size(), 2u);
}

TEST(SignatureSetTest, SharedTokensAcrossSignatures) {
  SignatureSet set({MakeSig("s0", {"common", "only0"}),
                    MakeSig("s1", {"common", "only1"})});
  auto hits = set.Match("common only1");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
}

TEST(SignatureSetTest, HostScopeRestricts) {
  SignatureSet set({MakeSig("s0", {"token"}, "admob.com")});
  EXPECT_TRUE(set.Matches("token here", "admob.com"));
  EXPECT_FALSE(set.Matches("token here", "doubleclick.net"));
  // Empty host_domain disables scoping (caller opted out).
  EXPECT_TRUE(set.Matches("token here", ""));
}

TEST(SignatureSetTest, UnscopedSignatureMatchesAnyHost) {
  SignatureSet set({MakeSig("s0", {"token"})});
  EXPECT_TRUE(set.Matches("token", "anything.example"));
}

TEST(SignatureSetTest, EmptyTokenListNeverMatches) {
  SignatureSet set({MakeSig("s0", {})});
  EXPECT_FALSE(set.Matches("anything at all"));
}

TEST(SignatureSetTest, EmptySetMatchesNothing) {
  SignatureSet set;
  EXPECT_FALSE(set.Matches("whatever"));
  EXPECT_TRUE(set.empty());
}

TEST(SignatureSetTest, TokenMustMatchExactBytes) {
  SignatureSet set({MakeSig("s0", {"CaseSensitive"})});
  EXPECT_TRUE(set.Matches("xxCaseSensitivexx"));
  EXPECT_FALSE(set.Matches("xxcasesensitivexx"));
}

TEST(SignatureSetTest, SerializeDeserializeRoundTrip) {
  std::vector<ConjunctionSignature> sigs = {
      MakeSig("sig-0", {"GET /gampad/ads?", "&dc_uid=900150983cd2"},
              "doubleclick.net"),
      MakeSig("sig-1", {std::string("bin\x00\x01tok", 8)}),
  };
  sigs[1].cluster_size = 42;
  SignatureSet original(sigs);
  std::string text = original.Serialize();
  auto restored = SignatureSet::Deserialize(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ(restored->signatures()[0], sigs[0]);
  EXPECT_EQ(restored->signatures()[1], sigs[1]);
  // Restored set must behave identically.
  EXPECT_TRUE(restored->Matches("GET /gampad/ads?x&dc_uid=900150983cd2",
                                "doubleclick.net"));
}

TEST(SignatureSetTest, DeserializeRejectsBadHeader) {
  EXPECT_FALSE(SignatureSet::Deserialize("not-a-signature-file\n").ok());
  EXPECT_FALSE(SignatureSet::Deserialize("").ok());
}

TEST(SignatureSetTest, DeserializeRejectsUnterminatedBlock) {
  std::string text =
      "leakdet-signatures v1\n"
      "signature s0\n"
      "token 616263\n";
  EXPECT_FALSE(SignatureSet::Deserialize(text).ok());
}

TEST(SignatureSetTest, DeserializeRejectsBadTokenHex) {
  std::string text =
      "leakdet-signatures v1\n"
      "signature s0\n"
      "token zznothex\n"
      "end\n";
  EXPECT_FALSE(SignatureSet::Deserialize(text).ok());
}

TEST(SignatureSetTest, DeserializeEmptySetOk) {
  auto set = SignatureSet::Deserialize("leakdet-signatures v1\n");
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->empty());
}

TEST(SignatureSetTest, DeserializeRejectsClusterSizeAbove32Bits) {
  const std::string head =
      "leakdet-signatures v1\nsignature s0\ntoken 616263\n";
  auto max =
      SignatureSet::Deserialize(head + "cluster_size 4294967295\nend\n");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->signatures()[0].cluster_size, 4294967295u);
  EXPECT_FALSE(
      SignatureSet::Deserialize(head + "cluster_size 4294967297\nend\n").ok());
}

TEST(SignatureSetTest, FeedBlocksSkipBlankLinesAndRejectStrayLines) {
  auto blocks = ReadFeedBlocks(
      "hdr v1\n\nsignature a\n  x 1  \n\ny 2\nend\n\nsignature b\nend\n",
      "hdr v1");
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 2u);
  EXPECT_EQ((*blocks)[0].id, "a");
  EXPECT_EQ((*blocks)[0].lines,
            (std::vector<std::string_view>{"x 1", "y 2"}));
  EXPECT_EQ((*blocks)[1].id, "b");
  EXPECT_TRUE((*blocks)[1].lines.empty());
  EXPECT_FALSE(ReadFeedBlocks("other v1\n", "hdr v1").ok());
  EXPECT_FALSE(ReadFeedBlocks("hdr v1\nend\n", "hdr v1").ok());
  EXPECT_FALSE(ReadFeedBlocks("hdr v1\nsignature a\nx 1\n", "hdr v1").ok());
}

TEST(SignatureSetTest, MatchIsOneScanRegardlessOfSignatureCount) {
  // Smoke-check the shared-automaton path with many signatures.
  std::vector<ConjunctionSignature> sigs;
  for (int i = 0; i < 200; ++i) {
    // The '.' terminator keeps one token from being a prefix of another
    // (token-77 would otherwise contain token-7).
    sigs.push_back(MakeSig("sig-" + std::to_string(i),
                           {"unique-token-" + std::to_string(i) + ".",
                            "shared"}));
  }
  SignatureSet set(sigs);
  auto hits = set.Match("shared unique-token-77. unique-token-142.");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 77u);
  EXPECT_EQ(hits[1], 142u);
}

}  // namespace
}  // namespace leakdet::match
