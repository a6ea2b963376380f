#include "match/bayes_signature.h"

#include <gtest/gtest.h>

namespace leakdet::match {
namespace {

BayesSignature MakeSig(std::string id,
                       std::vector<std::pair<std::string, double>> tokens,
                       double threshold) {
  BayesSignature sig;
  sig.id = std::move(id);
  for (auto& [tok, w] : tokens) {
    sig.tokens.push_back(WeightedToken{tok, w});
  }
  sig.threshold = threshold;
  sig.cluster_size = 2;
  return sig;
}

TEST(BayesSignatureTest, ScoreSumsPresentTokens) {
  BayesSignature sig = MakeSig("b0", {{"alpha", 2.0}, {"beta", 1.5}}, 0);
  EXPECT_DOUBLE_EQ(sig.Score("alpha beta"), 3.5);
  EXPECT_DOUBLE_EQ(sig.Score("alpha only"), 2.0);
  EXPECT_DOUBLE_EQ(sig.Score("nothing here"), 0.0);
}

TEST(BayesSignatureTest, ThresholdGatesMatch) {
  BayesSignature sig = MakeSig("b0", {{"alpha", 2.0}, {"beta", 1.5}}, 3.0);
  EXPECT_TRUE(sig.Matches("alpha beta"));
  EXPECT_FALSE(sig.Matches("alpha"));       // 2.0 < 3.0
  EXPECT_FALSE(sig.Matches("beta"));        // 1.5 < 3.0
}

TEST(BayesSignatureTest, PartialMatchSurvivesDroppedField) {
  // The polymorphism property the paper's future work wants: dropping one
  // template field still fires the signature.
  BayesSignature sig = MakeSig(
      "b0", {{"&udid=9774d56d682e549c", 4.0}, {"GET /ad/fetch?", 1.0},
             {"&fmt=banner", 0.5}},
      4.5);
  EXPECT_TRUE(sig.Matches("GET /ad/fetch?x=1&udid=9774d56d682e549c"));
  // Reordered/missing boilerplate but identifier present: still above 4.5
  // only with the path token; identifier alone is not enough.
  EXPECT_FALSE(sig.Matches("&udid=9774d56d682e549c"));
  EXPECT_TRUE(
      sig.Matches("GET /ad/fetch?&fmt=banner&udid=9774d56d682e549c"));
}

TEST(BayesSignatureSetTest, MatchAndScores) {
  BayesSignatureSet set({MakeSig("b0", {{"xxtok", 2.0}}, 1.0),
                         MakeSig("b1", {{"yytok", 2.0}}, 1.0)});
  auto hits = set.Match("has xxtok only");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  auto scores = set.Scores("xxtok yytok");
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_DOUBLE_EQ(scores[0], 2.0);
  EXPECT_DOUBLE_EQ(scores[1], 2.0);
  EXPECT_TRUE(set.Matches("yytok"));
  EXPECT_FALSE(set.Matches("neither"));
}

TEST(BayesSignatureSetTest, SharedVocabularyAcrossSignatures) {
  BayesSignatureSet set({MakeSig("b0", {{"shared", 1.0}, {"only0", 1.0}}, 2.0),
                         MakeSig("b1", {{"shared", 3.0}}, 2.5)});
  auto hits = set.Match("shared");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);  // b1 scores 3.0 >= 2.5; b0 scores 1.0 < 2.0
}

TEST(BayesSignatureSetTest, EmptySet) {
  BayesSignatureSet set;
  EXPECT_FALSE(set.Matches("anything"));
  EXPECT_TRUE(set.Match("anything").empty());
}

TEST(BayesSignatureSetTest, CopyRebuildsIndex) {
  BayesSignatureSet original({MakeSig("b0", {{"token!", 2.0}}, 1.0)});
  BayesSignatureSet copy(original);
  EXPECT_TRUE(copy.Matches("a token! b"));
  original = copy;
  EXPECT_TRUE(original.Matches("a token! b"));
}

TEST(BayesSignatureSetTest, SerializeRoundTrip) {
  BayesSignatureSet original(
      {MakeSig("b0", {{"GET /track?", 1.25}, {std::string("\x00\x01", 2), 0.5}},
               1.75),
       MakeSig("b1", {{"&enc=4b43", 3.75}}, 3.0)});
  std::string text = original.Serialize();
  auto restored = BayesSignatureSet::Deserialize(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    const auto& a = original.signatures()[s];
    const auto& b = restored->signatures()[s];
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.threshold, b.threshold);
    ASSERT_EQ(a.tokens.size(), b.tokens.size());
    for (size_t t = 0; t < a.tokens.size(); ++t) {
      EXPECT_EQ(a.tokens[t].token, b.tokens[t].token);
      EXPECT_DOUBLE_EQ(a.tokens[t].weight, b.tokens[t].weight);
    }
  }
}

TEST(BayesSignatureSetTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(BayesSignatureSet::Deserialize("wrong header\n").ok());
  EXPECT_FALSE(BayesSignatureSet::Deserialize(
                   "leakdet-bayes-signatures v1\nsignature x\ntoken 1.0\nend\n")
                   .ok());  // token missing hex part
  EXPECT_FALSE(BayesSignatureSet::Deserialize(
                   "leakdet-bayes-signatures v1\nsignature x\n")
                   .ok());  // unterminated
}

TEST(BayesSignatureSetTest, DeserializeRejectsMalformedNumbers) {
  // A threshold that loaded as 0 would match every packet; NaN none.
  const std::string head = "leakdet-bayes-signatures v1\nsignature b0\n";
  auto ok = BayesSignatureSet::Deserialize(
      head + "threshold -1.5e-3\ntoken 2 616263\nend\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->signatures()[0].threshold, -1.5e-3);
  EXPECT_EQ(ok->signatures()[0].tokens[0].weight, 2.0);
  for (const char* bad : {"junk", "nan", "inf", "-inf", "1e999", "1.5x", ""}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(BayesSignatureSet::Deserialize(
                     head + "threshold " + bad + "\ntoken 2 616263\nend\n")
                     .ok());
    EXPECT_FALSE(BayesSignatureSet::Deserialize(
                     head + "threshold 1\ntoken " + bad + " 616263\nend\n")
                     .ok());
  }
}

TEST(BayesSignatureSetTest, DeserializeRejectsClusterSizeAbove32Bits) {
  const std::string head =
      "leakdet-bayes-signatures v1\nsignature b0\nthreshold 1\n";
  auto max = BayesSignatureSet::Deserialize(
      head + "cluster_size 4294967295\nend\n");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->signatures()[0].cluster_size, 4294967295u);
  EXPECT_FALSE(BayesSignatureSet::Deserialize(
                   head + "cluster_size 4294967297\nend\n")
                   .ok());
}

}  // namespace
}  // namespace leakdet::match
