#include "core/siggen_bayes.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "util/rng.h"

namespace leakdet::core {
namespace {

HttpPacket AdPacket(const std::string& rline) {
  HttpPacket p;
  p.destination.host = "ads.poly-net.com";
  p.destination.ip = *net::Ipv4Address::Parse("21.4.5.6");
  p.destination.port = 80;
  p.request_line = rline;
  return p;
}

/// Cluster whose members share an identifier but only *most* share each
/// template field (polymorphic module).
std::vector<HttpPacket> PolymorphicCluster() {
  return {
      AdPacket("GET /poly/get?k=a1&udid=9774d56d682e549c&fmt=banner&r=1 "
               "HTTP/1.1"),
      AdPacket("GET /poly/get?k=b2&udid=9774d56d682e549c&fmt=banner&r=2 "
               "HTTP/1.1"),
      AdPacket("GET /poly/get?udid=9774d56d682e549c&k=c3&r=3 HTTP/1.1"),
      AdPacket("GET /poly/get?k=d4&udid=9774d56d682e549c&fmt=banner&r=4 "
               "HTTP/1.1"),
  };
}

TEST(BayesSiggenTest, GeneratesWeightedSignature) {
  std::vector<HttpPacket> packets = PolymorphicCluster();
  BayesSignatureGenerator gen;
  auto set = gen.Generate(packets, {{0, 1, 2, 3}}, {});
  ASSERT_EQ(set.size(), 1u);
  const auto& sig = set.signatures()[0];
  EXPECT_FALSE(sig.tokens.empty());
  EXPECT_GT(sig.threshold, 0.0);
  for (const auto& wt : sig.tokens) EXPECT_GT(wt.weight, 0.0);
}

TEST(BayesSiggenTest, MatchesAllTrainingMembers) {
  std::vector<HttpPacket> packets = PolymorphicCluster();
  BayesSignatureGenerator gen;
  auto set = gen.Generate(packets, {{0, 1, 2, 3}}, {});
  ASSERT_EQ(set.size(), 1u);
  BayesDetector detector(std::move(set));
  for (const HttpPacket& p : packets) {
    EXPECT_TRUE(detector.IsSensitive(p));
  }
}

TEST(BayesSiggenTest, DetectsPolymorphicVariantConjunctionMisses) {
  std::vector<HttpPacket> packets = PolymorphicCluster();
  // Normal corpus containing the bare template: discriminative weighting
  // needs to see that the boilerplate also occurs in benign traffic.
  std::vector<std::string> corpus;
  for (int i = 0; i < 100; ++i) {
    corpus.push_back("GET /poly/get?k=n" + std::to_string(i) +
                     "&fmt=banner&r=0 HTTP/1.1\n\n");
  }
  // Bayes: majority tokens with weights.
  BayesSignatureGenerator bayes_gen;
  auto bayes = bayes_gen.Generate(packets, {{0, 1, 2, 3}}, corpus);
  BayesDetector bayes_detector(std::move(bayes));

  // A variant that keeps the identifier and path but drops "fmt" and
  // reorders fields — polymorphic leakage.
  HttpPacket variant = AdPacket(
      "GET /poly/get?r=9&udid=9774d56d682e549c&k=z9 HTTP/1.1");
  EXPECT_TRUE(bayes_detector.IsSensitive(variant));
  // Benign request to the same module (no identifier) stays clean.
  HttpPacket clean = AdPacket("GET /poly/get?k=z9&fmt=banner&r=9 HTTP/1.1");
  EXPECT_FALSE(bayes_detector.IsSensitive(clean));
}

TEST(BayesSiggenTest, NormalCorpusRaisesThreshold) {
  std::vector<HttpPacket> packets = PolymorphicCluster();
  // Corpus full of documents containing the template (but not the id).
  std::vector<std::string> corpus;
  for (int i = 0; i < 200; ++i) {
    corpus.push_back("GET /poly/get?k=x" + std::to_string(i) +
                     "&fmt=banner&r=7 HTTP/1.1\n\n");
  }
  BayesSignatureGenerator gen;
  auto set = gen.Generate(packets, {{0, 1, 2, 3}}, corpus);
  ASSERT_EQ(set.size(), 1u);
  // No corpus document may reach the threshold.
  size_t fp = 0;
  for (const std::string& doc : corpus) {
    if (set.signatures()[0].Score(doc) >= set.signatures()[0].threshold) ++fp;
  }
  EXPECT_EQ(fp, 0u);
  // Training members still match.
  BayesDetector detector(std::move(set));
  for (const HttpPacket& p : packets) EXPECT_TRUE(detector.IsSensitive(p));
}

TEST(BayesSiggenTest, MinClusterSizeRespected) {
  BayesSiggenOptions opts;
  opts.min_cluster_size = 3;
  BayesSignatureGenerator gen(opts);
  std::vector<HttpPacket> packets = PolymorphicCluster();
  auto set = gen.Generate(packets, {{0, 1}}, {});
  EXPECT_EQ(set.size(), 0u);
}

TEST(BayesSiggenTest, TokenCapRespected) {
  BayesSiggenOptions opts;
  opts.max_tokens_per_signature = 3;
  BayesSignatureGenerator gen(opts);
  auto set = gen.Generate(PolymorphicCluster(), {{0, 1, 2, 3}}, {});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_LE(set.signatures()[0].tokens.size(), 3u);
}

TEST(RunBayesPipelineTest, EndToEnd) {
  Rng rng(5);
  std::vector<HttpPacket> suspicious;
  for (int i = 0; i < 30; ++i) {
    suspicious.push_back(
        AdPacket("GET /poly/get?k=" + rng.RandomHex(4) +
                 "&udid=9774d56d682e549c&r=" + rng.RandomHex(6) +
                 " HTTP/1.1"));
  }
  std::vector<HttpPacket> normal;
  for (int i = 0; i < 100; ++i) {
    normal.push_back(AdPacket("GET /other/page?q=" + rng.RandomHex(8) +
                              " HTTP/1.1"));
  }
  PipelineOptions options;
  options.sample_size = 15;
  auto clustering = RunClustering(suspicious, normal, options);
  ASSERT_TRUE(clustering.ok());
  match::BayesSignatureSet signatures = BayesSignatureGenerator().Generate(
      clustering->sample, clustering->clusters, clustering->normal_corpus);
  ASSERT_GE(signatures.size(), 1u);
  BayesDetector detector(std::move(signatures));
  size_t detected = 0;
  for (const HttpPacket& p : suspicious) {
    if (detector.IsSensitive(p)) ++detected;
  }
  EXPECT_GT(detected, suspicious.size() * 9 / 10);
  for (const HttpPacket& p : normal) {
    EXPECT_FALSE(detector.IsSensitive(p));
  }
}

}  // namespace
}  // namespace leakdet::core
