// Differential tests of the signature generator's corpus screen: Generate
// (one Aho–Corasick pass over the normal corpus, core::CorpusScreen) against
// the per-token `std::string::find` screen it replaced, kept here as the
// oracle. Every signature and every SiggenClusterReport must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/corpus_screen.h"
#include "core/siggen.h"
#include "net/host.h"
#include "test_seed.h"
#include "text/token_extract.h"
#include "util/rng.h"

namespace leakdet::core {
namespace {

// --- The oracle: the screen as one `find` per token per document ----------

double OracleDocumentFrequency(const std::string& token,
                               const std::vector<std::string>& corpus) {
  if (corpus.empty()) return 0.0;
  size_t hits = 0;
  for (const std::string& doc : corpus) {
    if (doc.find(token) != std::string::npos) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(corpus.size());
}

double OracleConjunctionFrequency(const std::vector<std::string>& tokens,
                                  const std::vector<std::string>& corpus) {
  if (corpus.empty() || tokens.empty()) return 0.0;
  size_t hits = 0;
  for (const std::string& doc : corpus) {
    bool all = true;
    for (const std::string& t : tokens) {
      if (doc.find(t) == std::string::npos) {
        all = false;
        break;
      }
    }
    if (all) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(corpus.size());
}

match::SignatureSet OracleGenerate(
    const SiggenOptions& options, const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus,
    std::vector<SiggenClusterReport>* reports) {
  std::vector<match::ConjunctionSignature> signatures;
  for (size_t c = 0; c < clusters.size(); ++c) {
    SiggenClusterReport report;
    report.cluster_index = c;
    report.cluster_size = clusters[c].size();
    if (clusters[c].size() < options.min_cluster_size) {
      report.reject_reason = "cluster below min_cluster_size";
      reports->push_back(report);
      continue;
    }
    std::vector<std::string> contents;
    for (int32_t idx : clusters[c]) {
      contents.push_back(PacketContent(packets[static_cast<size_t>(idx)]));
    }
    text::TokenExtractOptions tex;
    tex.min_token_len = options.min_token_len;
    tex.max_tokens = options.max_tokens_per_signature * 4;
    std::vector<std::string> tokens =
        text::ExtractInvariantTokens(contents, tex);
    report.raw_tokens = tokens.size();
    std::vector<std::string> kept;
    for (std::string& tok : tokens) {
      if (OracleDocumentFrequency(tok, normal_corpus) <=
          options.max_token_normal_df) {
        kept.push_back(std::move(tok));
      }
      if (kept.size() >= options.max_tokens_per_signature) break;
    }
    report.kept_tokens = kept.size();
    if (kept.empty()) {
      report.reject_reason = "no tokens survived screening";
      reports->push_back(report);
      continue;
    }
    if (OracleConjunctionFrequency(kept, normal_corpus) >
        options.max_signature_normal_fp) {
      report.reject_reason = "signature matches normal corpus";
      reports->push_back(report);
      continue;
    }
    match::ConjunctionSignature sig;
    sig.id = "sig-" + std::to_string(signatures.size());
    sig.tokens = std::move(kept);
    sig.cluster_size = static_cast<uint32_t>(clusters[c].size());
    if (options.scope_by_host) {
      std::string domain = net::RegistrableDomain(
          packets[static_cast<size_t>(clusters[c][0])].destination.host);
      bool unanimous = true;
      for (int32_t idx : clusters[c]) {
        if (net::RegistrableDomain(
                packets[static_cast<size_t>(idx)].destination.host) !=
            domain) {
          unanimous = false;
          break;
        }
      }
      if (unanimous) sig.host_scope = domain;
    }
    signatures.push_back(std::move(sig));
    report.emitted = true;
    reports->push_back(report);
  }
  return match::SignatureSet(std::move(signatures));
}

// --- Comparison ------------------------------------------------------------

void ExpectSameAsOracle(const SiggenOptions& options,
                        const std::vector<HttpPacket>& packets,
                        const std::vector<std::vector<int32_t>>& clusters,
                        const std::vector<std::string>& corpus) {
  std::vector<SiggenClusterReport> want_reports;
  match::SignatureSet want =
      OracleGenerate(options, packets, clusters, corpus, &want_reports);
  std::vector<SiggenClusterReport> got_reports;
  match::SignatureSet got = SignatureGenerator(options).Generate(
      packets, clusters, corpus, &got_reports);
  EXPECT_EQ(got.signatures(), want.signatures());
  ASSERT_EQ(got_reports.size(), want_reports.size());
  for (size_t i = 0; i < got_reports.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    EXPECT_EQ(got_reports[i].cluster_index, want_reports[i].cluster_index);
    EXPECT_EQ(got_reports[i].cluster_size, want_reports[i].cluster_size);
    EXPECT_EQ(got_reports[i].raw_tokens, want_reports[i].raw_tokens);
    EXPECT_EQ(got_reports[i].kept_tokens, want_reports[i].kept_tokens);
    EXPECT_EQ(got_reports[i].emitted, want_reports[i].emitted);
    EXPECT_EQ(got_reports[i].reject_reason, want_reports[i].reject_reason);
  }
}

HttpPacket Packet(std::string rline, std::string cookie = "",
                  std::string body = "", std::string host = "a.example") {
  HttpPacket p;
  p.destination.host = std::move(host);
  p.request_line = std::move(rline);
  p.cookie = std::move(cookie);
  p.body = std::move(body);
  return p;
}

// Bytes that stress the scan: separators, NUL and 0xFF next to ASCII.
const std::string kAlphabet = std::string("ab\n", 3) + std::string(1, '\0') +
                              std::string(1, '\xff') + "c=";

std::string Mutate(const std::string& s, Rng* rng) {
  std::string out = s;
  size_t edits = rng->UniformInt(3);
  for (size_t e = 0; e < edits && !out.empty(); ++e) {
    out[rng->UniformInt(out.size())] =
        kAlphabet[rng->UniformInt(kAlphabet.size())];
  }
  return out;
}

std::string Substr(const std::string& s, Rng* rng) {
  if (s.empty()) return s;
  size_t begin = rng->UniformInt(s.size());
  return s.substr(begin, rng->UniformInt(s.size() - begin + 1));
}

// --- Randomized clusters and corpora -----------------------------------------

TEST(SiggenDifferentialTest, RandomClustersAndCorporaMatchTheFindOracle) {
  const uint64_t seed = testing::TestSeed(2701);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // A few templates; each cluster mutates one, so clusters share, nest
    // and overlap tokens.
    std::vector<std::string> templates;
    size_t num_templates = 1 + rng.UniformInt(4);
    for (size_t t = 0; t < num_templates; ++t) {
      templates.push_back(rng.RandomString(4 + rng.UniformInt(40), kAlphabet));
    }
    std::vector<HttpPacket> packets;
    std::vector<std::vector<int32_t>> clusters;
    size_t num_clusters = 1 + rng.UniformInt(6);
    for (size_t c = 0; c < num_clusters; ++c) {
      const std::string& base = templates[rng.UniformInt(num_templates)];
      std::vector<int32_t> members;
      size_t size = 1 + rng.UniformInt(4);
      for (size_t m = 0; m < size; ++m) {
        members.push_back(static_cast<int32_t>(packets.size()));
        packets.push_back(Packet(Mutate(base, &rng), Substr(base, &rng),
                                 rng.Bernoulli(0.3) ? Mutate(base, &rng) : "",
                                 rng.Bernoulli(0.5) ? "x.example"
                                                    : "y.example"));
      }
      clusters.push_back(std::move(members));
    }
    // Corpus docs: template fragments, noise and empty docs.
    std::vector<std::string> corpus;
    size_t docs = rng.UniformInt(30);
    for (size_t d = 0; d < docs; ++d) {
      std::string doc;
      if (!rng.Bernoulli(0.1)) {
        size_t parts = 1 + rng.UniformInt(3);
        for (size_t p = 0; p < parts; ++p) {
          doc += rng.Bernoulli(0.6)
                     ? Substr(templates[rng.UniformInt(num_templates)], &rng)
                     : rng.RandomString(rng.UniformInt(12), kAlphabet);
        }
      }
      corpus.push_back(std::move(doc));
    }
    // Thresholds at exact multiples of 1/|corpus| put DFs right on the
    // `<=` and `>` boundaries.
    const double n = static_cast<double>(std::max<size_t>(docs, 1));
    SiggenOptions options;
    options.min_token_len = rng.UniformInt(4);
    options.min_cluster_size = 1 + rng.UniformInt(2);
    options.max_tokens_per_signature = 1 + rng.UniformInt(4);
    options.max_token_normal_df =
        static_cast<double>(rng.UniformInt(docs + 1)) / n;
    options.max_signature_normal_fp =
        static_cast<double>(rng.UniformInt(docs + 1)) / n;
    options.scope_by_host = rng.Bernoulli(0.5);
    ExpectSameAsOracle(options, packets, clusters, corpus);
    if (::testing::Test::HasFailure()) return;
  }
}

// --- Named edge cases --------------------------------------------------------

SiggenOptions Lenient() {
  SiggenOptions options;
  options.min_token_len = 1;
  options.max_token_normal_df = 1.0;
  options.max_signature_normal_fp = 1.0;
  return options;
}

TEST(SiggenDifferentialTest, OneTokenInTwoClusters) {
  std::vector<HttpPacket> packets = {
      Packet("GET /ad?id=SECRET1 x"), Packet("GET /ad?id=SECRET1 y"),
      Packet("POST /t?id=SECRET1 z"), Packet("POST /t?id=SECRET1 w")};
  std::vector<std::string> corpus = {"id=SECRET1", "GET /ad", "", "POST"};
  SiggenOptions options = Lenient();
  options.min_token_len = 3;
  for (double df : {0.0, 0.25, 0.5, 1.0}) {
    options.max_token_normal_df = df;
    ExpectSameAsOracle(options, packets, {{0, 1}, {2, 3}}, corpus);
  }
}

TEST(SiggenDifferentialTest, OverlappingAndNestedTokens) {
  // "abab" and "bab" overlap in the docs; "aba" nests in "ababa".
  std::vector<HttpPacket> packets = {Packet("ababa\nxx"), Packet("ababa\nyy"),
                                     Packet("bab"), Packet("bab")};
  std::vector<std::string> corpus = {"ababab", "aba", "bab\n", "b"};
  SiggenOptions options = Lenient();
  for (size_t min_len : {0u, 1u, 2u, 3u}) {
    options.min_token_len = min_len;
    ExpectSameAsOracle(options, packets, {{0, 1}, {2, 3}, {0, 2}}, corpus);
  }
}

TEST(SiggenDifferentialTest, SeparatorNulAndHighBytes) {
  const std::string nul(1, '\0');
  const std::string ff(1, '\xff');
  std::vector<HttpPacket> packets = {
      Packet("k" + nul + "v" + ff, ff + ff, "a\nb"),
      Packet("k" + nul + "v" + ff, ff + ff, "a\nc")};
  std::vector<std::string> corpus = {nul, ff + ff, "\n" + ff, "k" + nul, ""};
  SiggenOptions options = Lenient();
  for (double df : {0.0, 0.2, 0.4, 0.6}) {
    options.max_token_normal_df = df;
    ExpectSameAsOracle(options, packets, {{0, 1}}, corpus);
  }
}

TEST(SiggenDifferentialTest, EmptyCorpusAndEmptyDocs) {
  std::vector<HttpPacket> packets = {Packet("GET /a?u=1"), Packet("GET /a?u=2")};
  SiggenOptions options = Lenient();
  options.max_token_normal_df = 0.0;
  options.max_signature_normal_fp = 0.0;
  ExpectSameAsOracle(options, packets, {{0, 1}}, {});
  ExpectSameAsOracle(options, packets, {{0, 1}}, {"", "", ""});
}

TEST(SiggenDifferentialTest, DocumentFrequencyExactlyAtTheThreshold) {
  std::vector<HttpPacket> packets = {Packet("tokenA|tokenB"),
                                     Packet("tokenA|tokenB")};
  // tokenA's DF is 2/5; at 2/5 it stays (<=), just below it goes.
  std::vector<std::string> corpus = {"tokenA", "xtokenAx", "a", "b", ""};
  SiggenOptions options = Lenient();
  options.min_token_len = 6;
  options.max_token_normal_df = 2.0 / 5.0;
  options.max_signature_normal_fp = 2.0 / 5.0;
  ExpectSameAsOracle(options, packets, {{0, 1}}, corpus);
  options.max_token_normal_df = std::nextafter(2.0 / 5.0, 0.0);
  ExpectSameAsOracle(options, packets, {{0, 1}}, corpus);
}

TEST(SiggenDifferentialTest, BreakAtMaxTokensPerSignature) {
  // Three maximal tokens separated by bytes the members disagree on; the
  // corpus screens out the middle one.
  std::vector<HttpPacket> packets = {Packet("LONGEST_TOKEN_1|MIDDLE_TOK|short3"),
                                     Packet("LONGEST_TOKEN_1#MIDDLE_TOK#short3")};
  std::vector<std::string> corpus = {"MIDDLE_TOK", "other"};
  SiggenOptions options = Lenient();
  options.min_token_len = 4;
  options.max_token_normal_df = 0.0;
  for (size_t cap : {1u, 2u, 3u, 4u}) {
    options.max_tokens_per_signature = cap;
    ExpectSameAsOracle(options, packets, {{0, 1}}, corpus);
  }
}

// --- The screen alone ----------------------------------------------------------

// Every packet content holds "\n\n", so Generate never meets the empty
// token; the screen still answers for it as `find("")` does.
TEST(CorpusScreenTest, EmptyTokenHoldsInEveryDocument) {
  CorpusScreen screen;
  const uint32_t empty = screen.Intern("");
  const uint32_t zzz = screen.Intern("zzz");
  screen.Scan({"", "zzz"});
  EXPECT_EQ(screen.Frequency(empty), 1.0);
  EXPECT_EQ(screen.Frequency(zzz), 0.5);
  EXPECT_EQ(screen.ConjunctionFrequency({empty, zzz}), 0.5);
  EXPECT_EQ(screen.ConjunctionFrequency({}), 0.0);

  CorpusScreen no_docs;
  const uint32_t id = no_docs.Intern("");
  no_docs.Scan({});
  EXPECT_EQ(no_docs.Frequency(id), 0.0);
}

TEST(CorpusScreenTest, FrequenciesMatchFindOnRandomVocabularies) {
  const uint64_t seed = testing::TestSeed(2702);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> docs;
    size_t num_docs = rng.UniformInt(20);
    for (size_t d = 0; d < num_docs; ++d) {
      docs.push_back(rng.RandomString(rng.UniformInt(30), kAlphabet));
    }
    CorpusScreen screen;
    std::vector<std::string> tokens;
    std::vector<uint32_t> ids;
    size_t num_tokens = rng.UniformInt(12);
    for (size_t t = 0; t < num_tokens; ++t) {
      // Repeats and the empty token included.
      tokens.push_back(rng.RandomString(rng.UniformInt(4), kAlphabet));
      ids.push_back(screen.Intern(tokens.back()));
    }
    screen.Scan(docs);
    for (size_t t = 0; t < num_tokens; ++t) {
      EXPECT_EQ(screen.token(ids[t]), tokens[t]);
      EXPECT_EQ(screen.Frequency(ids[t]),
                OracleDocumentFrequency(tokens[t], docs))
          << "token " << t;
    }
    EXPECT_EQ(screen.ConjunctionFrequency(ids),
              OracleConjunctionFrequency(tokens, docs));
    ASSERT_FALSE(::testing::Test::HasFailure()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace leakdet::core
