#include "core/siggen_bayes.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "core/corpus_screen.h"
#include "text/token_extract.h"

namespace leakdet::core {

match::BayesSignatureSet BayesSignatureGenerator::Generate(
    const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus) const {
  // Candidate mining: invariant tokens of the whole cluster plus of small
  // sub-samples, so tokens carried by only a majority of members (the
  // polymorphic case) still enter the pool. Every cluster's candidates share
  // one vocabulary, screened against the normal corpus in one pass.
  CorpusScreen normal_screen;
  std::vector<std::vector<std::string>> cluster_contents(clusters.size());
  std::vector<std::vector<std::string>> cluster_candidates(clusters.size());
  std::vector<std::vector<uint32_t>> normal_ids(clusters.size());
  text::TokenExtractOptions tex;
  tex.min_token_len = options_.min_token_len;
  tex.max_tokens = options_.max_tokens_per_signature * 4;
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < options_.min_cluster_size) continue;
    std::vector<std::string>& contents = cluster_contents[c];
    contents.reserve(clusters[c].size());
    for (int32_t idx : clusters[c]) {
      contents.push_back(PacketContent(packets[static_cast<size_t>(idx)]));
    }
    std::set<std::string> candidates;
    for (const std::string& tok : text::ExtractInvariantTokens(contents, tex)) {
      candidates.insert(tok);
    }
    for (size_t i = 0; i + 1 < contents.size() && i < 16; i += 2) {
      std::vector<std::string_view> pair = {contents[i], contents[i + 1]};
      for (const std::string& tok : text::ExtractInvariantTokens(pair, tex)) {
        candidates.insert(tok);
      }
    }
    for (const std::string& tok : candidates) {
      normal_ids[c].push_back(normal_screen.Intern(tok));
    }
    cluster_candidates[c].assign(candidates.begin(), candidates.end());
  }
  normal_screen.Scan(normal_corpus);

  std::vector<match::BayesSignature> signatures;
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < options_.min_cluster_size) continue;
    const std::vector<std::string>& contents = cluster_contents[c];
    const std::vector<std::string>& candidates = cluster_candidates[c];
    CorpusScreen member_screen;
    std::vector<uint32_t> member_ids;
    for (const std::string& tok : candidates) {
      member_ids.push_back(member_screen.Intern(tok));
    }
    member_screen.Scan(contents);

    // Weigh candidates by their leaking-vs-normal log-odds.
    match::BayesSignature sig;
    sig.id = "bsig-" + std::to_string(signatures.size());
    sig.cluster_size = static_cast<uint32_t>(clusters[c].size());
    std::vector<match::WeightedToken> weighted;
    for (size_t i = 0; i < candidates.size(); ++i) {
      double df_pos = member_screen.Frequency(member_ids[i]);
      if (df_pos < options_.min_positive_df) continue;
      double df_neg = normal_screen.Frequency(normal_ids[c][i]);
      double w = std::log((df_pos + options_.epsilon) /
                          (df_neg + options_.epsilon));
      if (w <= 0) continue;
      weighted.push_back(match::WeightedToken{candidates[i], w});
    }
    if (weighted.empty()) continue;
    // Keep the highest-weight tokens.
    std::sort(weighted.begin(), weighted.end(),
              [](const match::WeightedToken& a, const match::WeightedToken& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                return a.token < b.token;
              });
    if (weighted.size() > options_.max_tokens_per_signature) {
      weighted.resize(options_.max_tokens_per_signature);
    }
    sig.tokens = std::move(weighted);

    // Threshold: a fraction of the weakest training member's score...
    double min_member_score = std::numeric_limits<double>::infinity();
    for (const std::string& content : contents) {
      min_member_score = std::min(min_member_score, sig.Score(content));
    }
    sig.threshold = options_.threshold_fraction * min_member_score;

    // ...raised until the normal corpus false-positive bound holds.
    if (!normal_corpus.empty()) {
      std::vector<double> corpus_scores;
      corpus_scores.reserve(normal_corpus.size());
      for (const std::string& doc : normal_corpus) {
        corpus_scores.push_back(sig.Score(doc));
      }
      std::sort(corpus_scores.begin(), corpus_scores.end());
      size_t allowed = static_cast<size_t>(options_.max_normal_fp *
                                           static_cast<double>(
                                               corpus_scores.size()));
      // Threshold just above the score at the allowed-FP quantile.
      double quantile =
          corpus_scores[corpus_scores.size() - 1 - allowed];
      if (quantile >= sig.threshold) {
        sig.threshold = std::nextafter(quantile,
                                       std::numeric_limits<double>::max()) +
                        1e-9;
      }
    }
    signatures.push_back(std::move(sig));
  }
  return match::BayesSignatureSet(std::move(signatures));
}

}  // namespace leakdet::core
