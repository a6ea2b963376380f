#include "core/siggen_seq.h"

#include <algorithm>

#include "core/corpus_screen.h"
#include "net/host.h"
#include "text/token_extract.h"

namespace leakdet::core {

namespace {

/// Index of the first token (in order) that cannot be matched greedily in
/// `content`, or -1 when the whole sequence matches.
int FirstOrderingViolation(const std::vector<std::string>& tokens,
                           std::string_view content) {
  size_t offset = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    size_t pos = content.find(tokens[i], offset);
    if (pos == std::string_view::npos) return static_cast<int>(i);
    offset = pos + tokens[i].size();
  }
  return -1;
}

}  // namespace

match::SubsequenceSignatureSet SubsequenceSignatureGenerator::Generate(
    const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus) const {
  // Invariant tokens of every eligible cluster, screened as in the
  // conjunction generator: one vocabulary, one pass over the corpus.
  CorpusScreen screen;
  std::vector<std::vector<std::string>> cluster_contents(clusters.size());
  std::vector<std::vector<uint32_t>> cluster_tokens(clusters.size());
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
    for (const std::string& tok : text::ExtractInvariantTokens(contents, tex)) {
      cluster_tokens[c].push_back(screen.Intern(tok));
    }
  }
  screen.Scan(normal_corpus);

  std::vector<match::SubsequenceSignature> signatures;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const std::vector<int32_t>& cluster = clusters[c];
    if (cluster.size() < options_.min_cluster_size) continue;
    const std::vector<std::string>& contents = cluster_contents[c];
    std::vector<std::string> tokens;
    for (uint32_t tok : cluster_tokens[c]) {
      if (screen.Frequency(tok) <= options_.max_token_normal_df) {
        tokens.push_back(screen.token(tok));
      }
      if (tokens.size() >= options_.max_tokens_per_signature) break;
    }
    if (tokens.empty()) continue;

    // Order tokens by their position in the first member...
    std::stable_sort(tokens.begin(), tokens.end(),
                     [&contents](const std::string& a, const std::string& b) {
                       return contents[0].find(a) < contents[0].find(b);
                     });
    // ...then prune until the ordered match holds for every member. Each
    // round drops the first violating token, so this terminates.
    while (!tokens.empty()) {
      int violation = -1;
      for (const std::string& content : contents) {
        violation = FirstOrderingViolation(tokens, content);
        if (violation >= 0) break;
      }
      if (violation < 0) break;
      tokens.erase(tokens.begin() + violation);
    }
    if (tokens.empty()) continue;

    // Whole-signature false-positive screen (ordered match on the corpus).
    if (!normal_corpus.empty()) {
      size_t fp = 0;
      for (const std::string& doc : normal_corpus) {
        if (FirstOrderingViolation(tokens, doc) < 0) ++fp;
      }
      if (static_cast<double>(fp) /
              static_cast<double>(normal_corpus.size()) >
          options_.max_signature_normal_fp) {
        continue;
      }
    }

    match::SubsequenceSignature sig;
    sig.id = "qsig-" + std::to_string(signatures.size());
    sig.tokens = std::move(tokens);
    sig.cluster_size = static_cast<uint32_t>(cluster.size());
    if (options_.scope_by_host) {
      std::string domain = net::RegistrableDomain(
          packets[static_cast<size_t>(cluster[0])].destination.host);
      bool unanimous = true;
      for (int32_t idx : cluster) {
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
  }
  return match::SubsequenceSignatureSet(std::move(signatures));
}

bool SubsequenceDetector::IsSensitive(const HttpPacket& packet) const {
  std::string content = PacketContent(packet);
  std::string domain;
  if (use_host_scope_) {
    domain = net::RegistrableDomain(packet.destination.host);
  }
  return signatures_.Matches(content, domain);
}

}  // namespace leakdet::core
