#include "core/siggen_seq.h"

#include <algorithm>

#include "net/host.h"

namespace leakdet::core {

match::SubsequenceSignatureSet SubsequenceSignatureGenerator::Generate(
    const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus) const {
  ScreenedClusters screened =
      ScreenClusterTokens(packets, clusters, normal_corpus, options_);

  std::vector<match::SubsequenceSignature> signatures;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const std::vector<int32_t>& cluster = clusters[c];
    if (cluster.size() < options_.min_cluster_size) continue;
    const std::vector<std::string>& contents = screened.contents[c];
    std::vector<std::string> tokens;
    for (uint32_t tok : screened.kept[c]) {
      tokens.push_back(screened.screen.token(tok));
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
        violation = match::FirstOrderViolation(tokens, content);
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
        if (match::FirstOrderViolation(tokens, doc) < 0) ++fp;
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
      sig.host_scope = UnanimousDomain(packets, cluster);
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
