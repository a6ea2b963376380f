#include "core/siggen.h"

#include "core/corpus_screen.h"
#include "net/host.h"
#include "text/token_extract.h"

namespace leakdet::core {

ScreenedClusters ScreenClusterTokens(
    const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus,
    const SiggenOptions& options) {
  ScreenedClusters out;
  out.contents.resize(clusters.size());
  out.raw_tokens.resize(clusters.size());
  out.kept.resize(clusters.size());
  std::vector<std::vector<uint32_t>> tokens(clusters.size());
  text::TokenExtractOptions tex;
  tex.min_token_len = options.min_token_len;
  tex.max_tokens = options.max_tokens_per_signature * 4;  // pre-screen pool
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < options.min_cluster_size) continue;
    std::vector<std::string>& contents = out.contents[c];
    contents.reserve(clusters[c].size());
    for (int32_t idx : clusters[c]) {
      contents.push_back(PacketContent(packets[static_cast<size_t>(idx)]));
    }
    for (const std::string& tok : text::ExtractInvariantTokens(contents, tex)) {
      tokens[c].push_back(out.screen.Intern(tok));
    }
    out.raw_tokens[c] = tokens[c].size();
  }
  out.screen.Scan(normal_corpus);

  // Generic-token screen against the normal corpus.
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (uint32_t tok : tokens[c]) {
      if (out.screen.Frequency(tok) <= options.max_token_normal_df) {
        out.kept[c].push_back(tok);
      }
      if (out.kept[c].size() >= options.max_tokens_per_signature) break;
    }
  }
  return out;
}

std::string UnanimousDomain(const std::vector<HttpPacket>& packets,
                            const std::vector<int32_t>& cluster) {
  std::string domain = net::RegistrableDomain(
      packets[static_cast<size_t>(cluster[0])].destination.host);
  for (int32_t idx : cluster) {
    if (net::RegistrableDomain(
            packets[static_cast<size_t>(idx)].destination.host) != domain) {
      return "";
    }
  }
  return domain;
}

match::SignatureSet SignatureGenerator::Generate(
    const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus,
    std::vector<SiggenClusterReport>* reports) const {
  ScreenedClusters screened =
      ScreenClusterTokens(packets, clusters, normal_corpus, options_);
  const CorpusScreen& screen = screened.screen;

  std::vector<match::ConjunctionSignature> signatures;
  for (size_t c = 0; c < clusters.size(); ++c) {
    SiggenClusterReport report;
    report.cluster_index = c;
    report.cluster_size = clusters[c].size();
    report.raw_tokens = screened.raw_tokens[c];
    const std::vector<uint32_t>& kept = screened.kept[c];
    report.kept_tokens = kept.size();
    if (clusters[c].size() < options_.min_cluster_size) {
      report.reject_reason = "cluster below min_cluster_size";
    } else if (kept.empty()) {
      report.reject_reason = "no tokens survived screening";
    } else if (screen.ConjunctionFrequency(kept) >
               options_.max_signature_normal_fp) {
      // Whole-signature false-positive screen.
      report.reject_reason = "signature matches normal corpus";
    } else {
      match::ConjunctionSignature sig;
      sig.id = "sig-" + std::to_string(signatures.size());
      for (uint32_t tok : kept) sig.tokens.push_back(screen.token(tok));
      sig.cluster_size = static_cast<uint32_t>(clusters[c].size());
      // Scope to the cluster's registrable domain when unanimous.
      if (options_.scope_by_host) {
        sig.host_scope = UnanimousDomain(packets, clusters[c]);
      }
      signatures.push_back(std::move(sig));
      report.emitted = true;
    }
    if (reports) reports->push_back(report);
  }
  return match::SignatureSet(std::move(signatures));
}

}  // namespace leakdet::core
