#include "core/siggen.h"

#include "core/corpus_screen.h"
#include "net/host.h"
#include "text/token_extract.h"

namespace leakdet::core {

match::SignatureSet SignatureGenerator::Generate(
    const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus,
    std::vector<SiggenClusterReport>* reports) const {
  // Invariant tokens of every eligible cluster's packet contents (§IV-E
  // step 2), interned into one vocabulary so a single pass over the normal
  // corpus screens them all.
  CorpusScreen screen;
  std::vector<std::vector<uint32_t>> cluster_tokens(clusters.size());
  text::TokenExtractOptions tex;
  tex.min_token_len = options_.min_token_len;
  tex.max_tokens = options_.max_tokens_per_signature * 4;  // pre-screen pool
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < options_.min_cluster_size) continue;
    std::vector<std::string> contents;
    contents.reserve(clusters[c].size());
    for (int32_t idx : clusters[c]) {
      contents.push_back(PacketContent(packets[static_cast<size_t>(idx)]));
    }
    for (const std::string& tok : text::ExtractInvariantTokens(contents, tex)) {
      cluster_tokens[c].push_back(screen.Intern(tok));
    }
  }
  screen.Scan(normal_corpus);

  std::vector<match::ConjunctionSignature> signatures;
  for (size_t c = 0; c < clusters.size(); ++c) {
    SiggenClusterReport report;
    report.cluster_index = c;
    report.cluster_size = clusters[c].size();

    if (clusters[c].size() < options_.min_cluster_size) {
      report.reject_reason = "cluster below min_cluster_size";
      if (reports) reports->push_back(report);
      continue;
    }
    report.raw_tokens = cluster_tokens[c].size();

    // Generic-token screen against the normal corpus.
    std::vector<uint32_t> kept;
    for (uint32_t tok : cluster_tokens[c]) {
      if (screen.Frequency(tok) <= options_.max_token_normal_df) {
        kept.push_back(tok);
      }
      if (kept.size() >= options_.max_tokens_per_signature) break;
    }
    report.kept_tokens = kept.size();
    if (kept.empty()) {
      report.reject_reason = "no tokens survived screening";
      if (reports) reports->push_back(report);
      continue;
    }

    // Whole-signature false-positive screen.
    if (screen.ConjunctionFrequency(kept) > options_.max_signature_normal_fp) {
      report.reject_reason = "signature matches normal corpus";
      if (reports) reports->push_back(report);
      continue;
    }

    match::ConjunctionSignature sig;
    sig.id = "sig-" + std::to_string(signatures.size());
    for (uint32_t tok : kept) sig.tokens.push_back(screen.token(tok));
    sig.cluster_size = static_cast<uint32_t>(clusters[c].size());
    if (options_.scope_by_host) {
      // Scope to the cluster's registrable domain when unanimous.
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
    if (reports) reports->push_back(report);
  }
  return match::SignatureSet(std::move(signatures));
}

}  // namespace leakdet::core
