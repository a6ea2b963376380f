#ifndef LEAKDET_CORE_SIGGEN_H_
#define LEAKDET_CORE_SIGGEN_H_

#include <string>
#include <vector>

#include "core/corpus_screen.h"
#include "core/hcluster.h"
#include "core/packet.h"
#include "match/signature.h"
#include "util/statusor.h"

namespace leakdet::core {

/// Options for conjunction-signature generation (§IV-E).
struct SiggenOptions {
  /// Minimum invariant-token length. Short tokens ("id=", "&v=") occur in
  /// benign traffic and produce the degenerate signatures §VI warns about.
  size_t min_token_len = 6;

  /// Clusters with fewer members than this produce no signature. 1 keeps the
  /// paper's "repeat for all clusters"; higher values trade recall for
  /// robustness.
  size_t min_cluster_size = 1;

  /// Cap on tokens kept per signature (longest first).
  size_t max_tokens_per_signature = 16;

  /// Tokens occurring in more than this fraction of the normal-traffic
  /// corpus are dropped as generic (Polygraph-style token screening). The
  /// paper's countermeasure against "signatures that match most network
  /// packets".
  double max_token_normal_df = 0.05;

  /// Whole signatures still matching more than this fraction of the normal
  /// corpus after token screening are discarded.
  double max_signature_normal_fp = 0.01;

  /// Scope each signature to its cluster's registrable domain when every
  /// cluster member shares one (preserves the destination-specificity the
  /// clustering established). Off by default: the paper matches signatures
  /// by content only, which is what lets one module's signature catch the
  /// same SDK template on other hosts (§IV's polymorphism argument). The
  /// scoping ablation quantifies the trade-off.
  bool scope_by_host = false;
};

/// Summary of one generated (or rejected) cluster signature, for reports.
struct SiggenClusterReport {
  size_t cluster_index = 0;
  size_t cluster_size = 0;
  size_t raw_tokens = 0;       ///< invariant tokens before screening
  size_t kept_tokens = 0;      ///< tokens surviving the normal-corpus screen
  bool emitted = false;
  std::string reject_reason;   ///< "" when emitted
};

/// The front half both token-list generators (conjunction and subsequence)
/// share (§IV-E steps 2–3): every eligible cluster's invariant tokens,
/// interned into one vocabulary and screened against the normal corpus in
/// one pass.
struct ScreenedClusters {
  CorpusScreen screen;
  /// Per cluster, its members' packet contents; empty for a cluster below
  /// `min_cluster_size`.
  std::vector<std::vector<std::string>> contents;
  /// Per cluster, how many invariant tokens the extraction found.
  std::vector<size_t> raw_tokens;
  /// Per cluster, the screen ids of the tokens whose normal-corpus document
  /// frequency is at most `max_token_normal_df`, in extraction order, at most
  /// `max_tokens_per_signature` of them.
  std::vector<std::vector<uint32_t>> kept;
};

ScreenedClusters ScreenClusterTokens(
    const std::vector<HttpPacket>& packets,
    const std::vector<std::vector<int32_t>>& clusters,
    const std::vector<std::string>& normal_corpus,
    const SiggenOptions& options);

/// The registrable domain every member of `cluster` is sent to, or "" when
/// the members disagree.
std::string UnanimousDomain(const std::vector<HttpPacket>& packets,
                            const std::vector<int32_t>& cluster);

/// Generates one conjunction signature per cluster from the invariant tokens
/// of the cluster's packet contents, screened against a sample of normal
/// traffic.
class SignatureGenerator {
 public:
  explicit SignatureGenerator(SiggenOptions options = {})
      : options_(options) {}

  /// `clusters` holds indices into `packets` (as produced by
  /// Dendrogram::CutAtHeight). `normal_corpus` is a sample of non-sensitive
  /// packet contents used for generic-token and false-positive screening
  /// (may be empty, disabling the screens).
  match::SignatureSet Generate(
      const std::vector<HttpPacket>& packets,
      const std::vector<std::vector<int32_t>>& clusters,
      const std::vector<std::string>& normal_corpus,
      std::vector<SiggenClusterReport>* reports = nullptr) const;

  const SiggenOptions& options() const { return options_; }

 private:
  SiggenOptions options_;
};

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_SIGGEN_H_
