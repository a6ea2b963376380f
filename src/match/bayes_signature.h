#ifndef LEAKDET_MATCH_BAYES_SIGNATURE_H_
#define LEAKDET_MATCH_BAYES_SIGNATURE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "match/signature.h"
#include "util/statusor.h"

namespace leakdet::match {

/// One weighted token of a probabilistic signature.
struct WeightedToken {
  std::string token;
  double weight = 0;  ///< log-odds contribution when the token is present
};

/// A probabilistic (Polygraph-Bayes-style) signature: each token carries a
/// log-odds weight learned from how often it appears in leaking vs normal
/// traffic; a packet matches when the sum of present-token weights reaches
/// the threshold. The paper names this family (refs [14], [30]) as future
/// work for improving detection of polymorphic leakage — unlike a
/// conjunction, a Bayes signature still fires when a module drops or
/// reorders *some* template fields.
struct BayesSignature {
  std::string id;
  std::vector<WeightedToken> tokens;
  double threshold = 0;
  uint32_t cluster_size = 0;

  /// Score of a content string: sum of weights of present tokens.
  double Score(std::string_view content) const;

  /// True iff Score(content) >= threshold.
  bool Matches(std::string_view content) const {
    return Score(content) >= threshold;
  }
};

/// A deployed set of Bayes signatures. Their token lists are indexed by a
/// SignatureSet (one vocabulary, one Aho–Corasick automaton), so scoring
/// every signature is one scan.
class BayesSignatureSet {
 public:
  BayesSignatureSet() = default;
  explicit BayesSignatureSet(std::vector<BayesSignature> signatures);

  /// Indices of signatures whose score reaches their threshold on `content`.
  std::vector<size_t> Match(std::string_view content) const;

  /// True iff any signature matches.
  bool Matches(std::string_view content) const {
    return !Match(content).empty();
  }

  /// Per-signature scores (diagnostics / ROC sweeps).
  std::vector<double> Scores(std::string_view content) const;

  const std::vector<BayesSignature>& signatures() const { return signatures_; }
  size_t size() const { return signatures_.size(); }
  bool empty() const { return signatures_.empty(); }

  /// Line-oriented serialization (tokens hex-encoded, weights as decimals).
  std::string Serialize() const;
  static StatusOr<BayesSignatureSet> Deserialize(std::string_view text);

 private:
  std::vector<BayesSignature> signatures_;
  SignatureSet index_;  // the token lists, without weights
  // For vocab token v: list of (signature index, weight).
  std::vector<std::vector<std::pair<uint32_t, double>>> token_refs_;
};

}  // namespace leakdet::match

#endif  // LEAKDET_MATCH_BAYES_SIGNATURE_H_
