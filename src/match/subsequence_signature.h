#ifndef LEAKDET_MATCH_SUBSEQUENCE_SIGNATURE_H_
#define LEAKDET_MATCH_SUBSEQUENCE_SIGNATURE_H_

#include <string>
#include <string_view>
#include <vector>

#include "match/signature.h"
#include "util/statusor.h"

namespace leakdet::match {

/// A token-subsequence signature (the middle member of the Polygraph family
/// between conjunction and Bayes): a conjunction whose tokens must also
/// appear *in order*, each occurrence starting at or after the end of the
/// previous one. Stricter than a conjunction — field order is part of the
/// match — which buys precision against benign packets that happen to
/// contain all tokens in a different arrangement.
using SubsequenceSignature = ConjunctionSignature;

/// Greedy in-order check: the index of the first of `tokens` that does not
/// occur in `content` at or after the end of the previous token's earliest
/// occurrence, or -1 when every token does.
int FirstOrderViolation(const std::vector<std::string>& tokens,
                        std::string_view content);

/// A deployed set of subsequence signatures: a SignatureSet (one automaton
/// scan, host scope, empty token lists never match) whose hits must also
/// pass the in-order check.
class SubsequenceSignatureSet {
 public:
  SubsequenceSignatureSet() = default;
  explicit SubsequenceSignatureSet(std::vector<SubsequenceSignature> sigs)
      : conjunctions_(std::move(sigs)) {}

  /// Indices of matching signatures, ascending (host scope enforced when
  /// `host_domain` is non-empty).
  std::vector<size_t> Match(std::string_view content,
                            std::string_view host_domain = {}) const;

  bool Matches(std::string_view content,
               std::string_view host_domain = {}) const {
    return !Match(content, host_domain).empty();
  }

  const std::vector<SubsequenceSignature>& signatures() const {
    return conjunctions_.signatures();
  }
  size_t size() const { return conjunctions_.size(); }
  bool empty() const { return conjunctions_.empty(); }

  /// The conjunction feed format under its own header.
  std::string Serialize() const;
  static StatusOr<SubsequenceSignatureSet> Deserialize(std::string_view text);

 private:
  SignatureSet conjunctions_;
};

}  // namespace leakdet::match

#endif  // LEAKDET_MATCH_SUBSEQUENCE_SIGNATURE_H_
