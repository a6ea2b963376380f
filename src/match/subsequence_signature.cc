#include "match/subsequence_signature.h"

namespace leakdet::match {

namespace {
constexpr std::string_view kFeedHeader = "leakdet-subseq-signatures v1";
}  // namespace

int FirstOrderViolation(const std::vector<std::string>& tokens,
                        std::string_view content) {
  size_t offset = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    size_t pos = content.find(tokens[i], offset);
    if (pos == std::string_view::npos) return static_cast<int>(i);
    offset = pos + tokens[i].size();
  }
  return -1;
}

std::vector<size_t> SubsequenceSignatureSet::Match(
    std::string_view content, std::string_view host_domain) const {
  std::vector<size_t> hits = conjunctions_.Match(content, host_domain);
  std::erase_if(hits, [&](size_t s) {
    return FirstOrderViolation(signatures()[s].tokens, content) >= 0;
  });
  return hits;
}

std::string SubsequenceSignatureSet::Serialize() const {
  return SerializeConjunctions(kFeedHeader, signatures());
}

StatusOr<SubsequenceSignatureSet> SubsequenceSignatureSet::Deserialize(
    std::string_view text) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<SubsequenceSignature> sigs,
                           ParseConjunctions(kFeedHeader, text));
  return SubsequenceSignatureSet(std::move(sigs));
}

}  // namespace leakdet::match
