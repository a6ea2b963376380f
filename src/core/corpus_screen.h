#ifndef LEAKDET_CORE_CORPUS_SCREEN_H_
#define LEAKDET_CORE_CORPUS_SCREEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace leakdet::core {

/// Which documents of a corpus hold each token of a vocabulary, found in one
/// Aho–Corasick pass over the corpus. The signature generators screen their
/// candidate tokens and signatures against the normal-traffic corpus with it
/// (§IV-E): intern every cluster's tokens, scan once, then ask.
///
/// "Holds" means `doc.find(token) != npos`, so the empty token is in every
/// document.
class CorpusScreen {
 public:
  /// Adds `token` to the vocabulary and returns its id; a token seen before
  /// keeps its first id. Call before Scan.
  uint32_t Intern(std::string_view token);

  /// Records which of `docs` hold each interned token.
  void Scan(const std::vector<std::string>& docs);

  /// Fraction of the scanned documents that hold `token`; 0 when there were
  /// none.
  double Frequency(uint32_t token) const;

  /// Fraction of the scanned documents that hold every token of `tokens`;
  /// 0 when there were no documents or `tokens` is empty.
  double ConjunctionFrequency(const std::vector<uint32_t>& tokens) const;

  const std::string& token(uint32_t id) const { return vocabulary_[id]; }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> vocabulary_;
  /// Per token, the ascending indices of the documents holding it.
  std::vector<std::vector<uint32_t>> holders_;
  size_t num_docs_ = 0;
};

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_CORPUS_SCREEN_H_
