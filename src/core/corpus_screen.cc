#include "core/corpus_screen.h"

#include <algorithm>
#include <numeric>

#include "match/aho_corasick.h"

namespace leakdet::core {

uint32_t CorpusScreen::Intern(std::string_view token) {
  auto [it, inserted] = ids_.try_emplace(
      std::string(token), static_cast<uint32_t>(vocabulary_.size()));
  if (inserted) vocabulary_.push_back(it->first);
  return it->second;
}

void CorpusScreen::Scan(const std::vector<std::string>& docs) {
  num_docs_ = docs.size();
  holders_.assign(vocabulary_.size(), {});
  if (docs.empty() || vocabulary_.empty()) return;
  const match::AhoCorasick automaton(vocabulary_);
  for (uint32_t d = 0; d < docs.size(); ++d) {
    automaton.Scan(docs[d], 0, [this, d](uint32_t t) {
      std::vector<uint32_t>& holders = holders_[t];
      if (holders.empty() || holders.back() != d) holders.push_back(d);
    });
  }
  // The automaton ignores an empty pattern, which every document holds.
  for (uint32_t t = 0; t < vocabulary_.size(); ++t) {
    if (!vocabulary_[t].empty()) continue;
    holders_[t].resize(num_docs_);
    std::iota(holders_[t].begin(), holders_[t].end(), 0u);
  }
}

double CorpusScreen::Frequency(uint32_t token) const {
  if (num_docs_ == 0) return 0.0;
  return static_cast<double>(holders_[token].size()) /
         static_cast<double>(num_docs_);
}

double CorpusScreen::ConjunctionFrequency(
    const std::vector<uint32_t>& tokens) const {
  if (num_docs_ == 0 || tokens.empty()) return 0.0;
  // Walk the rarest token's documents and look each up in the others'.
  const uint32_t rarest = *std::min_element(
      tokens.begin(), tokens.end(), [this](uint32_t a, uint32_t b) {
        return holders_[a].size() < holders_[b].size();
      });
  size_t hits = 0;
  for (uint32_t d : holders_[rarest]) {
    bool all = true;
    for (uint32_t t : tokens) {
      if (!std::binary_search(holders_[t].begin(), holders_[t].end(), d)) {
        all = false;
        break;
      }
    }
    if (all) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(num_docs_);
}

}  // namespace leakdet::core
