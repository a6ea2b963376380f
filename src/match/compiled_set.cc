#include "match/compiled_set.h"

namespace leakdet::match {

CompiledSignatureSet::CompiledSignatureSet(SignatureSet set, uint64_t version)
    : set_(std::move(set)), version_(version) {
  num_tokens_ = set_.vocab().size();
  {
    // Compile the prefilter from the same token lists the DFA matches, so
    // the two engines agree on exactly which byte strings matter.
    std::vector<std::vector<std::string>> sig_tokens;
    sig_tokens.reserve(set_.signatures().size());
    for (const ConjunctionSignature& sig : set_.signatures()) {
      sig_tokens.push_back(sig.tokens);
    }
    prefilter_ = prefilter::Prefilter::Build(sig_tokens);
  }
  const AhoCorasick* automaton = set_.automaton();
  if (automaton == nullptr || num_tokens_ == 0) return;

  num_states_ = automaton->num_nodes();
  next_ = automaton->DenseTransitions();
  out_begin_.reserve(num_states_ + 1);
  out_begin_.push_back(0);
  for (size_t s = 0; s < num_states_; ++s) {
    for (uint32_t id : automaton->OutputClosure(static_cast<int32_t>(s))) {
      out_patterns_.push_back(id);
    }
    out_begin_.push_back(static_cast<uint32_t>(out_patterns_.size()));
  }
}

void CompiledSignatureSet::ScanTokens(std::string_view content,
                                      MatchScratch* scratch) const {
  scratch->seen.assign(num_tokens_, 0);
  uint8_t* seen = scratch->seen.data();
  const int32_t* next = next_.data();
  size_t marked = 0;
  int32_t state = 0;
  for (char ch : content) {
    state = next[static_cast<size_t>(state) * 256 + static_cast<uint8_t>(ch)];
    uint32_t begin = out_begin_[static_cast<size_t>(state)];
    uint32_t end = out_begin_[static_cast<size_t>(state) + 1];
    for (uint32_t i = begin; i < end; ++i) {
      uint8_t& bit = seen[out_patterns_[i]];
      if (!bit) {
        bit = 1;
        ++marked;
      }
    }
    if (marked == num_tokens_) break;  // every token already found
  }
}

bool CompiledSignatureSet::SignatureHolds(size_t s,
                                          std::string_view host_domain,
                                          const MatchScratch& scratch) const {
  const ConjunctionSignature& sig = set_.signatures()[s];
  if (!sig.host_scope.empty() && !host_domain.empty() &&
      sig.host_scope != host_domain) {
    return false;
  }
  if (sig.tokens.empty()) return false;  // never match an empty conjunction
  const uint8_t* seen = scratch.seen.data();
  for (uint32_t t : set_.sig_token_ids()[s]) {
    if (!seen[t]) return false;
  }
  return true;
}

size_t CompiledSignatureSet::MatchInto(std::string_view content,
                                       std::string_view host_domain,
                                       MatchScratch* scratch) const {
  scratch->hits.clear();
  if (set_.empty() || num_states_ == 0) return 0;

  ScanTokens(content, scratch);
  for (size_t s = 0; s < set_.signatures().size(); ++s) {
    if (SignatureHolds(s, host_domain, *scratch)) scratch->hits.push_back(s);
  }
  return scratch->hits.size();
}

size_t CompiledSignatureSet::MatchIntoPrefiltered(
    std::string_view content, std::string_view host_domain,
    MatchScratch* scratch, prefilter::Mode mode,
    PrefilterOutcome* outcome) const {
  if (mode == prefilter::Mode::kOff || set_.empty() || num_states_ == 0) {
    if (outcome != nullptr) *outcome = PrefilterOutcome::kDisabled;
    return MatchInto(content, host_domain, scratch);
  }

  if (!prefilter_.Scan(content, &scratch->prefilter, mode)) {
    // No candidate bit set: by the no-false-negative invariant no
    // signature's tokens can all occur, so the DFA scan is skipped.
    if (outcome != nullptr) *outcome = PrefilterOutcome::kSkipped;
    scratch->hits.clear();
    return 0;
  }

  scratch->hits.clear();
  ScanTokens(content, scratch);
  // Exact matching restricted to candidates. Ascending signature order, so
  // hits come out identical to MatchInto (candidates are a superset of the
  // true matches).
  const std::vector<uint64_t>& bits = scratch->prefilter.bits;
  for (size_t word = 0; word < bits.size(); ++word) {
    uint64_t pending = bits[word];
    while (pending != 0) {
      size_t s = word * 64 + static_cast<size_t>(__builtin_ctzll(pending));
      pending &= pending - 1;
      if (SignatureHolds(s, host_domain, *scratch)) scratch->hits.push_back(s);
    }
  }
  if (outcome != nullptr) {
    *outcome = scratch->hits.empty() ? PrefilterOutcome::kCandidateMiss
                                     : PrefilterOutcome::kCandidateHit;
  }
  return scratch->hits.size();
}

}  // namespace leakdet::match
