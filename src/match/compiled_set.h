#ifndef LEAKDET_MATCH_COMPILED_SET_H_
#define LEAKDET_MATCH_COMPILED_SET_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "match/signature.h"
#include "prefilter/prefilter.h"

namespace leakdet::match {

/// Per-thread reusable buffers for CompiledSignatureSet matching. Owning one
/// per worker removes every per-packet heap allocation from the hot path.
struct MatchScratch {
  std::vector<uint8_t> seen;  ///< token-present bitmap (sized to the vocab)
  std::vector<size_t> hits;   ///< matching signature indices of the last call
  prefilter::ScanScratch prefilter;  ///< candidate bitmap of the last scan
};

/// What the prefilter did for one MatchIntoPrefiltered call.
enum class PrefilterOutcome : uint8_t {
  kDisabled,       ///< mode off / empty set: the plain DFA path ran
  kSkipped,        ///< empty candidate bitmap: the DFA never ran
  kCandidateHit,   ///< candidates fell through and at least one matched
  kCandidateMiss,  ///< candidates fell through but none matched (false cand.)
};

/// An immutable, execution-optimized compilation of a SignatureSet, tagged
/// with the feed version it was built from. This is the unit the detection
/// gateway hot-swaps RCU-style: readers grab a shared_ptr<const
/// CompiledSignatureSet> from an atomic slot, finish matching on that epoch,
/// and the old epoch is reclaimed when the last in-flight match drops it.
///
/// "Compiled" is literal: the CSR trie Aho–Corasick automaton of the source
/// set is flattened into a dense DFA transition table (`num_states x 256`
/// int32, filled by row inheritance) with failure links resolved and
/// per-state output closures precomputed in CSR form. Scanning a packet is
/// then one table load per byte — no edge search, no failure-chain walking —
/// which is what makes inline detection at 100k+ packets/s per core feasible.
///
/// Thread safety: all methods are const and touch only immutable state plus
/// the caller-owned scratch, so one instance may be shared by any number of
/// threads without synchronization.
class CompiledSignatureSet {
 public:
  /// Compiles `set` (typically a copy of SignatureServer::signatures()).
  /// `version` is the feed version the set corresponds to.
  explicit CompiledSignatureSet(SignatureSet set, uint64_t version = 0);

  /// Fills `scratch->hits` with the indices of signatures whose tokens all
  /// occur in `content` and whose host scope (if any) equals `host_domain`
  /// (same contract as SignatureSet::Match). Returns the number of hits.
  size_t MatchInto(std::string_view content, std::string_view host_domain,
                   MatchScratch* scratch) const;

  /// True iff MatchInto(...) would report at least one hit.
  bool Matches(std::string_view content, std::string_view host_domain,
               MatchScratch* scratch) const {
    return MatchInto(content, host_domain, scratch) > 0;
  }

  /// MatchInto through the rare-token prefilter compiled with this epoch:
  /// scans `content` first and (a) returns 0 without touching the DFA when
  /// no signature is a candidate, or (b) runs the DFA but checks only
  /// candidate signatures. Hits are bit-identical to MatchInto in content,
  /// order, and count (the prefilter never drops a signature the DFA would
  /// match; see tests/fuzz_prefilter_test.cc for the differential proof). Pass
  /// prefilter::Mode::kOff to bypass the prefilter (identical to MatchInto,
  /// outcome kDisabled). `outcome`, if non-null, reports which path ran.
  size_t MatchIntoPrefiltered(std::string_view content,
                              std::string_view host_domain,
                              MatchScratch* scratch, prefilter::Mode mode,
                              PrefilterOutcome* outcome = nullptr) const;

  /// The prefilter compiled alongside the DFA (empty for an empty set).
  const prefilter::Prefilter& prefilter() const { return prefilter_; }

  uint64_t version() const { return version_; }
  const SignatureSet& set() const { return set_; }
  size_t num_signatures() const { return set_.size(); }
  size_t num_tokens() const { return num_tokens_; }
  size_t num_states() const { return num_states_; }
  /// Dense-table footprint in bytes (capacity planning / metrics).
  size_t table_bytes() const {
    return next_.size() * sizeof(int32_t) +
           out_patterns_.size() * sizeof(uint32_t) +
           out_begin_.size() * sizeof(uint32_t);
  }

 private:
  SignatureSet set_;
  uint64_t version_ = 0;
  size_t num_tokens_ = 0;
  size_t num_states_ = 0;
  std::vector<int32_t> next_;         ///< dense delta: next_[state * 256 + byte]
  std::vector<uint32_t> out_begin_;   ///< CSR offsets into out_patterns_
  std::vector<uint32_t> out_patterns_;  ///< output closure per state
  /// Rare-token prefilter compiled with the epoch (MatchIntoPrefiltered).
  /// The gateway matches through MatchInto and never reads it.
  prefilter::Prefilter prefilter_;

  /// Shared DFA scan: marks token presence in scratch->seen (the loop body
  /// of MatchInto, reused by the candidate-restricted path).
  void ScanTokens(std::string_view content, MatchScratch* scratch) const;
  /// Evaluates signature `s` against scratch->seen + host scope.
  bool SignatureHolds(size_t s, std::string_view host_domain,
                      const MatchScratch& scratch) const;
};

}  // namespace leakdet::match

#endif  // LEAKDET_MATCH_COMPILED_SET_H_
