#ifndef LEAKDET_MATCH_AHO_CORASICK_H_
#define LEAKDET_MATCH_AHO_CORASICK_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace leakdet::match {

/// Aho–Corasick multi-pattern matcher. Built once over the token vocabulary
/// of a signature set; a single pass over a packet then reports every token
/// occurrence, which makes conjunction-signature evaluation O(packet bytes +
/// matches) regardless of how many signatures are deployed.
///
/// The trie is stored flat (CSR): node u's edges are the contiguous range
/// [edge_begin_[u], edge_begin_[u + 1]) of shared label/child arrays, sorted
/// by label, and its patterns a range of one output array. The root keeps
/// a dense 256-entry row, so the common fall-back-to-root step is one load.
class AhoCorasick {
 public:
  /// Builds the automaton. Empty patterns are ignored; duplicate patterns
  /// share one id (the first). Pattern ids are indices into `patterns`.
  explicit AhoCorasick(const std::vector<std::string>& patterns);

  /// One pattern occurrence in a scanned text.
  struct Match {
    uint32_t pattern;  ///< index into the constructor's `patterns`
    size_t end;        ///< exclusive end offset in the text
  };

  /// All pattern occurrences in `text` (including overlapping ones).
  std::vector<Match> FindAll(std::string_view text) const;

  /// Sets `seen[p] = true` for every pattern p occurring in `text`.
  /// `seen->size()` must equal num_patterns(). Cheaper than FindAll when only
  /// presence matters (conjunction evaluation).
  void MarkPresent(std::string_view text, std::vector<bool>* seen) const;

  /// Scans `text` from `state` (0 begins a text), calling `fn(pattern)` for
  /// every pattern occurrence, and returns the state after the last byte.
  /// A text fed in pieces, each scanned from the state the previous piece
  /// returned, reports exactly what one scan of the joined text does.
  template <typename Fn>
  int32_t Scan(std::string_view text, int32_t state, const Fn& fn) const {
    for (char ch : text) {
      state = Step(state, static_cast<uint8_t>(ch));
      ForEachOutput(state, fn);
    }
    return state;
  }

  /// True iff any pattern occurs in `text`.
  bool AnyMatch(std::string_view text) const;

  /// True iff a pattern ends in `text` scanned from `*state`, stopping at
  /// the first; `*state` is left at the last byte scanned, so a text can be
  /// fed in pieces as with Scan.
  bool AnyMatch(std::string_view text, int32_t* state) const;

  size_t num_patterns() const { return num_patterns_; }
  size_t num_nodes() const { return fail_.size(); }

  /// Resolved goto transition: the state reached from `state` on byte `c`
  /// after following failure links (i.e. the delta function of the
  /// equivalent DFA). Exposed so CompiledSignatureSet can flatten the
  /// automaton into a dense transition table.
  int32_t Step(int32_t state, uint8_t c) const;

  /// Every pattern that ends at `state`, including those reached through the
  /// report (fail-output) chain. Companion of Step() for DFA flattening.
  std::vector<uint32_t> OutputClosure(int32_t state) const;

  /// The dense delta table of the equivalent DFA, `num_nodes() x 256`:
  /// entry [s * 256 + c] == Step(s, c). Rows are filled in BFS order, each
  /// a copy of its fail state's (shallower, so already final) row with the
  /// node's own trie edges written over it.
  std::vector<int32_t> DenseTransitions() const;

 private:
  /// The trie child of `state` on `c`, or -1.
  int32_t Child(int32_t state, uint8_t c) const;
  /// True iff a pattern ends at `state` itself.
  bool HasOutput(int32_t state) const {
    return out_begin_[static_cast<size_t>(state)] !=
           out_begin_[static_cast<size_t>(state) + 1];
  }
  /// Every pattern at `state` and up its report chain, passed to `fn`.
  template <typename Fn>
  void ForEachOutput(int32_t state, const Fn& fn) const {
    for (int32_t r = state; r != -1; r = report_[static_cast<size_t>(r)]) {
      for (uint32_t i = out_begin_[static_cast<size_t>(r)];
           i < out_begin_[static_cast<size_t>(r) + 1]; ++i) {
        fn(out_[i]);
      }
    }
  }

  std::array<int32_t, 256> root_next_{};  ///< root's child on c, else 0
  std::vector<uint32_t> edge_begin_;      ///< CSR offsets, num_nodes() + 1
  std::vector<uint8_t> edge_label_;       ///< sorted within each node
  std::vector<int32_t> edge_child_;
  std::vector<int32_t> fail_;
  std::vector<int32_t> report_;  ///< next node up the fail chain with output
  std::vector<uint32_t> out_begin_;  ///< CSR offsets into out_
  std::vector<uint32_t> out_;        ///< patterns ending at each node
  size_t num_patterns_ = 0;
};

}  // namespace leakdet::match

#endif  // LEAKDET_MATCH_AHO_CORASICK_H_
