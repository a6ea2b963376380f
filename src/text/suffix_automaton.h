#ifndef LEAKDET_TEXT_SUFFIX_AUTOMATON_H_
#define LEAKDET_TEXT_SUFFIX_AUTOMATON_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace leakdet::text {

/// Suffix automaton (DAWG) over a single byte string. Recognizes exactly the
/// substrings of the build string; supports linear-time longest-common-
/// substring queries against other strings, which the signature generator
/// uses to extract invariant tokens from packet clusters (§IV-E).
///
/// Edges are flat: the root keeps a dense 256-entry row, and every other
/// state's out-edges are a singly linked list threaded through one shared
/// edge pool, so the whole automaton is a handful of vectors rather than
/// an allocation per state.
class SuffixAutomaton {
 public:
  /// Builds the automaton for `s` in O(|s| σ) worst case; linear in
  /// practice, as only the root has a large out-degree.
  explicit SuffixAutomaton(std::string_view s);

  /// True iff `t` is a substring of the build string.
  bool ContainsSubstring(std::string_view t) const;

  /// Length and end-position (in `other`) of the longest common substring of
  /// the build string and `other`.
  struct LcsResult {
    size_t length = 0;
    size_t end_in_other = 0;  ///< exclusive end index within `other`
  };
  LcsResult LongestCommonSubstring(std::string_view other) const;

  /// Number of automaton states (root included).
  size_t num_states() const { return states_.size(); }

  /// The string the automaton was built over.
  const std::string& source() const { return source_; }

  // --- Low-level state access for multi-string algorithms -----------------

  struct State {
    int32_t link = -1;      ///< suffix link
    int32_t len = 0;        ///< length of longest string in this state's class
    int32_t first_end = 0;  ///< exclusive end index of first occurrence
    int32_t edges = -1;     ///< head of this state's list in the edge pool
  };
  const State& state(size_t i) const { return states_[i]; }

  /// The transition of `state` on `c`, or -1 when there is none.
  int32_t Next(int32_t state, uint8_t c) const {
    if (state == 0) return root_next_[c];
    const Edge* e = FindEdge(state, c);
    return e != nullptr ? e->target : -1;
  }

  /// State indices sorted by increasing `len` (root first). Useful for
  /// bottom-up / top-down passes over the suffix-link tree.
  const std::vector<int32_t>& StatesByLen() const { return by_len_; }

 private:
  struct Edge {
    int32_t target;
    int32_t next;  ///< next edge of the same state, or -1
    uint8_t label;
  };

  const Edge* FindEdge(int32_t state, uint8_t c) const {
    for (int32_t e = states_[static_cast<size_t>(state)].edges; e != -1;
         e = edges_[static_cast<size_t>(e)].next) {
      if (edges_[static_cast<size_t>(e)].label == c) {
        return &edges_[static_cast<size_t>(e)];
      }
    }
    return nullptr;
  }
  /// Sets the transition of `state` on `c`, adding the edge if it is new.
  void SetNext(int32_t state, uint8_t c, int32_t target);
  void Extend(uint8_t c, int32_t pos);

  std::string source_;
  std::vector<State> states_;
  std::vector<Edge> edges_;
  std::array<int32_t, 256> root_next_;  ///< -1 where the root has no edge
  int32_t last_;
  std::vector<int32_t> by_len_;
};

}  // namespace leakdet::text

#endif  // LEAKDET_TEXT_SUFFIX_AUTOMATON_H_
