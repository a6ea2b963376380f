#include "text/suffix_automaton.h"

#include <algorithm>

namespace leakdet::text {

SuffixAutomaton::SuffixAutomaton(std::string_view s) : source_(s) {
  states_.reserve(2 * s.size() + 2);
  edges_.reserve(3 * s.size());
  root_next_.fill(-1);
  states_.emplace_back();  // root
  last_ = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    Extend(static_cast<uint8_t>(s[i]), static_cast<int32_t>(i + 1));
  }
  // Counting sort by len for ordered passes.
  by_len_.resize(states_.size());
  std::vector<int32_t> cnt(s.size() + 2, 0);
  for (const State& st : states_) cnt[st.len]++;
  for (size_t i = 1; i < cnt.size(); ++i) cnt[i] += cnt[i - 1];
  for (int32_t v = static_cast<int32_t>(states_.size()) - 1; v >= 0; --v) {
    by_len_[--cnt[states_[v].len]] = v;
  }
}

void SuffixAutomaton::SetNext(int32_t state, uint8_t c, int32_t target) {
  if (state == 0) {
    root_next_[c] = target;
    return;
  }
  if (const Edge* e = FindEdge(state, c)) {
    edges_[static_cast<size_t>(e - edges_.data())].target = target;
    return;
  }
  State& st = states_[static_cast<size_t>(state)];
  edges_.push_back(Edge{target, st.edges, c});
  st.edges = static_cast<int32_t>(edges_.size()) - 1;
}

void SuffixAutomaton::Extend(uint8_t c, int32_t pos) {
  int32_t cur = static_cast<int32_t>(states_.size());
  states_.emplace_back();
  states_[cur].len = states_[last_].len + 1;
  states_[cur].first_end = pos;
  int32_t p = last_;
  while (p != -1 && Next(p, c) == -1) {
    SetNext(p, c, cur);
    p = states_[p].link;
  }
  if (p == -1) {
    states_[cur].link = 0;
  } else {
    int32_t q = Next(p, c);
    if (states_[p].len + 1 == states_[q].len) {
      states_[cur].link = q;
    } else {
      int32_t clone = static_cast<int32_t>(states_.size());
      State copy = states_[q];  // link, first_end; edges copied below
      copy.len = states_[p].len + 1;
      copy.edges = -1;
      states_.push_back(copy);
      for (int32_t e = states_[q].edges; e != -1; e = edges_[e].next) {
        edges_.push_back(Edge{edges_[e].target, states_[clone].edges,
                              edges_[e].label});
        states_[clone].edges = static_cast<int32_t>(edges_.size()) - 1;
      }
      while (p != -1 && Next(p, c) == q) {
        SetNext(p, c, clone);
        p = states_[p].link;
      }
      states_[q].link = clone;
      states_[cur].link = clone;
    }
  }
  last_ = cur;
}

bool SuffixAutomaton::ContainsSubstring(std::string_view t) const {
  int32_t cur = 0;
  for (char ch : t) {
    cur = Next(cur, static_cast<uint8_t>(ch));
    if (cur == -1) return false;
  }
  return true;
}

SuffixAutomaton::LcsResult SuffixAutomaton::LongestCommonSubstring(
    std::string_view other) const {
  LcsResult best;
  int32_t cur = 0;
  size_t l = 0;
  for (size_t i = 0; i < other.size(); ++i) {
    uint8_t c = static_cast<uint8_t>(other[i]);
    int32_t next = Next(cur, c);
    while (cur != 0 && next == -1) {
      cur = states_[cur].link;
      l = static_cast<size_t>(states_[cur].len);
      next = Next(cur, c);
    }
    if (next != -1) {
      cur = next;
      ++l;
    } else {
      cur = 0;
      l = 0;
    }
    if (l > best.length) {
      best.length = l;
      best.end_in_other = i + 1;
    }
  }
  return best;
}

}  // namespace leakdet::text
