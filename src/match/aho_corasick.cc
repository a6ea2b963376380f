#include "match/aho_corasick.h"

#include <algorithm>
#include <map>

namespace leakdet::match {

AhoCorasick::AhoCorasick(const std::vector<std::string>& patterns)
    : num_patterns_(patterns.size()) {
  // Build the trie with per-node maps, then freeze it into the flat arrays.
  std::vector<std::map<uint8_t, int32_t>> next(1);  // root
  std::vector<std::vector<uint32_t>> out(1);
  for (uint32_t id = 0; id < patterns.size(); ++id) {
    const std::string& p = patterns[id];
    if (p.empty()) continue;
    int32_t cur = 0;
    for (char ch : p) {
      auto [it, inserted] = next[static_cast<size_t>(cur)].try_emplace(
          static_cast<uint8_t>(ch), static_cast<int32_t>(next.size()));
      cur = it->second;
      if (inserted) {
        next.emplace_back();
        out.emplace_back();
      }
    }
    out[static_cast<size_t>(cur)].push_back(id);
  }

  const size_t n = next.size();
  edge_begin_.reserve(n + 1);
  out_begin_.reserve(n + 1);
  edge_begin_.push_back(0);
  out_begin_.push_back(0);
  for (size_t u = 0; u < n; ++u) {
    for (auto [c, child] : next[u]) {
      edge_label_.push_back(c);
      edge_child_.push_back(child);
    }
    edge_begin_.push_back(static_cast<uint32_t>(edge_label_.size()));
    out_.insert(out_.end(), out[u].begin(), out[u].end());
    out_begin_.push_back(static_cast<uint32_t>(out_.size()));
  }
  for (auto [c, child] : next[0]) root_next_[c] = child;

  // Failure and report links in BFS order: a node's fail target is
  // shallower, so its own links are final by the time they are read.
  fail_.assign(n, 0);
  report_.assign(n, -1);
  std::vector<int32_t> queue(edge_child_.begin(),
                             edge_child_.begin() + edge_begin_[1]);
  queue.reserve(n);
  for (size_t head = 0; head < queue.size(); ++head) {
    const int32_t u = queue[head];
    const int32_t f = fail_[static_cast<size_t>(u)];
    report_[static_cast<size_t>(u)] =
        HasOutput(f) ? f : report_[static_cast<size_t>(f)];
    for (uint32_t e = edge_begin_[static_cast<size_t>(u)];
         e < edge_begin_[static_cast<size_t>(u) + 1]; ++e) {
      const int32_t v = edge_child_[e];
      fail_[static_cast<size_t>(v)] = Step(f, edge_label_[e]);
      queue.push_back(v);
    }
  }
}

int32_t AhoCorasick::Child(int32_t state, uint8_t c) const {
  const uint8_t* begin =
      edge_label_.data() + edge_begin_[static_cast<size_t>(state)];
  const uint8_t* end =
      edge_label_.data() + edge_begin_[static_cast<size_t>(state) + 1];
  const uint8_t* it = std::lower_bound(begin, end, c);
  return it != end && *it == c ? edge_child_[it - edge_label_.data()] : -1;
}

int32_t AhoCorasick::Step(int32_t state, uint8_t c) const {
  while (state != 0) {
    int32_t child = Child(state, c);
    if (child >= 0) return child;
    state = fail_[static_cast<size_t>(state)];
  }
  return root_next_[c];
}

std::vector<uint32_t> AhoCorasick::OutputClosure(int32_t state) const {
  std::vector<uint32_t> out;
  ForEachOutput(state, [&out](uint32_t id) { out.push_back(id); });
  return out;
}

std::vector<int32_t> AhoCorasick::DenseTransitions() const {
  std::vector<int32_t> table(num_nodes() * 256);
  std::copy(root_next_.begin(), root_next_.end(), table.begin());
  std::vector<int32_t> queue(edge_child_.begin(),
                             edge_child_.begin() + edge_begin_[1]);
  queue.reserve(num_nodes());
  for (size_t head = 0; head < queue.size(); ++head) {
    const size_t u = static_cast<size_t>(queue[head]);
    int32_t* row = table.data() + u * 256;
    std::copy_n(table.data() + static_cast<size_t>(fail_[u]) * 256, 256, row);
    for (uint32_t e = edge_begin_[u]; e < edge_begin_[u + 1]; ++e) {
      row[edge_label_[e]] = edge_child_[e];
      queue.push_back(edge_child_[e]);
    }
  }
  return table;
}

std::vector<AhoCorasick::Match> AhoCorasick::FindAll(
    std::string_view text) const {
  std::vector<Match> matches;
  int32_t state = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    state = Step(state, static_cast<uint8_t>(text[i]));
    ForEachOutput(state, [&matches, i](uint32_t id) {
      matches.push_back(Match{id, i + 1});
    });
  }
  return matches;
}

void AhoCorasick::MarkPresent(std::string_view text,
                              std::vector<bool>* seen) const {
  Scan(text, 0, [seen](uint32_t id) { (*seen)[id] = true; });
}

bool AhoCorasick::AnyMatch(std::string_view text) const {
  int32_t state = 0;
  return AnyMatch(text, &state);
}

bool AhoCorasick::AnyMatch(std::string_view text, int32_t* state) const {
  for (char ch : text) {
    *state = Step(*state, static_cast<uint8_t>(ch));
    if (HasOutput(*state) || report_[static_cast<size_t>(*state)] != -1) {
      return true;
    }
  }
  return false;
}

}  // namespace leakdet::match
