#include "text/token_extract.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "text/suffix_automaton.h"

namespace leakdet::text {

namespace {

/// Matching pass of the classic multi-string LCS algorithm: for every state
/// of `sam`, the longest match ending in that state that also occurs in `t`.
/// Results are propagated up the suffix-link tree so that every state's value
/// is valid for its own (shorter) strings too. `ms` is overwritten, so one
/// buffer serves every sample.
void MatchLengths(const SuffixAutomaton& sam, std::string_view t,
                  std::vector<int32_t>* ms) {
  ms->assign(sam.num_states(), 0);
  int32_t cur = 0;
  int32_t l = 0;
  for (char ch : t) {
    uint8_t c = static_cast<uint8_t>(ch);
    int32_t next = sam.Next(cur, c);
    while (cur != 0 && next == -1) {
      cur = sam.state(cur).link;
      l = sam.state(cur).len;
      next = sam.Next(cur, c);
    }
    if (next != -1) {
      cur = next;
      ++l;
    } else {
      cur = 0;
      l = 0;
    }
    (*ms)[cur] = std::max((*ms)[cur], l);
  }
  // Propagate to suffix-link ancestors, longest states first.
  const auto& order = sam.StatesByLen();
  for (size_t i = order.size(); i-- > 0;) {
    int32_t v = order[i];
    int32_t p = sam.state(v).link;
    if (p >= 0) {
      (*ms)[p] = std::max((*ms)[p], std::min((*ms)[v], sam.state(p).len));
    }
  }
}

struct Candidate {
  size_t begin;  // interval within the base string
  size_t end;
};

}  // namespace

std::vector<std::string> ExtractInvariantTokens(
    const std::vector<std::string_view>& samples,
    const TokenExtractOptions& options) {
  if (samples.empty()) return {};
  // Base the automaton on the shortest sample: every common substring is a
  // substring of it.
  size_t base_idx = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].size() < samples[base_idx].size()) base_idx = i;
  }
  std::string_view base = samples[base_idx];
  if (base.empty()) return {};

  SuffixAutomaton sam(base);
  // For each state: longest length common to ALL samples.
  std::vector<int32_t> common(sam.num_states());
  for (size_t v = 0; v < sam.num_states(); ++v) {
    common[v] = sam.state(v).len;
  }
  std::vector<int32_t> ms;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i == base_idx) continue;
    MatchLengths(sam, samples[i], &ms);
    for (size_t v = 0; v < sam.num_states(); ++v) {
      common[v] = std::min(common[v], ms[v]);
    }
  }

  // Candidate intervals in `base`: for each state, the suffix of its longest
  // string that is common to all samples, anchored at the first occurrence.
  std::vector<Candidate> cands;
  for (size_t v = 1; v < sam.num_states(); ++v) {
    int32_t len = common[v];
    if (len < static_cast<int32_t>(options.min_token_len)) continue;
    size_t end = static_cast<size_t>(sam.state(v).first_end);
    cands.push_back(Candidate{end - static_cast<size_t>(len), end});
  }
  if (cands.empty()) return {};

  // Prune interval-contained candidates: sort by begin asc, end desc; keep
  // intervals not contained in a previously kept one.
  std::sort(cands.begin(), cands.end(), [](const Candidate& a,
                                           const Candidate& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.end > b.end;
  });
  std::vector<Candidate> kept;
  size_t max_end = 0;
  for (const Candidate& c : cands) {
    if (!kept.empty() && c.end <= max_end) continue;  // contained
    kept.push_back(c);
    max_end = std::max(max_end, c.end);
  }

  // Deduplicate identical contents, then drop any token that is a substring
  // of another survivor (content containment can differ from interval
  // containment when the same bytes recur in `base`).
  std::vector<std::string> tokens;
  {
    std::unordered_set<std::string> seen;
    for (const Candidate& c : kept) {
      std::string tok(base.substr(c.begin, c.end - c.begin));
      if (seen.insert(tok).second) tokens.push_back(std::move(tok));
    }
  }
  std::sort(tokens.begin(), tokens.end(),
            [](const std::string& a, const std::string& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  std::vector<std::string> maximal;
  for (const std::string& tok : tokens) {
    bool contained = false;
    for (const std::string& big : maximal) {
      if (big.find(tok) != std::string::npos) {
        contained = true;
        break;
      }
    }
    if (!contained) maximal.push_back(tok);
    if (options.max_tokens != 0 && maximal.size() >= options.max_tokens) break;
  }
  return maximal;
}

std::vector<std::string> ExtractInvariantTokens(
    const std::vector<std::string>& samples,
    const TokenExtractOptions& options) {
  std::vector<std::string_view> views(samples.begin(), samples.end());
  return ExtractInvariantTokens(views, options);
}

std::string LongestCommonSubstring(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) return std::string();
  SuffixAutomaton sam(a);
  auto r = sam.LongestCommonSubstring(b);
  return std::string(b.substr(r.end_in_other - r.length, r.length));
}

}  // namespace leakdet::text
