#include "federation/witness.h"

#include <algorithm>
#include <unordered_map>

#include "match/aho_corasick.h"
#include "util/rng.h"

namespace leakdet::federation {

uint64_t DeviceWitnessHash(uint64_t device_key) {
  // Hashing (rather than shipping keys) keeps raw device identity out of
  // the exchanged exports; collisions only ever *under*-count distinct
  // devices, which is the safe direction for a privacy threshold.
  return Mix64(device_key);
}

void WitnessTable::Observe(const std::string& token, uint64_t device_hash) {
  std::vector<uint64_t>& set = tokens_[token];
  auto it = std::lower_bound(set.begin(), set.end(), device_hash);
  if (it != set.end() && *it == device_hash) return;
  if (set.size() >= cap_) {
    // Keep the cap smallest: a hash above the current maximum cannot enter.
    if (device_hash > set.back()) return;
    set.pop_back();
    it = std::lower_bound(set.begin(), set.end(), device_hash);
  }
  set.insert(it, device_hash);
}

size_t WitnessTable::DistinctDevices(const std::string& token) const {
  auto it = tokens_.find(token);
  return it == tokens_.end() ? 0 : it->second.size();
}

bool WitnessTable::MergeFrom(const WitnessTable& other) {
  if (other.cap_ != cap_) return false;
  for (const auto& [token, theirs] : other.tokens_) {
    std::vector<uint64_t>& ours = tokens_[token];
    if (ours.empty()) {
      ours = theirs;
      continue;
    }
    std::vector<uint64_t> merged;
    merged.reserve(ours.size() + theirs.size());
    std::set_union(ours.begin(), ours.end(), theirs.begin(), theirs.end(),
                   std::back_inserter(merged));
    if (merged.size() > cap_) merged.resize(cap_);
    ours = std::move(merged);
  }
  return true;
}

WitnessTable BuildWitnessTable(const std::vector<std::string>& tokens,
                               const std::vector<WitnessRecord>& corpus,
                               size_t cap) {
  WitnessTable table(cap);
  // Distinct patterns only; AhoCorasick maps duplicates to the first id, so
  // dedupe up front and fan the result back out to every alias below.
  std::vector<std::string> patterns;
  std::unordered_map<std::string, size_t> index;
  for (const std::string& tok : tokens) {
    if (tok.empty()) continue;
    if (index.emplace(tok, patterns.size()).second) patterns.push_back(tok);
  }
  if (patterns.empty()) return table;
  match::AhoCorasick ac(patterns);
  std::vector<bool> seen;
  for (const WitnessRecord& rec : corpus) {
    seen.assign(patterns.size(), false);
    ac.MarkPresent(rec.content, &seen);
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (seen[i]) table.Observe(patterns[i], rec.device_hash);
    }
  }
  return table;
}

}  // namespace leakdet::federation
