#include "match/bayes_signature.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/strutil.h"

namespace leakdet::match {

namespace {

constexpr std::string_view kFeedHeader = "leakdet-bayes-signatures v1";

/// A threshold or weight: the whole of `s` must be one finite number.
StatusOr<double> ParseFiniteDouble(std::string_view s) {
  double value = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || end != s.data() + s.size() ||
      !std::isfinite(value)) {
    return Status::Corruption("bad bayes number '" + std::string(s) + "'");
  }
  return value;
}

}  // namespace

double BayesSignature::Score(std::string_view content) const {
  double score = 0;
  for (const WeightedToken& wt : tokens) {
    if (content.find(wt.token) != std::string_view::npos) {
      score += wt.weight;
    }
  }
  return score;
}

BayesSignatureSet::BayesSignatureSet(std::vector<BayesSignature> signatures)
    : signatures_(std::move(signatures)) {
  std::vector<ConjunctionSignature> token_lists(signatures_.size());
  for (size_t s = 0; s < signatures_.size(); ++s) {
    for (const WeightedToken& wt : signatures_[s].tokens) {
      token_lists[s].tokens.push_back(wt.token);
    }
  }
  index_ = SignatureSet(std::move(token_lists));
  token_refs_.resize(index_.vocab().size());
  for (size_t s = 0; s < signatures_.size(); ++s) {
    const std::vector<uint32_t>& ids = index_.sig_token_ids()[s];
    for (size_t t = 0; t < ids.size(); ++t) {
      token_refs_[ids[t]].emplace_back(static_cast<uint32_t>(s),
                                       signatures_[s].tokens[t].weight);
    }
  }
}

std::vector<double> BayesSignatureSet::Scores(std::string_view content) const {
  std::vector<double> scores(signatures_.size(), 0.0);
  if (signatures_.empty()) return scores;
  std::vector<bool> seen(token_refs_.size(), false);
  index_.automaton()->MarkPresent(content, &seen);
  for (size_t v = 0; v < token_refs_.size(); ++v) {
    if (!seen[v]) continue;
    for (auto [sig, weight] : token_refs_[v]) {
      scores[sig] += weight;
    }
  }
  return scores;
}

std::vector<size_t> BayesSignatureSet::Match(std::string_view content) const {
  std::vector<size_t> hits;
  std::vector<double> scores = Scores(content);
  for (size_t s = 0; s < signatures_.size(); ++s) {
    if (!signatures_[s].tokens.empty() &&
        scores[s] >= signatures_[s].threshold) {
      hits.push_back(s);
    }
  }
  return hits;
}

std::string BayesSignatureSet::Serialize() const {
  std::string out = std::string(kFeedHeader) + "\n";
  char buf[64];
  for (const BayesSignature& sig : signatures_) {
    out += "signature " + sig.id + "\n";
    std::snprintf(buf, sizeof(buf), "%.17g", sig.threshold);
    out += std::string("threshold ") + buf + "\n";
    out += "cluster_size " + std::to_string(sig.cluster_size) + "\n";
    for (const WeightedToken& wt : sig.tokens) {
      std::snprintf(buf, sizeof(buf), "%.17g", wt.weight);
      out += std::string("token ") + buf + " " + HexEncode(wt.token) + "\n";
    }
    out += "end\n";
  }
  return out;
}

StatusOr<BayesSignatureSet> BayesSignatureSet::Deserialize(
    std::string_view text) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<FeedBlock> blocks,
                           ReadFeedBlocks(text, kFeedHeader));
  std::vector<BayesSignature> sigs;
  sigs.reserve(blocks.size());
  for (const FeedBlock& block : blocks) {
    BayesSignature sig;
    sig.id = std::string(block.id);
    for (std::string_view line : block.lines) {
      if (line.starts_with("threshold ")) {
        LEAKDET_ASSIGN_OR_RETURN(sig.threshold,
                                 ParseFiniteDouble(line.substr(10)));
      } else if (line.starts_with("cluster_size ")) {
        LEAKDET_ASSIGN_OR_RETURN(sig.cluster_size,
                                 ParseClusterSize(line.substr(13)));
      } else if (line.starts_with("token ")) {
        std::string_view rest = line.substr(6);
        size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) {
          return Status::Corruption("bayes token needs weight and hex");
        }
        WeightedToken wt;
        LEAKDET_ASSIGN_OR_RETURN(wt.weight,
                                 ParseFiniteDouble(rest.substr(0, sp)));
        LEAKDET_ASSIGN_OR_RETURN(wt.token, HexDecode(rest.substr(sp + 1)));
        sig.tokens.push_back(std::move(wt));
      } else {
        return Status::Corruption("unknown bayes signature attribute");
      }
    }
    sigs.push_back(std::move(sig));
  }
  return BayesSignatureSet(std::move(sigs));
}

}  // namespace leakdet::match
