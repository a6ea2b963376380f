#include "match/signature.h"

#include <unordered_map>

#include "util/strutil.h"

namespace leakdet::match {

namespace {
constexpr std::string_view kFeedHeader = "leakdet-signatures v1";
}  // namespace

SignatureSet::SignatureSet(std::vector<ConjunctionSignature> signatures)
    : signatures_(std::move(signatures)) {
  BuildIndex();
}

SignatureSet::SignatureSet(const SignatureSet& other)
    : signatures_(other.signatures_) {
  BuildIndex();
}

SignatureSet& SignatureSet::operator=(const SignatureSet& other) {
  if (this != &other) {
    signatures_ = other.signatures_;
    BuildIndex();
  }
  return *this;
}

void SignatureSet::BuildIndex() {
  std::unordered_map<std::string, uint32_t> vocab_index;
  sig_tokens_.clear();
  vocab_.clear();
  for (const ConjunctionSignature& sig : signatures_) {
    std::vector<uint32_t> ids;
    ids.reserve(sig.tokens.size());
    for (const std::string& tok : sig.tokens) {
      auto [it, inserted] =
          vocab_index.emplace(tok, static_cast<uint32_t>(vocab_.size()));
      if (inserted) vocab_.push_back(tok);
      ids.push_back(it->second);
    }
    sig_tokens_.push_back(std::move(ids));
  }
  automaton_ = std::make_unique<AhoCorasick>(vocab_);
}

std::vector<size_t> SignatureSet::Match(std::string_view content,
                                        std::string_view host_domain) const {
  std::vector<size_t> hits;
  if (signatures_.empty()) return hits;
  std::vector<bool> seen(vocab_.size(), false);
  automaton_->MarkPresent(content, &seen);
  for (size_t s = 0; s < signatures_.size(); ++s) {
    const ConjunctionSignature& sig = signatures_[s];
    if (!sig.host_scope.empty() && !host_domain.empty() &&
        sig.host_scope != host_domain) {
      continue;
    }
    if (sig.tokens.empty()) continue;  // never match an empty conjunction
    bool all = true;
    for (uint32_t t : sig_tokens_[s]) {
      if (!seen[t]) {
        all = false;
        break;
      }
    }
    if (all) hits.push_back(s);
  }
  return hits;
}

std::string SignatureSet::Serialize() const {
  return SerializeConjunctions(kFeedHeader, signatures_);
}

StatusOr<SignatureSet> SignatureSet::Deserialize(std::string_view text) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<ConjunctionSignature> sigs,
                           ParseConjunctions(kFeedHeader, text));
  return SignatureSet(std::move(sigs));
}

StatusOr<std::vector<FeedBlock>> ReadFeedBlocks(std::string_view text,
                                                std::string_view header) {
  std::vector<std::string_view> lines = Split(text, '\n');
  if (lines.empty() || TrimWhitespace(lines[0]) != header) {
    return Status::Corruption("bad signature file header, want '" +
                              std::string(header) + "'");
  }
  std::vector<FeedBlock> blocks;
  bool open = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = TrimWhitespace(lines[i]);
    if (line.empty()) continue;
    if (!open) {
      if (!line.starts_with("signature ")) {
        return Status::Corruption("expected 'signature <id>' line");
      }
      blocks.push_back(FeedBlock{line.substr(10), {}});
      open = true;
    } else if (line == "end") {
      open = false;
    } else {
      blocks.back().lines.push_back(line);
    }
  }
  if (open) return Status::Corruption("unterminated signature block");
  return blocks;
}

StatusOr<uint32_t> ParseClusterSize(std::string_view value) {
  LEAKDET_ASSIGN_OR_RETURN(uint64_t n, ParseUint64(value));
  if (n > UINT32_MAX) return Status::Corruption("cluster_size above 2^32-1");
  return static_cast<uint32_t>(n);
}

std::string SerializeConjunctions(
    std::string_view header,
    const std::vector<ConjunctionSignature>& signatures) {
  std::string out = std::string(header) + "\n";
  for (const ConjunctionSignature& sig : signatures) {
    out += "signature " + sig.id + "\n";
    out += "host " + (sig.host_scope.empty() ? "-" : sig.host_scope) + "\n";
    out += "cluster_size " + std::to_string(sig.cluster_size) + "\n";
    for (const std::string& tok : sig.tokens) {
      out += "token " + HexEncode(tok) + "\n";
    }
    out += "end\n";
  }
  return out;
}

StatusOr<std::vector<ConjunctionSignature>> ParseConjunctions(
    std::string_view header, std::string_view text) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<FeedBlock> blocks,
                           ReadFeedBlocks(text, header));
  std::vector<ConjunctionSignature> sigs;
  sigs.reserve(blocks.size());
  for (const FeedBlock& block : blocks) {
    ConjunctionSignature sig;
    sig.id = std::string(block.id);
    for (std::string_view line : block.lines) {
      if (line.starts_with("host ")) {
        std::string_view h = line.substr(5);
        sig.host_scope = (h == "-") ? "" : std::string(h);
      } else if (line.starts_with("cluster_size ")) {
        LEAKDET_ASSIGN_OR_RETURN(sig.cluster_size,
                                 ParseClusterSize(line.substr(13)));
      } else if (line.starts_with("token ")) {
        LEAKDET_ASSIGN_OR_RETURN(std::string tok, HexDecode(line.substr(6)));
        sig.tokens.push_back(std::move(tok));
      } else {
        return Status::Corruption("unknown signature attribute line");
      }
    }
    sigs.push_back(std::move(sig));
  }
  return sigs;
}

}  // namespace leakdet::match
