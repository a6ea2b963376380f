#ifndef LEAKDET_MATCH_SIGNATURE_H_
#define LEAKDET_MATCH_SIGNATURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "match/aho_corasick.h"
#include "util/statusor.h"

namespace leakdet::match {

/// A conjunction signature (§IV-E, after Polygraph): a packet matches when
/// *every* token occurs in its content. `host_scope` optionally restricts the
/// signature to destinations whose registrable domain equals it — the
/// destination half of the paper's clustering makes signatures
/// advertisement-module specific, and the scope preserves that at match time.
struct ConjunctionSignature {
  std::string id;                   ///< stable identifier ("sig-0003")
  std::vector<std::string> tokens;  ///< invariant tokens; all must occur
  std::string host_scope;           ///< "" = applies to every destination
  uint32_t cluster_size = 0;        ///< #packets in the generating cluster

  friend bool operator==(const ConjunctionSignature& a,
                         const ConjunctionSignature& b) {
    return a.id == b.id && a.tokens == b.tokens &&
           a.host_scope == b.host_scope && a.cluster_size == b.cluster_size;
  }
};

/// A deployed set of conjunction signatures with a shared Aho–Corasick
/// automaton over the token vocabulary: matching a packet against all
/// signatures is one scan of the packet.
class SignatureSet {
 public:
  SignatureSet() = default;
  explicit SignatureSet(std::vector<ConjunctionSignature> signatures);

  /// Copying rebuilds the matcher index (the automaton is not shared).
  SignatureSet(const SignatureSet& other);
  SignatureSet& operator=(const SignatureSet& other);
  SignatureSet(SignatureSet&&) = default;
  SignatureSet& operator=(SignatureSet&&) = default;

  /// Indices of signatures whose tokens all occur in `content` and whose
  /// host scope (if any) equals `host_domain` (pass the packet destination's
  /// registrable domain; pass "" to skip host scoping).
  std::vector<size_t> Match(std::string_view content,
                            std::string_view host_domain = {}) const;

  /// True iff Match(...) would be non-empty.
  bool Matches(std::string_view content,
               std::string_view host_domain = {}) const {
    return !Match(content, host_domain).empty();
  }

  const std::vector<ConjunctionSignature>& signatures() const {
    return signatures_;
  }
  size_t size() const { return signatures_.size(); }
  bool empty() const { return signatures_.empty(); }

  /// Matcher internals, exposed so alternative execution engines (notably
  /// gateway::CompiledSignatureSet's dense-DFA compilation) can reuse the
  /// vocabulary interning and shared automaton instead of rebuilding them.
  const std::vector<std::string>& vocab() const { return vocab_; }
  const std::vector<std::vector<uint32_t>>& sig_token_ids() const {
    return sig_tokens_;
  }
  /// Null only for a default-constructed empty set.
  const AhoCorasick* automaton() const { return automaton_.get(); }

  /// Serializes to a line-oriented text format (tokens hex-encoded so
  /// arbitrary bytes survive). The "signature feed" the on-device component
  /// fetches from the server (§IV-A, Fig. 3).
  std::string Serialize() const;

  /// Parses the Serialize() format.
  static StatusOr<SignatureSet> Deserialize(std::string_view text);

 private:
  void BuildIndex();

  std::vector<ConjunctionSignature> signatures_;
  std::vector<std::string> vocab_;              // distinct tokens
  std::vector<std::vector<uint32_t>> sig_tokens_;  // per-sig vocab ids
  std::unique_ptr<AhoCorasick> automaton_;
};

/// The envelope every signature feed shares: a header line naming the
/// family, then blocks of `signature <id>`, attribute lines, and `end`.
/// Blank lines are ignored everywhere after the header.
struct FeedBlock {
  std::string_view id;
  std::vector<std::string_view> lines;  ///< trimmed, non-blank, before `end`
};

/// Splits `text` into its blocks (views into `text`); Corruption on a wrong
/// header, a line outside a block that is not `signature <id>`, or a block
/// without `end`.
StatusOr<std::vector<FeedBlock>> ReadFeedBlocks(std::string_view text,
                                                std::string_view header);

/// Parses a `cluster_size` value; Corruption above UINT32_MAX.
StatusOr<uint32_t> ParseClusterSize(std::string_view value);

/// The block codec of the two token-list families (conjunction and
/// subsequence): `signature <id>`, `host <domain|->`, `cluster_size <n>`,
/// one `token <hex>` per token (hex so arbitrary bytes survive), `end`.
std::string SerializeConjunctions(
    std::string_view header,
    const std::vector<ConjunctionSignature>& signatures);
StatusOr<std::vector<ConjunctionSignature>> ParseConjunctions(
    std::string_view header, std::string_view text);

}  // namespace leakdet::match

#endif  // LEAKDET_MATCH_SIGNATURE_H_
