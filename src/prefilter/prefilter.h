#ifndef LEAKDET_PREFILTER_PREFILTER_H_
#define LEAKDET_PREFILTER_PREFILTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace leakdet::prefilter {

/// How match::CompiledSignatureSet::MatchIntoPrefiltered uses the
/// prefilter. Scan itself has one portable kernel and runs it for every
/// mode.
enum class Mode : uint8_t {
  kAuto = 0,  ///< resolves to kScalar
  kOff,       ///< bypass the prefilter entirely (every packet hits the DFA)
  kScalar,    ///< scan with the portable kernel
};

/// Collapses a requested mode to a concrete one: kAuto becomes kScalar,
/// every other mode is returned as is.
Mode Resolve(Mode requested);

struct PrefilterOptions {
  /// Tokens shorter than this can't anchor a 4-byte window and are skipped
  /// during rare-token selection (must be >= 4; the window size is fixed).
  size_t min_token_len = 4;
  /// Corpus frequency of a token — lower is rarer; the selector picks the
  /// minimum per signature. When unset, the cross-signature document
  /// frequency (how many signatures contain the token) stands in for corpus
  /// frequency: the serving layer never sees the training corpus, and a
  /// token shared by many signatures is exactly the kind of common
  /// boilerplate ("HTTP/1.1", "imei=") that makes a poor rare anchor.
  std::function<uint64_t(std::string_view)> token_frequency;
};

/// Per-thread reusable state for Scan (mirrors match::MatchScratch: owning
/// one per worker keeps the hot path allocation-free after warm-up).
struct ScanScratch {
  /// Candidate bitmap, one bit per signature index, little-endian words.
  std::vector<uint64_t> bits;
};

/// Multi-pattern prefilter over one rare token per conjunction signature
/// (Kuzuno & Tonami's signatures are conjunctions of rare literal tokens, so
/// one missing token disproves the whole signature).
///
/// Build time: per signature, pick the rarest token of length >= 4 and
/// insert the hash of its first 4 bytes into (a) a 64 Kbit bloom screen and
/// (b) a bucketed hash table of 16-slot groups (byte tags + exact 4-byte
/// windows + CSR signature lists). Signatures with no usable token are
/// "always candidates": their bit is pre-set on every scan, so the filter
/// admits false positives but never false negatives.
///
/// Scan time: slide a 4-byte window over the payload; each window's hash is
/// screened against the bloom, and only bloom survivors probe the table. A
/// payload containing a signature's selected token always sets that
/// signature's bit, because every occurrence of the token starts with its
/// first 4 bytes.
///
/// Thread safety: immutable after Build; share one instance across any
/// number of threads, each with its own ScanScratch.
class Prefilter {
 public:
  Prefilter() = default;

  /// `sig_tokens[i]` is the token list of signature i (empty conjunctions
  /// get no bit: they never match, mirroring the exact matcher).
  static Prefilter Build(const std::vector<std::vector<std::string>>& sig_tokens,
                         const PrefilterOptions& options = {});

  /// Fills `scratch->bits` with the candidate bitmap for `payload`; every
  /// `mode` runs the same kernel. Returns true iff any candidate bit is
  /// set — false means no signature can match `payload` and the DFA can be
  /// skipped entirely.
  bool Scan(std::string_view payload, ScanScratch* scratch,
            Mode mode = Mode::kAuto) const;

  /// True iff signature `sig` is marked candidate in `scratch` (helper for
  /// tests and the restricted matcher).
  static bool IsCandidate(const ScanScratch& scratch, size_t sig) {
    return (scratch.bits[sig >> 6] >> (sig & 63)) & 1;
  }

  size_t num_signatures() const { return num_signatures_; }
  /// Distinct 4-byte windows in the table.
  size_t num_windows() const { return num_windows_; }
  /// Signatures whose bit is pre-set on every scan.
  size_t num_always_candidates() const { return num_always_; }
  /// The rare token selected for signature `sig` ("" if it is an
  /// always-candidate or has no tokens).
  const std::string& selected_token(size_t sig) const {
    return selected_[sig];
  }
  /// Table footprint in bytes (capacity planning / statusz).
  size_t table_bytes() const;
  size_t num_buckets() const { return bucket_mask_ == 0 ? 0 : bucket_mask_ + 1; }

 private:
  size_t num_signatures_ = 0;
  size_t num_windows_ = 0;
  size_t num_always_ = 0;
  uint32_t bucket_mask_ = 0;  ///< buckets - 1; 0 = empty table
  std::vector<std::string> selected_;   ///< per-sig rare token ("" = none)
  std::vector<uint64_t> always_mask_;   ///< pre-set candidate words
  std::vector<uint8_t> bloom_;          ///< 8 KiB bit screen over window hashes
  std::vector<uint8_t> tags_;           ///< per-slot 1-byte tag
  std::vector<uint16_t> used_;          ///< per-bucket occupancy bitmask
  std::vector<uint8_t> overflow_;       ///< bucket overflowed into successor
  std::vector<uint32_t> windows_;       ///< per-slot exact 4-byte window
  std::vector<uint32_t> range_lo_;      ///< per-slot CSR begin into sig_ids_
  std::vector<uint32_t> range_hi_;      ///< per-slot CSR end
  std::vector<uint32_t> sig_ids_;       ///< CSR storage: signatures per window
};

}  // namespace leakdet::prefilter

#endif  // LEAKDET_PREFILTER_PREFILTER_H_
