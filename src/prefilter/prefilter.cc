#include "prefilter/prefilter.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "prefilter/scan_kernels.h"

namespace leakdet::prefilter {

namespace {

using internal::kBloomBytes;
using internal::kGroupSize;

}  // namespace

Mode Resolve(Mode requested) {
  return requested == Mode::kAuto ? Mode::kScalar : requested;
}

Prefilter Prefilter::Build(
    const std::vector<std::vector<std::string>>& sig_tokens,
    const PrefilterOptions& options) {
  Prefilter pf;
  pf.num_signatures_ = sig_tokens.size();
  pf.selected_.assign(sig_tokens.size(), std::string());
  pf.always_mask_.assign((sig_tokens.size() + 63) / 64, 0);

  const size_t min_len = std::max<size_t>(options.min_token_len, 4);

  // Document frequency of every token across signatures — the standing
  // proxy for corpus frequency when the caller has none (see
  // PrefilterOptions::token_frequency).
  std::unordered_map<std::string_view, uint64_t> doc_freq;
  for (const auto& tokens : sig_tokens) {
    for (const std::string& tok : tokens) ++doc_freq[tok];
  }
  auto frequency = [&](const std::string& tok) -> uint64_t {
    if (options.token_frequency) return options.token_frequency(tok);
    return doc_freq[std::string_view(tok)];
  };

  // Rare-token selection: per signature the (frequency, -length, bytes)
  // minimum among tokens long enough to anchor a window. Deterministic so
  // identical feeds compile to identical prefilters on every node.
  std::map<uint32_t, std::vector<uint32_t>> window_sigs;  // ordered = stable
  for (size_t s = 0; s < sig_tokens.size(); ++s) {
    const std::vector<std::string>& tokens = sig_tokens[s];
    if (tokens.empty()) continue;  // empty conjunctions never match: no bit
    const std::string* best = nullptr;
    uint64_t best_freq = 0;
    for (const std::string& tok : tokens) {
      if (tok.size() < min_len) continue;
      uint64_t freq = frequency(tok);
      if (best == nullptr || freq < best_freq ||
          (freq == best_freq &&
           (tok.size() > best->size() ||
            (tok.size() == best->size() && tok < *best)))) {
        best = &tok;
        best_freq = freq;
      }
    }
    if (best == nullptr) {
      // No token long enough to anchor: the signature must survive every
      // scan, or a short-token signature could be silently disabled.
      pf.always_mask_[s >> 6] |= uint64_t{1} << (s & 63);
      ++pf.num_always_;
      continue;
    }
    pf.selected_[s] = *best;
    window_sigs[internal::LoadWindow(
                    reinterpret_cast<const uint8_t*>(best->data()))]
        .push_back(static_cast<uint32_t>(s));
  }

  pf.num_windows_ = window_sigs.size();
  if (pf.num_windows_ == 0) return pf;

  // Table sizing: 16-slot buckets at <= 50% load. The hash contributes 16
  // bucket bits, so cap at 65536 buckets (1M windows before load creeps up
  // — far beyond any real signature feed).
  size_t want_buckets = (pf.num_windows_ * 2 + kGroupSize - 1) / kGroupSize;
  size_t buckets = 4;
  while (buckets < want_buckets) buckets *= 2;
  buckets = std::min<size_t>(buckets, 65536);
  pf.bucket_mask_ = static_cast<uint32_t>(buckets - 1);

  pf.bloom_.assign(kBloomBytes, 0);
  pf.tags_.assign(buckets * kGroupSize, 0);
  pf.used_.assign(buckets, 0);
  pf.overflow_.assign(buckets, 0);
  pf.windows_.assign(buckets * kGroupSize, 0);
  pf.range_lo_.assign(buckets * kGroupSize, 0);
  pf.range_hi_.assign(buckets * kGroupSize, 0);

  for (const auto& [window, sigs] : window_sigs) {
    uint32_t hash = internal::HashWindow(window);
    uint32_t bloom_bit = hash & 0xFFFFu;
    pf.bloom_[bloom_bit >> 3] |= static_cast<uint8_t>(1u << (bloom_bit & 7));

    uint32_t range_lo = static_cast<uint32_t>(pf.sig_ids_.size());
    pf.sig_ids_.insert(pf.sig_ids_.end(), sigs.begin(), sigs.end());
    uint32_t range_hi = static_cast<uint32_t>(pf.sig_ids_.size());

    // First-fit into the hash bucket, spilling linearly; every bucket we
    // spill past records the overflow so probes know to keep walking.
    uint32_t bucket = hash & pf.bucket_mask_;
    while (pf.used_[bucket] == 0xFFFF) {
      pf.overflow_[bucket] = 1;
      bucket = (bucket + 1) & pf.bucket_mask_;
    }
    unsigned s = static_cast<unsigned>(
        __builtin_ctz(static_cast<uint16_t>(~pf.used_[bucket])));
    pf.used_[bucket] = static_cast<uint16_t>(pf.used_[bucket] | (1u << s));
    size_t slot = bucket * kGroupSize + s;
    pf.tags_[slot] = internal::TagOf(hash);
    pf.windows_[slot] = window;
    pf.range_lo_[slot] = range_lo;
    pf.range_hi_[slot] = range_hi;
  }
  return pf;
}

size_t Prefilter::table_bytes() const {
  return bloom_.size() + tags_.size() + overflow_.size() +
         used_.size() * sizeof(uint16_t) +
         (windows_.size() + range_lo_.size() + range_hi_.size() +
          sig_ids_.size()) *
             sizeof(uint32_t) +
         always_mask_.size() * sizeof(uint64_t);
}

bool Prefilter::Scan(std::string_view payload, ScanScratch* scratch,
                     Mode /*mode*/) const {
  const size_t words = (num_signatures_ + 63) / 64;
  scratch->bits.assign(words, 0);
  if (num_signatures_ == 0) return false;
  for (size_t i = 0; i < words; ++i) scratch->bits[i] = always_mask_[i];

  if (num_windows_ != 0 && payload.size() >= 4) {
    internal::Tables t;
    t.bloom = bloom_.data();
    t.tags = tags_.data();
    t.used = used_.data();
    t.overflow = overflow_.data();
    t.windows = windows_.data();
    t.range_lo = range_lo_.data();
    t.range_hi = range_hi_.data();
    t.sig_ids = sig_ids_.data();
    t.bucket_mask = bucket_mask_;
    internal::ScanScalar(t, reinterpret_cast<const uint8_t*>(payload.data()),
                         payload.size(), scratch->bits.data());
  }

  uint64_t any = 0;
  for (uint64_t word : scratch->bits) any |= word;
  return any != 0;
}

namespace internal {

void ScanScalar(const Tables& t, const uint8_t* data, size_t len,
                uint64_t* bits) {
  for (size_t i = 0; i + 4 <= len; ++i) {
    uint32_t window = LoadWindow(data + i);
    uint32_t hash = HashWindow(window);
    if (BloomTest(t.bloom, hash)) ProbeScalar(t, hash, window, bits);
  }
}

}  // namespace internal

}  // namespace leakdet::prefilter
