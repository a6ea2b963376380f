#ifndef LEAKDET_PREFILTER_SCAN_KERNELS_H_
#define LEAKDET_PREFILTER_SCAN_KERNELS_H_

// Internals of Prefilter::Build and Prefilter::Scan: the window hash, the
// table layout, and the portable scan kernel. The kernel walks every 4-byte
// window of the payload, screens its hash against the bloom bit array, and
// marks the signatures of table-confirmed windows in the candidate bitmap.

#include <cstdint>
#include <cstring>

namespace leakdet::prefilter::internal {

/// Slots per bucket (one 16-bit occupancy mask each).
inline constexpr size_t kGroupSize = 16;
/// Bloom screen size: 64 Kbit = 8 KiB, L1-resident, indexed by the low 16
/// hash bits. With W distinct windows the screen passes ~W/65536 of random
/// window positions — under 2% even at 1000 signatures.
inline constexpr size_t kBloomBytes = 8192;

/// Borrowed, immutable view of the Prefilter's tables (valid for the
/// lifetime of the owning Prefilter).
struct Tables {
  const uint8_t* bloom;
  const uint8_t* tags;        ///< [bucket * kGroupSize + slot]
  const uint16_t* used;       ///< per-bucket occupancy bitmask
  const uint8_t* overflow;    ///< per-bucket "insertion spilled past me"
  const uint32_t* windows;    ///< per-slot exact window value
  const uint32_t* range_lo;   ///< per-slot CSR begin into sig_ids
  const uint32_t* range_hi;   ///< per-slot CSR end
  const uint32_t* sig_ids;
  uint32_t bucket_mask;
};

/// 4 payload bytes as a little-endian word (memcpy compiles to one load).
inline uint32_t LoadWindow(const uint8_t* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Multiply-xorshift mix of a window. Bit usage: [0,16) bloom index and bucket,
/// [16,24) tag. Bucket and bloom bits may overlap — correctness comes from
/// the exact window compare, the shared low bits just correlate which
/// bucket a bloom survivor probes.
inline uint32_t HashWindow(uint32_t w) {
  uint32_t h = w * 0x9E3779B1u;
  h ^= h >> 15;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  return h;
}

inline bool BloomTest(const uint8_t* bloom, uint32_t hash) {
  uint32_t bit = hash & 0xFFFFu;
  return (bloom[bit >> 3] >> (bit & 7)) & 1;
}

inline uint8_t TagOf(uint32_t hash) {
  return static_cast<uint8_t>(hash >> 16);
}

inline void MarkSignatures(const Tables& t, size_t slot, uint64_t* bits) {
  for (uint32_t i = t.range_lo[slot]; i < t.range_hi[slot]; ++i) {
    uint32_t sig = t.sig_ids[i];
    bits[sig >> 6] |= uint64_t{1} << (sig & 63);
  }
}

/// Bucket probe: walk the occupancy mask, compare tags then exact windows,
/// follow the overflow chain.
inline void ProbeScalar(const Tables& t, uint32_t hash, uint32_t window,
                        uint64_t* bits) {
  uint8_t tag = TagOf(hash);
  uint32_t bucket = hash & t.bucket_mask;
  while (true) {
    uint16_t occupied = t.used[bucket];
    while (occupied != 0) {
      unsigned s = static_cast<unsigned>(__builtin_ctz(occupied));
      occupied &= static_cast<uint16_t>(occupied - 1);
      size_t slot = bucket * kGroupSize + s;
      if (t.tags[slot] == tag && t.windows[slot] == window) {
        MarkSignatures(t, slot, bits);
      }
    }
    if (!t.overflow[bucket]) return;
    bucket = (bucket + 1) & t.bucket_mask;
  }
}

/// The scan kernel: every window of `data`, bloom-screened, then probed.
void ScanScalar(const Tables& t, const uint8_t* data, size_t len,
                uint64_t* bits);

}  // namespace leakdet::prefilter::internal

#endif  // LEAKDET_PREFILTER_SCAN_KERNELS_H_
