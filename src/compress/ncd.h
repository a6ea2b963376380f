#ifndef LEAKDET_COMPRESS_NCD_H_
#define LEAKDET_COMPRESS_NCD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "compress/compressor.h"

namespace leakdet::compress {

/// Transparent (heterogeneous) hashing so an `unordered_map` keyed by
/// `std::string` can be probed with a `std::string_view` without
/// materializing a temporary string per lookup.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(std::string_view(s));
  }
};

struct TransparentStringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

/// The NCD formula from precomputed sizes:
///   (C(xy) - min(C(x), C(y))) / max(C(x), C(y)), clamped to [0, 1].
/// Factored out so every NCD evaluation path (the calculator, the matrix
/// builder's size tables) performs bit-identical arithmetic.
double NcdFromSizes(size_t cx, size_t cy, size_t cxy);

/// C(xy) with the concatenation order canonicalized (lexicographically
/// smaller operand first). Real codecs are order-sensitive — C(xy) and
/// C(yx) differ for ~75% of realistic HTTP field pairs — so canonicalizing
/// here is what makes Ncd() a genuinely symmetric distance.
size_t CanonicalPairCompressedSize(const Compressor& compressor,
                                   std::string_view x, std::string_view y);

/// Normalized Compression Distance (Cilibrasi & Vitányi), the paper's §IV-C
/// content metric:
///
///   ncd(x, y) = (C(xy) - min(C(x), C(y))) / max(C(x), C(y))
///
/// where C(s) is the compressed length of s. Values are clamped to [0, 1]
/// (real compressors can slightly overshoot 1). The concatenation order is
/// canonicalized, so ncd(x, y) == ncd(y, x) exactly — the distance matrix
/// builder sizes each unordered pair once and relies on this symmetry. The
/// calculator memoizes single-string sizes C(x), which the clustering
/// distance matrix hits O(M²) times.
class NcdCalculator {
 public:
  /// `compressor` must outlive the calculator. Not owned.
  explicit NcdCalculator(const Compressor* compressor)
      : compressor_(compressor) {}

  /// NCD of `x` and `y`. Both empty => 0. Symmetric: Ncd(x,y) == Ncd(y,x).
  double Ncd(std::string_view x, std::string_view y);

  /// Memoized C(x).
  size_t CompressedSize(std::string_view x);

  /// Number of memoized single-string entries (observability for tests).
  size_t cache_size() const { return cache_.size(); }

  /// CompressedSize() calls served from the memo / requiring a compression.
  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }

 private:
  const Compressor* compressor_;
  std::unordered_map<std::string, size_t, TransparentStringHash,
                     TransparentStringEq>
      cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace leakdet::compress

#endif  // LEAKDET_COMPRESS_NCD_H_
