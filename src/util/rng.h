#ifndef LEAKDET_UTIL_RNG_H_
#define LEAKDET_UTIL_RNG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leakdet {

/// One SplitMix64 step as a pure function: the golden-ratio increment, then
/// the full-avalanche finalizer. Cheap and invertible; used wherever ids or
/// seeds that are often sequential must spread uniformly (shard and ring
/// placement, per-device streams, fault plans, witness hashes).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derives a stream-specific seed from a base seed. `MixSeed(seed, 0)` is
/// the identity, so stream 0 reproduces the historical single-shot stream
/// (published goldens and one-shot batch runs keep their seeds); every other
/// stream index is scrambled through a SplitMix64 finalizer, so consecutive
/// indices (retrain epochs, shard ids) give statistically independent Rng
/// streams instead of the correlated ones `seed + k * constant` produces.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Deterministic, seedable pseudo-random generator (xoshiro256** seeded via
/// SplitMix64). All randomness in leakdet flows through explicitly-passed
/// `Rng` instances so every experiment is reproducible from a single seed.
class Rng {
 public:
  /// Seeds the generator. Identical seeds produce identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling, so the distribution is exactly uniform.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli draw with probability `p` of true (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Uniform random ASCII string over the given alphabet.
  std::string RandomString(size_t length, std::string_view alphabet);

  /// Uniform random decimal-digit string of `length` digits.
  std::string RandomDigits(size_t length);

  /// Uniform random lowercase-hex string of `length` characters.
  std::string RandomHex(size_t length);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with a positive sum.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Samples `k` distinct indices from [0, n) uniformly (k <= n), in
  /// selection order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
};

/// Zipf(s, n) sampler over ranks {0, .., n-1}: P(rank k) ∝ 1/(k+1)^s.
/// Used to model the long-tailed destination-popularity distribution the
/// paper observes (Table II / Figure 2). Sampling is O(log n) via a
/// precomputed CDF.
class ZipfSampler {
 public:
  /// Builds the sampler. `n` must be >= 1; `s` is the skew exponent.
  ZipfSampler(size_t n, double s);

  /// Draws a rank in [0, n).
  size_t Sample(Rng* rng) const;

  /// Probability mass of `rank`.
  double Pmf(size_t rank) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace leakdet

#endif  // LEAKDET_UTIL_RNG_H_
