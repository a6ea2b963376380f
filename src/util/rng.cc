#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>
#include <unordered_set>

namespace leakdet {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  const uint64_t z = *state;
  *state += 0x9E3779B97F4A7C15ULL;
  return Mix64(z);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  if (stream == 0) return seed;
  // Two dependent SplitMix64 steps: the first keyed by the stream index, the
  // second by the base seed, so neither flipping a seed bit nor incrementing
  // the stream produces related outputs.
  uint64_t sm = seed ^ Rotl(stream, 32) ^ 0x6C62272E07BB0142ULL;
  uint64_t mixed = SplitMix64(&sm);
  sm = mixed + stream;
  return SplitMix64(&sm);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return UniformDouble() < p;
}

std::string Rng::RandomString(size_t length, std::string_view alphabet) {
  assert(!alphabet.empty());
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += alphabet[UniformInt(alphabet.size())];
  }
  return out;
}

std::string Rng::RandomDigits(size_t length) {
  return RandomString(length, "0123456789");
}

std::string Rng::RandomHex(size_t length) {
  return RandomString(length, "0123456789abcdef");
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    assert(w >= 0);
    total += w;
  }
  assert(total > 0);
  double target = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket.
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  if (k * 3 >= n) {
    // Dense case: partial Fisher–Yates over an index array.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(UniformInt(n - i));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
  // Sparse case: rejection with a hash set.
  std::unordered_set<size_t> seen;
  std::vector<size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    size_t v = static_cast<size_t>(UniformInt(n));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  assert(n >= 1);
  cdf_.resize(n);
  double acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (double& v : cdf_) v /= acc;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  double u = rng->UniformDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(size_t rank) const {
  assert(rank < cdf_.size());
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace leakdet
