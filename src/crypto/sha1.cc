#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/strutil.h"

namespace leakdet::crypto {

namespace {

constexpr uint32_t kInit[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                               0x10325476u, 0xC3D2E1F0u};

inline uint32_t Rotl32(uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

inline uint32_t LoadBigEndian32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// Round `I` of the 80: the round function and constant of its 20-round
/// stage, chosen at compile time so the unrolled block has no branches.
template <int I>
inline uint32_t RoundMix(uint32_t b, uint32_t c, uint32_t d) {
  if constexpr (I < 20) {
    return (d ^ (b & (c ^ d))) + 0x5A827999u;  // Ch
  } else if constexpr (I < 40) {
    return (b ^ c ^ d) + 0x6ED9EBA1u;  // Parity
  } else if constexpr (I < 60) {
    return ((b & c) | (d & (b | c))) + 0x8F1BBCDCu;  // Maj
  } else {
    return (b ^ c ^ d) + 0xCA62C1D6u;  // Parity
  }
}

/// One round on a rolling 16-word message schedule: rounds 16..79 derive
/// w[I] in place from the four words 3, 8, 14 and 16 rounds back. Instead of
/// shifting a..e every round, the caller rotates which variable plays which
/// role, so the round only writes `e` (the new `a`) and `b`.
template <int I>
inline void Round(uint32_t a, uint32_t& b, uint32_t c, uint32_t d,
                  uint32_t& e, uint32_t* w) {
  if constexpr (I >= 16) {
    w[I & 15] = Rotl32(w[(I + 13) & 15] ^ w[(I + 8) & 15] ^
                           w[(I + 2) & 15] ^ w[I & 15],
                       1);
  }
  e += Rotl32(a, 5) + RoundMix<I>(b, c, d) + w[I & 15];
  b = Rotl32(b, 30);
}

/// Five rounds from round `I`: after five role rotations every variable is
/// back in its own role.
template <int I>
inline void FiveRounds(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d,
                       uint32_t& e, uint32_t* w) {
  Round<I>(a, b, c, d, e, w);
  Round<I + 1>(e, a, b, c, d, w);
  Round<I + 2>(d, e, a, b, c, w);
  Round<I + 3>(c, d, e, a, b, w);
  Round<I + 4>(b, c, d, e, a, w);
}

template <int... Group>
inline void AllRounds(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d,
                      uint32_t& e, uint32_t* w,
                      std::integer_sequence<int, Group...>) {
  (FiveRounds<5 * Group>(a, b, c, d, e, w), ...);
}

}  // namespace

Sha1::Sha1() { Reset(); }

void Sha1::Reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  total_bytes_ = 0;
  buffer_len_ = 0;
}

void Sha1::Update(std::string_view data) {
  total_bytes_ += data.size();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  if (buffer_len_ > 0) {
    size_t take = std::min(n, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (n >= 64) {
    ProcessBlock(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

void Sha1::ProcessBlock(const uint8_t* block) {
  uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = LoadBigEndian32(block + 4 * i);
  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
           e = state_[4];
  AllRounds(a, b, c, d, e, w, std::make_integer_sequence<int, 16>());
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

std::array<uint8_t, Sha1::kDigestSize> Sha1::Finish() {
  uint64_t bit_len = total_bytes_ * 8;
  uint8_t pad[72] = {0x80};
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_)
                                      : (120 - buffer_len_);
  Update(std::string_view(reinterpret_cast<const char*>(pad), pad_len));
  // Big-endian 64-bit bit length.
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(std::string_view(reinterpret_cast<const char*>(len_bytes), 8));

  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

std::string Sha1Hex(std::string_view data) {
  Sha1 sha;
  sha.Update(data);
  auto d = sha.Finish();
  return HexEncode(
      std::string_view(reinterpret_cast<const char*>(d.data()), d.size()));
}

std::string Sha1HexUpper(std::string_view data) {
  return AsciiToUpper(Sha1Hex(data));
}

}  // namespace leakdet::crypto
