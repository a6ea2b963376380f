#include "compress/huffman.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "util/rng.h"

namespace leakdet::compress {
namespace {

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<uint64_t> freqs(10, 0);
  freqs[3] = 42;
  auto lengths = BuildHuffmanCodeLengths(freqs);
  EXPECT_EQ(lengths[3], 1);
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (s != 3) {
      EXPECT_EQ(lengths[s], 0);
    }
  }
}

TEST(HuffmanTest, KraftEqualityForOptimalCode) {
  // An optimal Huffman code is complete: sum 2^-len == 1.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> freqs(2 + rng.UniformInt(60), 0);
    for (auto& f : freqs) f = rng.UniformInt(1000);
    size_t used = 0;
    for (auto f : freqs) {
      if (f > 0) ++used;
    }
    if (used < 2) continue;
    auto lengths = BuildHuffmanCodeLengths(freqs);
    double kraft = 0;
    for (uint8_t l : lengths) {
      if (l > 0) kraft += std::pow(2.0, -static_cast<double>(l));
    }
    EXPECT_NEAR(kraft, 1.0, 1e-9);
  }
}

TEST(HuffmanTest, FrequentSymbolsGetShorterCodes) {
  std::vector<uint64_t> freqs = {1000, 1, 1, 1};
  auto lengths = BuildHuffmanCodeLengths(freqs);
  EXPECT_LT(lengths[0], lengths[1]);
}

TEST(HuffmanTest, MaxLengthHonored) {
  // Fibonacci-like frequencies force deep optimal trees.
  std::vector<uint64_t> freqs;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    uint64_t next = a + b;
    a = b;
    b = next;
  }
  auto lengths = BuildHuffmanCodeLengths(freqs, 12);
  for (uint8_t l : lengths) EXPECT_LE(l, 12);
  // Still decodable (Kraft <= 1).
  auto dec = HuffmanDecoder::Build(lengths);
  EXPECT_TRUE(dec.ok());
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    size_t alphabet = 2 + rng.UniformInt(100);
    std::vector<uint64_t> freqs(alphabet, 0);
    std::vector<uint32_t> message;
    for (int i = 0; i < 500; ++i) {
      uint32_t sym = static_cast<uint32_t>(rng.UniformInt(alphabet));
      message.push_back(sym);
      freqs[sym]++;
    }
    auto lengths = BuildHuffmanCodeLengths(freqs);
    HuffmanEncoder enc(lengths);
    BitWriter writer;
    for (uint32_t sym : message) enc.Encode(sym, &writer);
    std::string bits = writer.Finish();

    auto dec = HuffmanDecoder::Build(lengths);
    ASSERT_TRUE(dec.ok());
    BitReader reader(bits);
    for (uint32_t expected : message) {
      uint32_t sym;
      ASSERT_TRUE(dec->Decode(&reader, &sym).ok());
      EXPECT_EQ(sym, expected);
    }
  }
}

TEST(HuffmanTest, CompressionBeatsFixedWidthOnSkewedData) {
  // 256-symbol alphabet, heavily skewed: total bits must be well under 8/sym.
  std::vector<uint64_t> freqs(256, 1);
  freqs['e'] = 5000;
  freqs['t'] = 3000;
  freqs['a'] = 2500;
  auto lengths = BuildHuffmanCodeLengths(freqs);
  uint64_t total_bits = 0, total_syms = 0;
  for (size_t s = 0; s < 256; ++s) {
    total_bits += freqs[s] * lengths[s];
    total_syms += freqs[s];
  }
  EXPECT_LT(static_cast<double>(total_bits) / total_syms, 4.0);
}

TEST(HuffmanDecoderTest, RejectsOverSubscribedLengths) {
  // Three codes of length 1 oversubscribe the binary tree.
  std::vector<uint8_t> lengths = {1, 1, 1};
  EXPECT_FALSE(HuffmanDecoder::Build(lengths).ok());
}

TEST(HuffmanDecoderTest, RejectsAllZeroLengths) {
  std::vector<uint8_t> lengths = {0, 0, 0};
  EXPECT_FALSE(HuffmanDecoder::Build(lengths).ok());
}

TEST(HuffmanDecoderTest, IncompleteCodeDetectsInvalidInput) {
  // One symbol of length 2: codes 00; inputs reaching other leaves fail.
  std::vector<uint8_t> lengths = {2};
  auto dec = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(dec.ok());
  BitWriter w;
  w.WriteBits(0x3, 2);  // MSB-first "11" is not assigned
  w.WriteBits(0, 6);
  std::string data = w.Finish();
  BitReader r(data);
  uint32_t sym;
  EXPECT_FALSE(dec->Decode(&r, &sym).ok());
}

TEST(HuffmanDecoderTest, UnderrunDetected) {
  std::vector<uint8_t> lengths = {3, 3, 3, 3, 3, 3, 3, 3};
  auto dec = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(dec.ok());
  BitReader r("");
  uint32_t sym;
  EXPECT_FALSE(dec->Decode(&r, &sym).ok());
}

}  // namespace
}  // namespace leakdet::compress
