#include "crypto/sha1.h"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"

namespace leakdet::crypto {
namespace {

// FIPS 180 / RFC 3174 test vectors.
TEST(Sha1Test, StandardVectors) {
  EXPECT_EQ(Sha1Hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1Hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(
      Sha1Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(Sha1Hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, PaddingBoundaryLengths) {
  EXPECT_EQ(Sha1Hex(std::string(55, 'a')),
            "c1c8bbdc22796e28c0e15163d20899b65621d65a");
  EXPECT_EQ(Sha1Hex(std::string(64, 'a')),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d");
}

TEST(Sha1Test, MillionAs) {
  Sha1 sha;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.Update(chunk);
  auto digest = sha.Finish();
  std::string hex;
  for (uint8_t b : digest) {
    char buf[3];
    snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  EXPECT_EQ(hex, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, UpperCaseVariant) {
  EXPECT_EQ(Sha1HexUpper("abc"), "A9993E364706816ABA3E25717850C26C9CD0D89D");
}

TEST(Sha1Test, StreamingMatchesOneShot) {
  // Random bytes, split at every offset through the first two blocks and
  // past them, so each buffered-prefix length meets the block function.
  Rng rng(20240917);
  std::string data;
  for (int i = 0; i < 777; ++i) data += static_cast<char>(rng.UniformInt(256));
  Sha1 oneshot;
  oneshot.Update(data);
  const auto expected = oneshot.Finish();
  for (size_t split = 0; split <= 130; ++split) {
    Sha1 sha;
    sha.Update(std::string_view(data).substr(0, split));
    sha.Update(std::string_view(data).substr(split));
    EXPECT_EQ(sha.Finish(), expected) << "split=" << split;
    // Also a three-way split whose middle piece straddles a block boundary.
    Sha1 three;
    three.Update(std::string_view(data).substr(0, split));
    three.Update(std::string_view(data).substr(split, 67));
    three.Update(std::string_view(data).substr(split + 67));
    EXPECT_EQ(three.Finish(), expected) << "three-way split=" << split;
  }
}

// The FIPS 180 896-bit message (the 448-bit one is in StandardVectors): 112
// bytes, so its padding and length share the second block with the message.
TEST(Sha1Test, MultiBlockVectors) {
  EXPECT_EQ(Sha1Hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                    "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "a49b2446a02c645bf419f995b67091253a04a259");
}

TEST(Sha1Test, ResetAllowsReuse) {
  Sha1 sha;
  sha.Update("junk");
  sha.Reset();
  sha.Update("abc");
  auto digest = sha.Finish();
  EXPECT_EQ(digest[0], 0xa9);
  EXPECT_EQ(digest[19], 0x9d);
}

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1Hex("354406061234567"), Sha1Hex("354406061234568"));
}

}  // namespace
}  // namespace leakdet::crypto
