// Property tests for the trace serialization formats over adversarial
// bytes: every generated packet — printable or not — must round-trip
// bit-exactly through JSONL and the single-packet JSON used by the WAL,
// and malformed input must be rejected cleanly, never crash. Also the
// crash-atomicity regression for io::WriteFile.

#include "io/trace_io.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/payload_check.h"
#include "util/rng.h"

#include "test_seed.h"

namespace leakdet::io {
namespace {

/// Adversarial string: any byte value, with escapes-in-waiting ('"', '\\',
/// newlines, commas, NULs) over-represented.
std::string NastyString(Rng* rng, size_t max_len) {
  static const char kSpice[] = {'"', '\\', '\n', '\r', '\t', ',', '\0',
                                '{', '}',  '[',  ']',  ':',  '\x7f'};
  size_t len = static_cast<size_t>(rng->UniformInt(max_len + 1));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng->Bernoulli(0.3)) {
      out += kSpice[rng->UniformInt(sizeof(kSpice))];
    } else {
      out += static_cast<char>(rng->UniformInt(256));
    }
  }
  return out;
}

sim::LabeledPacket NastyPacket(Rng* rng) {
  sim::LabeledPacket labeled;
  labeled.packet.app_id = static_cast<uint32_t>(rng->Next());
  labeled.packet.destination.port = static_cast<uint16_t>(rng->Next());
  labeled.packet.destination.host = NastyString(rng, 40);
  labeled.packet.request_line = NastyString(rng, 120);
  labeled.packet.cookie = NastyString(rng, 80);
  labeled.packet.body = NastyString(rng, 200);
  size_t truths = static_cast<size_t>(rng->UniformInt(4));
  for (size_t i = 0; i < truths; ++i) {
    labeled.truth.push_back(static_cast<core::SensitiveType>(
        rng->UniformInt(core::kNumSensitiveTypes)));
  }
  return labeled;
}

TEST(TraceIoPropertyTest, JsonlRoundTripsAdversarialBytes) {
  const uint64_t seed = testing::TestSeed(811);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int round = 0; round < 50; ++round) {
    std::vector<sim::LabeledPacket> packets;
    size_t count = 1 + static_cast<size_t>(rng.UniformInt(8));
    for (size_t i = 0; i < count; ++i) packets.push_back(NastyPacket(&rng));

    std::string text = SerializeJsonl(packets);
    StatusOr<std::vector<sim::LabeledPacket>> parsed = ParseJsonl(text);
    ASSERT_TRUE(parsed.ok()) << "round " << round << ": "
                             << parsed.status().message();
    ASSERT_EQ(parsed->size(), packets.size());
    for (size_t i = 0; i < packets.size(); ++i) {
      EXPECT_EQ((*parsed)[i].packet, packets[i].packet) << "round " << round;
      EXPECT_EQ((*parsed)[i].truth, packets[i].truth);
    }
    // Canonical: re-serialization is bit-identical.
    EXPECT_EQ(SerializeJsonl(*parsed), text);
  }
}

TEST(TraceIoPropertyTest, PacketJsonRoundTripsAdversarialBytes) {
  const uint64_t seed = testing::TestSeed(1013);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int round = 0; round < 200; ++round) {
    core::HttpPacket packet = NastyPacket(&rng).packet;
    std::string line = SerializePacketJson(packet);
    // The WAL embeds this in binary frames: it must never contain a raw
    // newline, whatever bytes the packet held.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    StatusOr<core::HttpPacket> parsed = ParsePacketJson(line);
    ASSERT_TRUE(parsed.ok()) << "round " << round << ": "
                             << parsed.status().message();
    EXPECT_EQ(*parsed, packet) << "round " << round;
  }
}

TEST(TraceIoPropertyTest, MalformedInputIsRejectedNotCrashed) {
  const uint64_t seed = testing::TestSeed(1201);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // Purely random bytes: any answer is fine, crashing or hanging is not.
  for (int round = 0; round < 300; ++round) {
    std::string noise = NastyString(&rng, 200);
    (void)ParseJsonl(noise);
    (void)ParsePacketJson(noise);
  }
  // Structured-but-broken lines must be rejected.
  const char* kBroken[] = {
      "{",
      "{}",
      "{\"app\":1",
      "{\"app\":\"x\",\"host\":\"h\",\"ip\":\"1.2.3.4\",\"port\":80,"
      "\"rline\":\"GET\",\"cookie\":\"\",\"body\":\"\"}",
      "{\"app\":1,\"host\":\"h\",\"ip\":\"nope\",\"port\":80,"
      "\"rline\":\"GET\",\"cookie\":\"\",\"body\":\"\"}",
      "{\"app\":1,\"host\":\"h\",\"ip\":\"1.2.3.4\",\"port\":99999999,"
      "\"rline\":\"GET\",\"cookie\":\"\",\"body\":\"\"}",
      "{\"app\":1,\"host\":\"h\"}",
      "{\"app\":1,\"host\":\"h\",\"ip\":\"1.2.3.4\",\"port\":80,"
      "\"rline\":\"bad escape \\q\",\"cookie\":\"\",\"body\":\"\"}",
  };
  for (const char* line : kBroken) {
    EXPECT_FALSE(ParsePacketJson(line).ok()) << line;
  }
}

TEST(TraceIoPropertyTest, TruncatedSerializationsAreRejected) {
  const uint64_t seed = testing::TestSeed(1511);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  core::HttpPacket packet = NastyPacket(&rng).packet;
  std::string line = SerializePacketJson(packet);
  for (size_t len = 0; len < line.size(); ++len) {
    StatusOr<core::HttpPacket> parsed =
        ParsePacketJson(std::string_view(line).substr(0, len));
    if (parsed.ok()) {
      // A strict prefix that still parses must not silently masquerade as
      // the full packet.
      EXPECT_FALSE(*parsed == packet) << "prefix length " << len;
    }
  }
}

TEST(WriteFileTest, WritesAndOverwritesAtomically) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/leakdet_writefile_test.dat";
  std::remove(path.c_str());

  ASSERT_TRUE(WriteFile(path, "first contents\n").ok());
  auto read_back = ReadFile(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, "first contents\n");

  // Overwrite in place: readers see either the old or the new contents,
  // never a mix — and afterwards, exactly the new contents.
  std::string big(1 << 16, 'x');
  ASSERT_TRUE(WriteFile(path, big).ok());
  read_back = ReadFile(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, big);

  // The temp staging file must not survive a successful write.
  EXPECT_FALSE(ReadFile(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(WriteFileTest, FailsCleanlyWithoutParentDirectory) {
  const std::string path =
      ::testing::TempDir() + "/leakdet_no_such_dir/contents.dat";
  EXPECT_FALSE(WriteFile(path, "data").ok());
  EXPECT_FALSE(ReadFile(path).ok());
}

TEST(WriteFileTest, EmptyAndBinaryContentsRoundTrip) {
  const std::string path = ::testing::TempDir() + "/leakdet_writefile_bin.dat";
  std::string binary;
  for (int i = 0; i < 256; ++i) binary += static_cast<char>(i);
  ASSERT_TRUE(WriteFile(path, binary).ok());
  auto read_back = ReadFile(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, binary);

  ASSERT_TRUE(WriteFile(path, "").ok());
  read_back = ReadFile(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace leakdet::io
