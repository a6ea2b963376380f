#include "io/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace leakdet::io {
namespace {

sim::LabeledPacket MakeLp(uint32_t app, const std::string& host,
                          const std::string& rline, const std::string& cookie,
                          const std::string& body,
                          std::vector<core::SensitiveType> truth = {}) {
  sim::LabeledPacket lp;
  lp.packet.app_id = app;
  lp.packet.destination.host = host;
  lp.packet.destination.ip = *net::Ipv4Address::Parse("173.194.7.9");
  lp.packet.destination.port = 80;
  lp.packet.request_line = rline;
  lp.packet.cookie = cookie;
  lp.packet.body = body;
  lp.truth = std::move(truth);
  return lp;
}

std::vector<sim::LabeledPacket> SamplePackets() {
  return {
      MakeLp(1, "ad.doubleclick.net",
             "GET /gampad/ads?x=1&dc_uid=900150983cd2 HTTP/1.1",
             "sid=deadbeef", "", {core::SensitiveType::kAndroidIdMd5}),
      MakeLp(2, "api.zqapk.com", "POST /client/api.php HTTP/1.1", "",
             "imei=352099001761481&operator=NTT%20DOCOMO",
             {core::SensitiveType::kCarrier, core::SensitiveType::kImei}),
      MakeLp(3, "cdn.benign.example", "GET /assets/a1b2.png HTTP/1.1", "", ""),
  };
}

TEST(JsonlTest, RoundTrip) {
  auto packets = SamplePackets();
  std::string text = SerializeJsonl(packets);
  auto restored = ParseJsonl(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), packets.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ((*restored)[i].packet, packets[i].packet) << i;
    EXPECT_EQ((*restored)[i].truth, packets[i].truth) << i;
  }
}

TEST(JsonlTest, EscapesSpecialCharacters) {
  auto lp = MakeLp(9, "x.com", "GET /\"q\\uote\" HTTP/1.1", "a=\t\n",
                   std::string("\x01\x7f\xff bin", 8));
  std::string text = SerializeJsonl({lp});
  // One line per packet despite embedded newline bytes.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  auto restored = ParseJsonl(text);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)[0].packet, lp.packet);
}

TEST(JsonlTest, SkipsBlankLines) {
  std::string text = SerializeJsonl(SamplePackets());
  text = "\n" + text + "\n\n";
  auto restored = ParseJsonl(text);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 3u);
}

TEST(JsonlTest, RejectsMalformedLine) {
  EXPECT_FALSE(ParseJsonl("{\"app\":1").ok());
  EXPECT_FALSE(ParseJsonl("not json at all").ok());
  EXPECT_FALSE(ParseJsonl("{\"unknown_key\":1}").ok());
  EXPECT_FALSE(ParseJsonl("{\"port\":99999}").ok());
  EXPECT_FALSE(ParseJsonl("{\"truth\":[42]}").ok());
}

TEST(JsonlTest, EmptyInputYieldsEmpty) {
  auto restored = ParseJsonl("");
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

TEST(FileIoTest, WriteReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/leakdet_io_test.bin";
  std::string contents("binary\x00payload\xff", 15);
  ASSERT_TRUE(WriteFile(path, contents).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, contents);
  std::remove(path.c_str());
}

TEST(FileIoTest, ReadMissingFileFails) {
  auto read = ReadFile("/nonexistent/path/definitely/missing.txt");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST(TraceRoundTripTest, GeneratedTraceSurvivesJsonl) {
  sim::TrafficConfig config;
  config.seed = 3;
  config.scale = 0.01;
  sim::Trace trace = sim::GenerateTrace(config);
  std::string text = SerializeJsonl(trace.packets);
  auto restored = ParseJsonl(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), trace.packets.size());
  for (size_t i = 0; i < trace.packets.size(); i += 11) {
    EXPECT_EQ((*restored)[i].packet, trace.packets[i].packet);
    EXPECT_EQ((*restored)[i].truth, trace.packets[i].truth);
  }
}

}  // namespace
}  // namespace leakdet::io
