#include "core/packet.h"

#include <gtest/gtest.h>

#include <string>

#include "sim/trafficgen.h"

namespace leakdet::core {
namespace {

net::Endpoint Ep(const std::string& host, const char* ip, uint16_t port) {
  net::Endpoint e;
  e.host = host;
  e.ip = *net::Ipv4Address::Parse(ip);
  e.port = port;
  return e;
}

TEST(PacketTest, MakePacketExtractsContentFields) {
  http::HttpRequest req("GET", "/ad?x=1");
  req.AddHeader("Host", "r.admob.com");
  req.AddHeader("Cookie", "sid=abcd");
  req.set_body("payload");
  HttpPacket p = MakePacket(7, Ep("r.admob.com", "74.125.1.2", 80), req);
  EXPECT_EQ(p.app_id, 7u);
  EXPECT_EQ(p.destination.host, "r.admob.com");
  EXPECT_EQ(p.request_line, "GET /ad?x=1 HTTP/1.1");
  EXPECT_EQ(p.cookie, "sid=abcd");
  EXPECT_EQ(p.body, "payload");
}

TEST(PacketTest, MakePacketNoCookieNoBody) {
  http::HttpRequest req("GET", "/");
  HttpPacket p = MakePacket(1, Ep("x.com", "1.2.3.4", 80), req);
  EXPECT_EQ(p.cookie, "");
  EXPECT_EQ(p.body, "");
}

TEST(PacketTest, PacketContentJoinsFieldsWithNewlines) {
  HttpPacket p;
  p.request_line = "GET / HTTP/1.1";
  p.cookie = "a=1";
  p.body = "b";
  EXPECT_EQ(PacketContent(p), "GET / HTTP/1.1\na=1\nb");
}

TEST(PacketTest, PacketContentEmptyFieldsKeepSeparators) {
  HttpPacket p;
  p.request_line = "GET / HTTP/1.1";
  EXPECT_EQ(PacketContent(p), "GET / HTTP/1.1\n\n");
}

TEST(PacketTest, PacketContentsBatch) {
  HttpPacket a, b;
  a.request_line = "A";
  b.request_line = "B";
  auto contents = PacketContents({a, b});
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0], "A\n\n");
  EXPECT_EQ(contents[1], "B\n\n");
}

TEST(PacketTest, EqualityComparesAllFields) {
  http::HttpRequest req("GET", "/");
  HttpPacket a = MakePacket(1, Ep("x.com", "1.2.3.4", 80), req);
  HttpPacket b = a;
  EXPECT_EQ(a, b);
  b.body = "changed";
  EXPECT_FALSE(a == b);
}

// The reused-buffer form writes exactly PacketContent's bytes for every
// packet of a paper-scale trace, whatever the buffer held before.
TEST(PacketTest, AppendPacketContentEqualsPacketContentOnTrace) {
  sim::TrafficConfig config;
  config.seed = 42;
  config.scale = 0.3;
  sim::Trace trace = sim::GenerateTrace(config);
  ASSERT_GT(trace.packets.size(), 10000u);
  std::string reused = "left over from an earlier, longer packet";
  for (const sim::LabeledPacket& lp : trace.packets) {
    const HttpPacket& p = lp.packet;
    const std::string want =
        p.request_line + "\n" + p.cookie + "\n" + p.body;
    ASSERT_EQ(PacketContent(p), want);
    AppendPacketContent(p, &reused);  // holds the previous packet's content
    ASSERT_EQ(reused, want);
    std::string fresh;
    AppendPacketContent(p, &fresh);
    ASSERT_EQ(fresh, want);
  }
}

}  // namespace
}  // namespace leakdet::core
