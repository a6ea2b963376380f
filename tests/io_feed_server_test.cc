// Loopback integration tests of the Figure 3 distribution channel: the
// feed server, the device-side fetch helpers, and the TCP substrate.

#include "io/feed_server.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/signature_server.h"
#include "match/signature.h"
#include "net/tcp.h"
#include "util/rng.h"

namespace leakdet::io {
namespace {

match::SignatureSet TestSignatures() {
  match::ConjunctionSignature sig;
  sig.id = "sig-0";
  sig.tokens = {"&udid=9774d56d682e549c"};
  sig.host_scope = "tracker.example";
  return match::SignatureSet({sig});
}

TEST(TcpTest, ListenerConnectRoundTrip) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener->port(), 0);
  auto client = net::TcpConnectLoopback(listener->port());
  ASSERT_TRUE(client.ok());
  auto server_side = listener->Accept(2000);
  ASSERT_TRUE(server_side.ok());
  ASSERT_TRUE(client->WriteAll("ping").ok());
  client->ShutdownWrite();
  auto got = server_side->ReadUntilClose();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "ping");
}

TEST(TcpTest, AcceptTimesOut) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = listener->Accept(50);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kNotFound);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Bind then close to find a (very likely) unused port.
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  uint16_t port = listener->port();
  listener->Close();
  EXPECT_FALSE(net::TcpConnectLoopback(port).ok());
}

TEST(FeedServerTest, ServesFeedAndVersion) {
  std::string feed_text = TestSignatures().Serialize();
  FeedServer server([&feed_text] {
    return std::make_pair(uint64_t{3}, feed_text);
  });
  ASSERT_TRUE(server.Start().ok());

  auto version = FetchFeedVersion(server.port());
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 3u);

  auto feed = FetchFeed(server.port());
  ASSERT_TRUE(feed.ok());
  EXPECT_EQ(feed->version, 3u);
  EXPECT_EQ(feed->payload, feed_text);

  // The fetched payload deserializes into an equivalent working set.
  auto restored = match::SignatureSet::Deserialize(feed->payload);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->Matches("x &udid=9774d56d682e549c y",
                                "tracker.example"));
  server.Stop();
  EXPECT_GE(server.requests_served(), 2u);
}

TEST(FeedServerTest, UnknownPathIs404) {
  FeedServer server([] { return std::make_pair(uint64_t{1}, std::string()); });
  ASSERT_TRUE(server.Start().ok());
  auto conn = net::TcpConnectLoopback(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  conn->ShutdownWrite();
  auto raw = conn->ReadUntilClose();
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw->find("404"), std::string::npos);
}

TEST(FeedServerTest, MalformedRequestIs400) {
  FeedServer server([] { return std::make_pair(uint64_t{1}, std::string()); });
  ASSERT_TRUE(server.Start().ok());
  auto conn = net::TcpConnectLoopback(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll("NOT AN HTTP REQUEST\r\n\r\n").ok());
  conn->ShutdownWrite();
  auto raw = conn->ReadUntilClose();
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw->find("400"), std::string::npos);
}

TEST(FeedServerTest, NonGetIs405) {
  FeedServer server([] { return std::make_pair(uint64_t{1}, std::string()); });
  ASSERT_TRUE(server.Start().ok());
  auto conn = net::TcpConnectLoopback(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll(
                      "POST /feed HTTP/1.1\r\nHost: x\r\n\r\n")
                  .ok());
  conn->ShutdownWrite();
  auto raw = conn->ReadUntilClose();
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw->find("405"), std::string::npos);
}

TEST(FeedServerTest, VersionAdvancesWithProvider) {
  std::atomic<uint64_t> version{1};
  FeedServer server([&version] {
    return std::make_pair(version.load(), std::string("payload"));
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(*FetchFeedVersion(server.port()), 1u);
  version.store(2);
  EXPECT_EQ(*FetchFeedVersion(server.port()), 2u);
}

TEST(FeedServerTest, ServesSignatureServerFeedEndToEnd) {
  // Full Figure 3 loop: streaming server retrains, publishes over HTTP,
  // device polls and deploys.
  core::DeviceTokens tokens;
  tokens.android_id = "9774d56d682e549c";
  core::PayloadCheck oracle({tokens});
  core::SignatureServer::Options options;
  options.retrain_after = 20;
  options.pipeline.sample_size = 15;
  core::SignatureServer sig_server(&oracle, options);
  leakdet::Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    core::HttpPacket p;
    p.destination.host = "ads.feedtest.net";
    p.destination.ip = *net::Ipv4Address::Parse("77.7.7.7");
    p.request_line = "GET /v?k=" + rng.RandomHex(4) +
                     "&udid=9774d56d682e549c&r=" + rng.RandomHex(6) +
                     " HTTP/1.1";
    sig_server.Ingest(p);
  }
  ASSERT_GE(sig_server.feed_version(), 1u);

  FeedServer http_server([&sig_server] {
    return std::make_pair(sig_server.feed_version(), sig_server.Feed());
  });
  ASSERT_TRUE(http_server.Start().ok());
  auto feed = FetchFeed(http_server.port());
  ASSERT_TRUE(feed.ok());
  EXPECT_EQ(feed->version, sig_server.feed_version());
  auto deployed = match::SignatureSet::Deserialize(feed->payload);
  ASSERT_TRUE(deployed.ok());
  EXPECT_GT(deployed->size(), 0u);
}

TEST(FeedServerTest, LargeFeedSurvivesPartialWrites) {
  // A multi-megabyte feed exceeds any single socket write; the response must
  // arrive intact through the short-write loop.
  leakdet::Rng rng(13);
  std::vector<match::ConjunctionSignature> sigs;
  for (int i = 0; i < 2000; ++i) {
    match::ConjunctionSignature sig;
    sig.id = "sig-" + std::to_string(i);
    sig.tokens = {rng.RandomHex(400), rng.RandomHex(400)};
    sigs.push_back(std::move(sig));
  }
  std::string feed_text = match::SignatureSet(std::move(sigs)).Serialize();
  ASSERT_GT(feed_text.size(), 2u << 20);
  FeedServer server([&feed_text] {
    return std::make_pair(uint64_t{9}, feed_text);
  });
  ASSERT_TRUE(server.Start().ok());
  auto feed = FetchFeed(server.port());
  ASSERT_TRUE(feed.ok());
  EXPECT_EQ(feed->version, 9u);
  EXPECT_EQ(feed->payload, feed_text);
}

TEST(FeedServerTest, IdleClientCannotWedgeTheServer) {
  FeedServer server([] { return std::make_pair(uint64_t{4}, std::string()); },
                    FeedServerOptions{.request_deadline_ms = 100});
  ASSERT_TRUE(server.Start().ok());
  // Connect and send nothing: without a read deadline this connection would
  // park the accept loop forever.
  auto idle = net::TcpConnectLoopback(server.port());
  ASSERT_TRUE(idle.ok());
  // The server must shed the idle connection and serve the next client.
  auto version = FetchFeedVersion(server.port());
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 4u);
}

TEST(FeedServerTest, StopIsIdempotentAndRestartable) {
  FeedServer server([] { return std::make_pair(uint64_t{1}, std::string()); });
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();
  // A fresh Start() binds a new port.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(FetchFeedVersion(server.port()).ok());
}

}  // namespace
}  // namespace leakdet::io
