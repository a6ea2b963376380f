#include "core/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "net/org_registry.h"
#include "sim/trafficgen.h"
#include "util/rng.h"

namespace leakdet::core {
namespace {

HttpPacket MakeTestPacket(const std::string& host, const char* ip,
                          uint16_t port, const std::string& rline,
                          const std::string& cookie = "",
                          const std::string& body = "") {
  HttpPacket p;
  p.destination.host = host;
  p.destination.ip = *net::Ipv4Address::Parse(ip);
  p.destination.port = port;
  p.request_line = rline;
  p.cookie = cookie;
  p.body = body;
  return p;
}

class DistanceTest : public ::testing::Test {
 protected:
  DistanceTest()
      : compressor_(new compress::Lz77HuffmanCompressor()),
        ncd_(compressor_.get()) {}

  std::unique_ptr<compress::Compressor> compressor_;
  compress::NcdCalculator ncd_;
};

TEST_F(DistanceTest, IdenticalDestinationsHaveZeroDestinationDistance) {
  PacketDistance metric(&ncd_);
  HttpPacket a = MakeTestPacket("ad.doubleclick.net", "173.194.1.2", 80,
                                "GET /a HTTP/1.1");
  HttpPacket b = MakeTestPacket("ad.doubleclick.net", "173.194.1.2", 80,
                                "GET /b HTTP/1.1");
  EXPECT_DOUBLE_EQ(metric.DestinationDistance(a, b), 0.0);
}

TEST_F(DistanceTest, DestinationDistanceComponentsAdd) {
  PacketDistance metric(&ncd_);
  // Same port, completely different IP (first bit) and maximally distant
  // host strings (no character aligns): d_ip = 1, d_port = 0, d_host = 1.
  HttpPacket a = MakeTestPacket("aaaa.com", "10.0.0.1", 80, "GET / HTTP/1.1");
  HttpPacket b = MakeTestPacket("zzzzzzzz", "200.0.0.1", 80,
                                "GET / HTTP/1.1");
  EXPECT_DOUBLE_EQ(metric.DestinationDistance(a, b), 2.0);
}

TEST_F(DistanceTest, PortMismatchAddsOne) {
  PacketDistance metric(&ncd_);
  HttpPacket a = MakeTestPacket("x.com", "1.2.3.4", 80, "GET / HTTP/1.1");
  HttpPacket b = MakeTestPacket("x.com", "1.2.3.4", 8080, "GET / HTTP/1.1");
  EXPECT_DOUBLE_EQ(metric.DestinationDistance(a, b), 1.0);
}

TEST_F(DistanceTest, IpPrefixScalesDistance) {
  PacketDistance metric(&ncd_);
  HttpPacket a = MakeTestPacket("x.com", "173.194.0.1", 80, "GET / HTTP/1.1");
  HttpPacket same16 = MakeTestPacket("x.com", "173.194.200.9", 80,
                                     "GET / HTTP/1.1");
  HttpPacket far = MakeTestPacket("x.com", "10.0.0.1", 80, "GET / HTTP/1.1");
  EXPECT_LT(metric.DestinationDistance(a, same16),
            metric.DestinationDistance(a, far));
}

TEST_F(DistanceTest, LiteralOrientationInvertsIpAndPort) {
  DistanceOptions literal;
  literal.literal_similarity_orientation = true;
  PacketDistance metric(&ncd_, literal);
  // Identical destination: lmatch/32 = 1 and match = 1 => d_dst = 2 under
  // the paper's literal reading (plus d_host = 0).
  HttpPacket a = MakeTestPacket("x.com", "1.2.3.4", 80, "GET / HTTP/1.1");
  HttpPacket b = a;
  EXPECT_DOUBLE_EQ(metric.DestinationDistance(a, b), 2.0);
}

TEST_F(DistanceTest, ContentDistanceZeroForBothEmptyFields) {
  PacketDistance metric(&ncd_);
  HttpPacket a = MakeTestPacket("x.com", "1.2.3.4", 80, "GET /same HTTP/1.1");
  HttpPacket b = a;
  // Identical non-trivial content: small but nonzero NCD; empty cookie and
  // body contribute zero.
  double d = metric.ContentDistance(a, b);
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 0.6);
}

TEST_F(DistanceTest, SimilarTemplatesCloserThanDifferentServices) {
  PacketDistance metric(&ncd_);
  HttpPacket a = MakeTestPacket(
      "ads.mydas.mobi", "216.133.1.1", 80,
      "GET /getAd.php5?auid=9774d56d682e549c&r=11aa HTTP/1.1");
  HttpPacket b = MakeTestPacket(
      "ads.mydas.mobi", "216.133.1.1", 80,
      "GET /getAd.php5?auid=9774d56d682e549c&r=99ff HTTP/1.1");
  HttpPacket c = MakeTestPacket(
      "data.flurry.com", "74.6.20.9", 80, "POST /aap.do HTTP/1.1", "",
      "u=2b3e5a77&session=xyz");
  EXPECT_LT(metric.Distance(a, b), metric.Distance(a, c));
}

TEST_F(DistanceTest, AblationFlagsDropComponents) {
  DistanceOptions dst_only;
  dst_only.use_content = false;
  DistanceOptions content_only;
  content_only.use_destination = false;
  PacketDistance d_dst(&ncd_, dst_only);
  PacketDistance d_content(&ncd_, content_only);
  PacketDistance d_full(&ncd_);

  HttpPacket a = MakeTestPacket("x.com", "1.2.3.4", 80,
                                "GET /aaaa?x=1 HTTP/1.1");
  HttpPacket b = MakeTestPacket("y.org", "99.2.3.4", 80,
                                "GET /bbbb?y=2 HTTP/1.1");
  EXPECT_NEAR(d_dst.Distance(a, b) + d_content.Distance(a, b),
              d_full.Distance(a, b), 1e-9);
  EXPECT_DOUBLE_EQ(d_dst.MaxDistance(), 3.0);
  EXPECT_DOUBLE_EQ(d_content.MaxDistance(), 3.0);
  EXPECT_DOUBLE_EQ(d_full.MaxDistance(), 6.0);
}

TEST_F(DistanceTest, SymmetryOnRandomPackets) {
  PacketDistance metric(&ncd_);
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    HttpPacket a = MakeTestPacket(
        rng.RandomString(5, "abc") + ".com",
        "10.0.0.1", 80, "GET /" + rng.RandomString(20, "abcx=&") + " HTTP/1.1",
        "", rng.RandomString(rng.UniformInt(40), "klmn="));
    HttpPacket b = MakeTestPacket(
        rng.RandomString(5, "abc") + ".net",
        "200.0.0.1", 80, "GET /" + rng.RandomString(20, "abcx=&") + " HTTP/1.1",
        "", rng.RandomString(rng.UniformInt(40), "klmn="));
    // Destination components are exactly symmetric; NCD contributes a small
    // codec-dependent asymmetry.
    EXPECT_NEAR(metric.Distance(a, b), metric.Distance(b, a), 0.25);
  }
}

TEST(DistanceMatrixTest, StoresSymmetricValues) {
  DistanceMatrix m(4);
  m.set(0, 3, 1.5);
  m.set(2, 1, 0.25);
  EXPECT_DOUBLE_EQ(m.at(0, 3), 1.5);
  EXPECT_DOUBLE_EQ(m.at(3, 0), 1.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);  // unset defaults to zero
  EXPECT_EQ(m.size(), 4u);
}

TEST(DistanceMatrixTest, AllPairsIndependent) {
  DistanceMatrix m(5);
  double v = 0.0;
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      m.set(i, j, v += 1.0);
    }
  }
  v = 0.0;
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), v += 1.0);
    }
  }
}

TEST_F(DistanceTest, ParallelMatrixBitIdenticalToSerial) {
  Rng rng(77);
  std::vector<HttpPacket> packets;
  for (int i = 0; i < 40; ++i) {
    packets.push_back(MakeTestPacket(
        rng.RandomString(4, "abcd") + ".com",
        i % 2 ? "10.0.0.1" : "200.3.2.1", 80,
        "GET /" + rng.RandomString(30, "abx=&/") + " HTTP/1.1",
        i % 3 ? "sid=" + rng.RandomHex(8) : "",
        rng.RandomString(rng.UniformInt(50), "klm=&")));
  }
  compress::LzwCompressor compressor;
  DistanceOptions options;
  compress::NcdCalculator ncd(&compressor);
  PacketDistance metric(&ncd, options);
  DistanceMatrix serial = ComputeDistanceMatrix(packets, metric);
  for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
    DistanceMatrix parallel =
        ComputeDistanceMatrixParallel(packets, &compressor, options, threads);
    for (size_t i = 0; i < packets.size(); ++i) {
      for (size_t j = i + 1; j < packets.size(); ++j) {
        ASSERT_EQ(parallel.at(i, j), serial.at(i, j))
            << "threads=" << threads << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST_F(DistanceTest, ParallelMatrixTinyInputs) {
  compress::LzwCompressor compressor;
  DistanceOptions options;
  EXPECT_EQ(ComputeDistanceMatrixParallel({}, &compressor, options, 4).size(),
            0u);
  std::vector<HttpPacket> one = {
      MakeTestPacket("x.com", "1.2.3.4", 80, "GET / HTTP/1.1")};
  EXPECT_EQ(ComputeDistanceMatrixParallel(one, &compressor, options, 4).size(),
            1u);
}

TEST_F(DistanceTest, ComputeDistanceMatrixMatchesMetric) {
  PacketDistance metric(&ncd_);
  std::vector<HttpPacket> packets = {
      MakeTestPacket("a.com", "1.2.3.4", 80, "GET /a HTTP/1.1"),
      MakeTestPacket("b.com", "5.6.7.8", 80, "GET /b HTTP/1.1"),
      MakeTestPacket("c.com", "9.9.9.9", 8080, "POST /c HTTP/1.1"),
  };
  DistanceMatrix m = ComputeDistanceMatrix(packets, metric);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = i + 1; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), metric.Distance(packets[i], packets[j]));
    }
  }
}

// ---------------------------------------------------------------------------
// The optimized builder against the serial oracle, and its counters.

// Simulated ad traffic: request lines, cookies and bodies repeat across
// packets the way they do in a real training sample.
std::vector<HttpPacket> TracePackets(size_t n) {
  static const std::vector<HttpPacket>* all = [] {
    sim::TrafficConfig config;
    config.seed = 808;
    config.scale = 0.05;
    return new std::vector<HttpPacket>(sim::GenerateTrace(config).RawPackets());
  }();
  return std::vector<HttpPacket>(all->begin(),
                                 all->begin() + std::min(n, all->size()));
}

void ExpectMatchesSerialOracle(const std::vector<HttpPacket>& packets,
                               const char* codec,
                               const DistanceOptions& options) {
  auto compressor = compress::MakeCompressor(codec);
  ASSERT_TRUE(compressor.ok());
  compress::NcdCalculator ncd(compressor->get());
  PacketDistance metric(&ncd, options);
  DistanceMatrix oracle = ComputeDistanceMatrix(packets, metric);
  for (unsigned threads : {1u, 3u}) {
    DistanceMatrix fast = ComputeDistanceMatrixParallel(
        packets, compressor->get(), options, threads);
    ASSERT_EQ(fast.size(), packets.size());
    for (size_t i = 0; i < packets.size(); ++i) {
      for (size_t j = i + 1; j < packets.size(); ++j) {
        ASSERT_EQ(fast.at(i, j), oracle.at(i, j))
            << codec << " threads=" << threads << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(ParallelMatrixOracleTest, EveryCodecAndOptionSet) {
  std::vector<HttpPacket> packets = TracePackets(48);
  net::OrgRegistry registry;
  registry.Add(*net::CidrPrefix::Parse("10.0.0.0/8"), "alpha-ads");
  registry.Add(*net::CidrPrefix::Parse("172.16.0.0/12"), "beta-analytics");
  DistanceOptions no_destination;
  no_destination.use_destination = false;
  DistanceOptions no_content;
  no_content.use_content = false;
  DistanceOptions with_registry;
  with_registry.org_registry = &registry;
  for (const char* codec : {"lzw", "lz77h", "entropy"}) {
    for (const DistanceOptions& options :
         {DistanceOptions{}, no_destination, no_content, with_registry}) {
      ExpectMatchesSerialOracle(packets, codec, options);
    }
  }
}

TEST(ParallelMatrixOracleTest, AllEmptyCookiesAndBodies) {
  std::vector<HttpPacket> packets = TracePackets(40);
  for (HttpPacket& p : packets) {
    p.cookie.clear();
    p.body.clear();
  }
  for (const char* codec : {"lzw", "lz77h", "entropy"}) {
    ExpectMatchesSerialOracle(packets, codec, DistanceOptions{});
  }
}

TEST(ParallelMatrixOracleTest, HeavyDuplication) {
  // Five distinct packets, each repeated eight times and interleaved, so
  // every field string occurs many times (the diagonal C(ss) entries).
  std::vector<HttpPacket> distinct = TracePackets(5);
  std::vector<HttpPacket> packets;
  for (int copy = 0; copy < 8; ++copy) {
    packets.insert(packets.end(), distinct.begin(), distinct.end());
  }
  // One field shared across fields: the same bytes as a cookie and a body.
  packets[3].cookie = packets[4].body = "uid=" + std::string(40, '7');
  for (const char* codec : {"lzw", "lz77h", "entropy"}) {
    ExpectMatchesSerialOracle(packets, codec, DistanceOptions{});
  }
}

// The counters describe the work, not the schedule: one pair compression
// per distinct pair, whichever thread claims it. Repeated because a
// schedule-dependent count shows only on some interleavings.
TEST(ParallelMatrixStatsTest, CountersIndependentOfThreadCount) {
  std::vector<HttpPacket> packets = TracePackets(150);
  compress::LzwCompressor compressor;
  DistanceMatrixStats serial;
  ComputeDistanceMatrixParallel(packets, &compressor, DistanceOptions{}, 1,
                                &serial);
  ASSERT_GT(serial.ncd_pairs_computed, 0u);
  ASSERT_GT(serial.ncd_pair_hits, 0u);
  for (int round = 0; round < 25; ++round) {
    for (unsigned threads : {2u, 4u, 8u}) {
      DistanceMatrixStats stats;
      ComputeDistanceMatrixParallel(packets, &compressor, DistanceOptions{},
                                    threads, &stats);
      ASSERT_EQ(stats.ncd_pairs_computed, serial.ncd_pairs_computed)
          << "round=" << round << " threads=" << threads;
      ASSERT_EQ(stats.ncd_pair_hits, serial.ncd_pair_hits)
          << "round=" << round << " threads=" << threads;
      ASSERT_EQ(stats.singleton_compressions, serial.singleton_compressions);
    }
  }
}

}  // namespace
}  // namespace leakdet::core
