#include "net/host.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "sim/trafficgen.h"
#include "util/strutil.h"

namespace leakdet::net {
namespace {

TEST(NormalizeHostTest, LowercasesAndTrims) {
  EXPECT_EQ(NormalizeHost("  AdMob.COM  "), "admob.com");
  EXPECT_EQ(NormalizeHost("example.com."), "example.com");
  EXPECT_EQ(NormalizeHost(""), "");
}

TEST(IsValidHostnameTest, AcceptsTypicalHosts) {
  EXPECT_TRUE(IsValidHostname("admob.com"));
  EXPECT_TRUE(IsValidHostname("spad.i-mobile.co.jp"));
  EXPECT_TRUE(IsValidHostname("a"));
  EXPECT_TRUE(IsValidHostname("t0.gstatic.com"));
}

TEST(IsValidHostnameTest, RejectsMalformed) {
  EXPECT_FALSE(IsValidHostname(""));
  EXPECT_FALSE(IsValidHostname("-leading.com"));
  EXPECT_FALSE(IsValidHostname("trailing-.com"));
  EXPECT_FALSE(IsValidHostname("sp ace.com"));
  EXPECT_FALSE(IsValidHostname("dots..com"));
  EXPECT_FALSE(IsValidHostname("under_score.com"));
  EXPECT_FALSE(IsValidHostname(std::string(64, 'a') + ".com"));  // long label
  // Total length > 253.
  std::string long_host;
  for (int i = 0; i < 70; ++i) long_host += "abc.";
  long_host += "com";
  EXPECT_FALSE(IsValidHostname(long_host));
}

TEST(RegistrableDomainTest, GenericTlds) {
  EXPECT_EQ(RegistrableDomain("ads.g.doubleclick.net"), "doubleclick.net");
  EXPECT_EQ(RegistrableDomain("r.admob.com"), "admob.com");
  EXPECT_EQ(RegistrableDomain("api.ad-maker.info"), "ad-maker.info");
  EXPECT_EQ(RegistrableDomain("ads.mydas.mobi"), "mydas.mobi");
}

TEST(RegistrableDomainTest, JapaneseSecondLevelSuffixes) {
  EXPECT_EQ(RegistrableDomain("img.yahoo.co.jp"), "yahoo.co.jp");
  EXPECT_EQ(RegistrableDomain("spad.i-mobile.co.jp"), "i-mobile.co.jp");
  EXPECT_EQ(RegistrableDomain("a.b.example.ne.jp"), "example.ne.jp");
  // Plain .jp is a single-label suffix.
  EXPECT_EQ(RegistrableDomain("sp.adlantis.jp"), "adlantis.jp");
  EXPECT_EQ(RegistrableDomain("send.microad.jp"), "microad.jp");
}

TEST(RegistrableDomainTest, AlreadyRegistrable) {
  EXPECT_EQ(RegistrableDomain("doubleclick.net"), "doubleclick.net");
  EXPECT_EQ(RegistrableDomain("yahoo.co.jp"), "yahoo.co.jp");
}

TEST(RegistrableDomainTest, EdgeCases) {
  EXPECT_EQ(RegistrableDomain("localhost"), "localhost");
  EXPECT_EQ(RegistrableDomain("co.jp"), "co.jp");  // bare suffix unchanged
  EXPECT_EQ(RegistrableDomain(""), "");
  EXPECT_EQ(RegistrableDomain("UPPER.Example.COM"), "example.com");
}

// RegistrableDomain as it was written before RegistrableDomainInto: split
// the normalized host into labels and join the tail. The oracle for the
// reused-buffer form, which cuts the normalized host instead.
std::string SplitJoinRegistrableDomain(std::string_view host) {
  constexpr std::array<std::string_view, 10> kTwoLabelSuffixes = {
      "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
      "ad.jp", "ed.jp", "gr.jp", "lg.jp", "com.cn",
  };
  auto ends_with_suffix = [](std::string_view h, std::string_view suffix) {
    if (h.size() < suffix.size()) return false;
    if (h.size() == suffix.size()) return h == suffix;
    return h.ends_with(suffix) && h[h.size() - suffix.size() - 1] == '.';
  };
  std::string norm = NormalizeHost(host);
  std::vector<std::string_view> labels = Split(norm, '.');
  if (labels.size() <= 1) return norm;
  size_t suffix_labels = 1;
  for (auto two : kTwoLabelSuffixes) {
    if (ends_with_suffix(norm, two)) {
      suffix_labels = 2;
      break;
    }
  }
  size_t want = suffix_labels + 1;
  if (labels.size() <= want) return norm;
  std::vector<std::string_view> tail(labels.end() - static_cast<long>(want),
                                     labels.end());
  return Join(tail, ".");
}

TEST(RegistrableDomainTest, IntoMatchesSplitJoinOracle) {
  sim::TrafficConfig config;
  config.seed = 42;
  config.scale = 0.3;
  sim::Trace trace = sim::GenerateTrace(config);
  std::set<std::string> hosts;
  for (const sim::LabeledPacket& lp : trace.packets) {
    hosts.insert(lp.packet.destination.host);
  }
  ASSERT_GT(hosts.size(), 50u);
  std::vector<std::string> cases = {
      "",        "localhost", "LOCALHOST", "co.jp",    "com.cn",  "x.com.cn",
      "a..b.com", ".com",     ".",         "..",       " . ",     "a.",
      "co.jp.",  ".co.jp",    "a..co.jp",  "b.co.jp",  "   ",     "com",
      "\tAds.Example.CO.JP. \n"};
  for (const std::string& host : hosts) {
    cases.push_back(host);
    cases.push_back(AsciiToUpper(host));
    cases.push_back("  " + host + "\t");
    cases.push_back(host + ".");
  }
  std::string reused = "a buffer that held a much longer host before.example";
  for (const std::string& host : cases) {
    const std::string want = SplitJoinRegistrableDomain(host);
    EXPECT_EQ(RegistrableDomain(host), want) << "host '" << host << "'";
    RegistrableDomainInto(host, &reused);
    EXPECT_EQ(reused, want) << "host '" << host << "'";
  }
}

}  // namespace
}  // namespace leakdet::net
