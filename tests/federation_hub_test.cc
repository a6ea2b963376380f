// End-to-end multi-tenant federation: each tenant trains into its own
// gateway with its own K-anonymity policy and its own store lineage, with
// feeds served per tenant over HTTP.

#include "federation/hub.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/packet.h"
#include "core/payload_check.h"
#include "federation/tenant_store.h"
#include "gateway/gateway.h"
#include "io/feed_server.h"
#include "obs/metrics.h"
#include "testing/packet_gen.h"
#include "testing/scripted_file.h"
#include "util/rng.h"

namespace leakdet::federation {
namespace {

using leakdet::testing::GeneratePacket;
using leakdet::testing::ScriptedDir;

constexpr uint32_t kAcmeApp = 1;
constexpr uint32_t kGlobexApp = 2;

std::string ResolveByApp(const core::HttpPacket& packet) {
  switch (packet.app_id) {
    case kAcmeApp:
      return "acme";
    case kGlobexApp:
      return "globex";
    default:
      return "stranger";
  }
}

struct HubWorld {
  HubWorld() : rng(2718) {
    for (int tenant = 0; tenant < 2; ++tenant) {
      for (int i = 0; i < 3; ++i) {
        core::DeviceTokens device;
        device.android_id = rng.RandomHex(16);
        device.imei = rng.RandomDigits(15);
        device.imsi = rng.RandomDigits(15);
        device.sim_serial = rng.RandomDigits(19);
        device.carrier = "NTT DOCOMO";
        devices.push_back(device);
      }
    }
    oracle = std::make_unique<core::PayloadCheck>(devices);
  }

  HubOptions Options() {
    HubOptions options;
    options.defaults.k_anonymity = 2;
    options.defaults.witness_window = 512;
    // acme runs ungated (K=1): its feed publishes whatever trains, which
    // pins down that overrides are honored per tenant.
    options.tenant_overrides["acme"].k_anonymity = 1;
    options.server.retrain_after = 10;
    options.server.pipeline.sample_size = 10;
    options.server.pipeline.normal_corpus_size = 20;
    options.server.pipeline.num_threads = 1;
    options.registry = &registry;
    return options;
  }

  /// One packet for tenant index 0 (acme) or 1 (globex), emitted by one of
  /// the tenant's three devices. Returns (device_key, packet).
  std::pair<uint64_t, core::HttpPacket> TenantPacket(int tenant) {
    size_t device = rng.UniformInt(3);
    const core::DeviceTokens& tokens = devices[tenant * 3 + device];
    core::HttpPacket packet =
        GeneratePacket(&rng, {tokens.android_id, tokens.imei}, 0.7);
    packet.app_id = tenant == 0 ? kAcmeApp : kGlobexApp;
    return {static_cast<uint64_t>(tenant * 100 + device + 1), packet};
  }

  Rng rng;
  std::vector<core::DeviceTokens> devices;
  std::unique_ptr<core::PayloadCheck> oracle;
  obs::Registry registry;
};

bool WaitFor(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(FederationHubTest, TwoTenantsTrainIntoSeparateNamespaces) {
  HubWorld world;
  gateway::GatewayOptions gw_options;
  gw_options.num_shards = 2;
  gateway::DetectionGateway gateway(gw_options);
  FederationHub hub(&gateway, world.oracle.get(), ResolveByApp,
                    world.Options());
  ASSERT_TRUE(hub.AddTenant("acme").ok());
  ASSERT_TRUE(hub.AddTenant("globex").ok());
  EXPECT_FALSE(hub.AddTenant("acme").ok()) << "duplicate tenant accepted";
  ASSERT_TRUE(gateway.Start().ok());
  ASSERT_TRUE(hub.Start().ok());

  for (int i = 0; i < 300; ++i) {
    auto [key_a, packet_a] = world.TenantPacket(0);
    auto [key_g, packet_g] = world.TenantPacket(1);
    ASSERT_TRUE(hub.Submit(key_a, packet_a));
    ASSERT_TRUE(hub.Submit(key_g, packet_g));
  }
  EXPECT_TRUE(WaitFor([&] {
    auto acme = hub.TenantFeed("acme");
    auto globex = hub.TenantFeed("globex");
    return acme && acme->first >= 1 && globex && globex->first >= 1;
  })) << "tenants never published a feed";

  gateway.Stop();
  hub.Stop();

  // Epochs landed in each tenant's own gateway, not the caller's one.
  ASSERT_NE(hub.gateway("acme"), nullptr);
  ASSERT_NE(hub.gateway("globex"), nullptr);
  EXPECT_EQ(hub.gateway("nosuch"), nullptr);
  EXPECT_NE(hub.gateway("acme"), hub.gateway("globex"));
  EXPECT_GE(hub.gateway("acme")->current_version(), 1u);
  EXPECT_GE(hub.gateway("globex")->current_version(), 1u);
  EXPECT_NE(hub.gateway("acme")->current_set(), nullptr);
  EXPECT_NE(hub.gateway("globex")->current_set(), nullptr);
  // Tenant gateways take the caller's shape.
  EXPECT_EQ(hub.gateway("acme")->num_shards(), gateway.num_shards());
  // A tenant publish leaves the caller's gateway untouched: no epoch, no
  // swap, and no publish time for /statusz to age from.
  EXPECT_EQ(gateway.current_version(), 0u)
      << "tenant feed leaked into default";
  EXPECT_EQ(gateway.swaps(), 0u);
  EXPECT_EQ(gateway.epoch_age_ns(), 0u);

  // The cached tenant feed is exactly what the tenant's server last
  // published.
  auto acme = hub.TenantFeed("acme");
  ASSERT_TRUE(acme.has_value());
  EXPECT_EQ(acme->first, hub.server("acme")->feed_version());
  EXPECT_EQ(acme->second, hub.server("acme")->Feed());
  EXPECT_FALSE(hub.TenantFeed("nosuch").has_value());

  // globex (K=2): no device-unique identifier value may appear anywhere in
  // the published feed payload.
  auto globex = hub.TenantFeed("globex");
  ASSERT_TRUE(globex.has_value());
  for (const core::DeviceTokens& device : world.devices) {
    EXPECT_EQ(globex->second.find(device.android_id), std::string::npos);
    EXPECT_EQ(globex->second.find(device.imei), std::string::npos);
  }

  // statusz covers both tenants.
  std::string statusz = hub.StatuszRender();
  EXPECT_NE(statusz.find("acme"), std::string::npos);
  EXPECT_NE(statusz.find("globex"), std::string::npos);

  EXPECT_GT(
      world.registry.GetCounter("federation.submitted", {{"tenant", "acme"}})
          ->Value(),
      0u);
}

TEST(FederationHubTest, UnknownTenantFallsBackToDefaultNamespace) {
  HubWorld world;
  gateway::GatewayOptions gw_options;
  gw_options.num_shards = 1;
  gateway::DetectionGateway gateway(gw_options);
  FederationHub hub(&gateway, world.oracle.get(), ResolveByApp,
                    world.Options());
  ASSERT_TRUE(hub.AddTenant("acme").ok());
  ASSERT_TRUE(gateway.Start().ok());
  ASSERT_TRUE(hub.Start().ok());

  auto [key, packet] = world.TenantPacket(0);
  packet.app_id = 777;  // resolves to "stranger", which is not configured
  EXPECT_TRUE(hub.Submit(key, packet));
  gateway.Stop();
  hub.Stop();
  EXPECT_EQ(world.registry.GetCounter("federation.unknown_tenant")->Value(),
            1u);
  EXPECT_EQ(gateway.processed(), 1u);
  EXPECT_EQ(hub.gateway("acme")->submitted(), 0u);
}

TEST(FederationHubTest, TenantLineagesPersistAndRecover) {
  HubWorld world;
  ScriptedDir dir(7);  // no faults: a clean in-memory filesystem
  uint64_t acme_version = 0;
  std::string acme_feed;
  {
    gateway::DetectionGateway gateway(gateway::GatewayOptions{});
    HubOptions options = world.Options();
    options.data_root = "federation";
    options.dir = &dir;
    FederationHub hub(&gateway, world.oracle.get(), ResolveByApp, options);
    ASSERT_TRUE(hub.AddTenant("acme").ok());
    ASSERT_TRUE(hub.AddTenant("globex").ok());
    ASSERT_TRUE(gateway.Start().ok());
    ASSERT_TRUE(hub.Start().ok());
    for (int i = 0; i < 300; ++i) {
      auto [key, packet] = world.TenantPacket(0);
      ASSERT_TRUE(hub.Submit(key, packet));
    }
    ASSERT_TRUE(WaitFor([&] {
      auto feed = hub.TenantFeed("acme");
      return feed && feed->first >= 1;
    })) << "acme never published";
    gateway.Stop();
    hub.Stop();
    auto feed = hub.TenantFeed("acme");
    ASSERT_TRUE(feed.has_value());
    acme_version = feed->first;
    acme_feed = feed->second;
  }

  // Each tenant trained into its own directory lineage.
  EXPECT_EQ(ListTenants(&dir, "federation"),
            (std::vector<std::string>{"acme", "globex"}));

  // A fresh hub over the same root recovers acme's feed and republishes its
  // epoch into acme's gateway before any traffic flows.
  {
    gateway::DetectionGateway gateway(gateway::GatewayOptions{});
    HubOptions options = world.Options();
    options.data_root = "federation";
    options.dir = &dir;
    FederationHub hub(&gateway, world.oracle.get(), ResolveByApp, options);
    ASSERT_TRUE(hub.AddTenant("acme").ok());
    auto feed = hub.TenantFeed("acme");
    ASSERT_TRUE(feed.has_value());
    EXPECT_EQ(feed->first, acme_version);
    EXPECT_EQ(feed->second, acme_feed);
    EXPECT_EQ(hub.gateway("acme")->current_version(), acme_version);
    EXPECT_EQ(gateway.current_version(), 0u);
    hub.Stop();
  }
}

TEST(FederationHubTest, FeedServerServesPerTenantFeeds) {
  HubWorld world;
  gateway::DetectionGateway gateway(gateway::GatewayOptions{});
  FederationHub hub(&gateway, world.oracle.get(), ResolveByApp,
                    world.Options());
  ASSERT_TRUE(hub.AddTenant("acme").ok());
  ASSERT_TRUE(hub.AddTenant("globex").ok());
  ASSERT_TRUE(gateway.Start().ok());
  ASSERT_TRUE(hub.Start().ok());
  for (int i = 0; i < 300; ++i) {
    auto [key, packet] = world.TenantPacket(0);
    ASSERT_TRUE(hub.Submit(key, packet));
  }
  ASSERT_TRUE(WaitFor([&] {
    auto feed = hub.TenantFeed("acme");
    return feed && feed->first >= 1;
  }));
  gateway.Stop();
  hub.Stop();

  io::FeedServer server([] { return std::make_pair(uint64_t{42},
                                                   std::string("default")); });
  server.set_tenant_provider(
      [&hub](const std::string& tenant) { return hub.TenantFeed(tenant); });
  ASSERT_TRUE(server.Start(0).ok());

  auto expected = hub.TenantFeed("acme");
  ASSERT_TRUE(expected.has_value());
  auto fetched = io::FetchFeed(server.port(), "acme");
  ASSERT_TRUE(fetched.ok()) << fetched.status().message();
  EXPECT_EQ(fetched->version, expected->first);
  EXPECT_EQ(fetched->payload, expected->second);

  auto version = io::FetchFeedVersion(server.port(), "globex");
  ASSERT_TRUE(version.ok()) << version.status().message();
  auto globex = hub.TenantFeed("globex");
  ASSERT_TRUE(globex.has_value());
  EXPECT_EQ(*version, globex->first);

  // An unknown tenant must 404, never receive another tenant's feed.
  EXPECT_FALSE(io::FetchFeed(server.port(), "nosuch").ok());

  // Untenanted requests still resolve through the default provider.
  auto plain = io::FetchFeed(server.port());
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  EXPECT_EQ(plain->version, 42u);
  EXPECT_EQ(plain->payload, "default");

  server.Stop();
}

}  // namespace
}  // namespace leakdet::federation
