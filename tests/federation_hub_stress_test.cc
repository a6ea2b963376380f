// Concurrency soak for the federation hub: many submit threads spraying
// packets across tenants (and unknown tenants) while every tenant's trainer
// retrains and hot-swaps epochs. Run under ThreadSanitizer in CI's stress
// tier; assertions here are liveness and conservation, the sanitizer owns
// the data-race half.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/packet.h"
#include "core/payload_check.h"
#include "federation/hub.h"
#include "gateway/gateway.h"
#include "obs/metrics.h"
#include "testing/packet_gen.h"
#include "util/rng.h"

namespace leakdet::federation {
namespace {

using leakdet::testing::GeneratePacket;

constexpr int kThreads = 4;
#ifdef LEAKDET_TSAN_BUILD
constexpr int kPacketsPerThread = 100;  // TSan runs ~10x slower
#else
constexpr int kPacketsPerThread = 400;
#endif
const char* const kTenants[] = {"acme", "globex", "initech"};

TEST(FederationHubStressTest, ConcurrentSubmitAcrossTenantsWhilePublishing) {
  Rng seed_rng(31415);
  std::vector<core::DeviceTokens> devices;
  for (int i = 0; i < 9; ++i) {
    core::DeviceTokens device;
    device.android_id = seed_rng.RandomHex(16);
    device.imei = seed_rng.RandomDigits(15);
    device.imsi = seed_rng.RandomDigits(15);
    device.sim_serial = seed_rng.RandomDigits(19);
    device.carrier = "NTT DOCOMO";
    devices.push_back(device);
  }
  core::PayloadCheck oracle(devices);
  obs::Registry registry;

  gateway::GatewayOptions gw_options;
  gw_options.num_shards = 2;
  gw_options.queue_capacity = 256;
  gateway::DetectionGateway gateway(gw_options);

  HubOptions options;
  options.defaults.k_anonymity = 2;
  options.defaults.witness_window = 256;
  options.server.retrain_after = 25;
  options.server.pipeline.sample_size = 10;
  options.server.pipeline.normal_corpus_size = 20;
  options.server.pipeline.num_threads = 1;
  options.registry = &registry;

  // app_id 1..3 map onto the tenants; anything else is a stranger.
  FederationHub hub(
      &gateway,
      &oracle,
      [](const core::HttpPacket& packet) -> std::string {
        if (packet.app_id >= 1 && packet.app_id <= 3) {
          return kTenants[packet.app_id - 1];
        }
        return "stranger";
      },
      options);
  for (const char* tenant : kTenants) {
    ASSERT_TRUE(hub.AddTenant(tenant).ok());
  }
  ASSERT_TRUE(gateway.Start().ok());
  ASSERT_TRUE(hub.Start().ok());

  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kPacketsPerThread; ++i) {
        // Tenant 0..2 (occasionally a stranger), device 0..2 within it.
        uint32_t tenant = static_cast<uint32_t>(rng.UniformInt(16));
        size_t device = rng.UniformInt(3);
        const core::DeviceTokens& tokens =
            devices[(tenant % 3) * 3 + device];
        core::HttpPacket packet =
            GeneratePacket(&rng, {tokens.android_id, tokens.imei}, 0.6);
        packet.app_id = tenant < 12 ? (tenant % 3) + 1 : 99;
        uint64_t key = (tenant % 3) * 100 + device + 1;
        if (hub.Submit(key, packet)) accepted.fetch_add(1);
        if (i % 64 == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  gateway.Stop();
  hub.Stop();

  EXPECT_EQ(accepted.load(),
            static_cast<uint64_t>(kThreads) * kPacketsPerThread)
      << "kBlock gateway shed packets before Stop";

  // Conservation: every submit landed in exactly one tenant counter or the
  // unknown-tenant counter.
  uint64_t counted =
      registry.GetCounter("federation.unknown_tenant")->Value();
  for (const char* tenant : kTenants) {
    counted += registry
                   .GetCounter("federation.submitted", {{"tenant", tenant}})
                   ->Value();
  }
  EXPECT_EQ(counted, accepted.load());

  // Liveness: with ~500 packets per tenant at retrain_after=25, every
  // tenant must have published at least once, into its own gateway.
  for (const char* tenant : kTenants) {
    auto feed = hub.TenantFeed(tenant);
    ASSERT_TRUE(feed.has_value()) << tenant;
    EXPECT_GE(feed->first, 1u) << tenant << " never published";
    EXPECT_GE(hub.gateway(tenant)->current_version(), 1u) << tenant;
  }
  EXPECT_EQ(gateway.current_version(), 0u);
  // Reads under concurrency exercised the statusz path too.
  EXPECT_FALSE(hub.StatuszRender().empty());
}

}  // namespace
}  // namespace leakdet::federation
