#include "core/signature_server.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "core/flow_monitor.h"
#include "sim/trafficgen.h"
#include "store/snapshot.h"
#include "store/store_manager.h"
#include "testing/scripted_file.h"
#include "util/rng.h"

namespace leakdet::core {
namespace {

DeviceTokens TestDevice() {
  DeviceTokens d;
  d.android_id = "9774d56d682e549c";
  d.imei = "352099001761481";
  d.carrier = "NTT DOCOMO";
  return d;
}

HttpPacket AdPacket(const std::string& noise, bool leaking) {
  HttpPacket p;
  p.destination.host = "ads.stream-net.com";
  p.destination.ip = *net::Ipv4Address::Parse("31.7.7.7");
  p.destination.port = 80;
  p.request_line = "GET /live/get?k=" + noise +
                   (leaking ? "&udid=9774d56d682e549c" : "") + "&r=" + noise +
                   " HTTP/1.1";
  return p;
}

class SignatureServerTest : public ::testing::Test {
 protected:
  SignatureServerTest() : oracle_({TestDevice()}) {
    options_.retrain_after = 50;
    options_.pipeline.sample_size = 40;
    options_.pipeline.normal_corpus_size = 100;
  }

  PayloadCheck oracle_;
  SignatureServer::Options options_;
};

TEST_F(SignatureServerTest, NoFeedBeforeEnoughSuspiciousTraffic) {
  SignatureServer server(&oracle_, options_);
  Rng rng(1);
  for (int i = 0; i < 49; ++i) {
    EXPECT_FALSE(server.Ingest(AdPacket(rng.RandomHex(6), true)));
  }
  EXPECT_EQ(server.feed_version(), 0u);
  EXPECT_TRUE(server.signatures().empty());
}

TEST_F(SignatureServerTest, RetrainsAtThreshold) {
  SignatureServer server(&oracle_, options_);
  Rng rng(2);
  bool retrained = false;
  for (int i = 0; i < 50; ++i) {
    retrained = server.Ingest(AdPacket(rng.RandomHex(6), true));
  }
  EXPECT_TRUE(retrained);
  EXPECT_EQ(server.feed_version(), 1u);
  EXPECT_GE(server.signatures().size(), 1u);
}

TEST_F(SignatureServerTest, NormalTrafficDoesNotTriggerRetrain) {
  SignatureServer server(&oracle_, options_);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    EXPECT_FALSE(server.Ingest(AdPacket(rng.RandomHex(6), false)));
  }
  EXPECT_EQ(server.feed_version(), 0u);
  EXPECT_EQ(server.suspicious_pool_size(), 0u);
  EXPECT_EQ(server.normal_pool_size(), 500u);
}

TEST_F(SignatureServerTest, FeedDetectsSubsequentLeaks) {
  SignatureServer server(&oracle_, options_);
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    server.Ingest(AdPacket(rng.RandomHex(6), true));
  }
  for (int i = 0; i < 60; ++i) {
    server.Ingest(AdPacket(rng.RandomHex(6), false));
  }
  ASSERT_GE(server.feed_version(), 1u);
  Detector detector(server.signatures());
  EXPECT_TRUE(detector.IsSensitive(AdPacket("ffeedd", true)));
  EXPECT_FALSE(detector.IsSensitive(AdPacket("ffeedd", false)));
}

TEST_F(SignatureServerTest, FeedVersionAdvancesAcrossRetrains) {
  SignatureServer server(&oracle_, options_);
  Rng rng(5);
  for (int i = 0; i < 160; ++i) {
    server.Ingest(AdPacket(rng.RandomHex(6), true));
  }
  EXPECT_GE(server.feed_version(), 3u);
}

TEST_F(SignatureServerTest, PoolsEvictFifoAtCap) {
  options_.max_suspicious_pool = 30;
  options_.max_normal_pool = 20;
  options_.retrain_after = 1000000;  // never auto-retrain here
  SignatureServer server(&oracle_, options_);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    server.Ingest(AdPacket(rng.RandomHex(6), true));
    server.Ingest(AdPacket(rng.RandomHex(6), false));
  }
  EXPECT_EQ(server.suspicious_pool_size(), 30u);
  EXPECT_EQ(server.normal_pool_size(), 20u);
}

/// The naive model of the server's pools: a FIFO deque per pool, trimmed to
/// its cap on every push, and the since-last-retrain counter.
struct PoolModel {
  std::deque<HttpPacket> suspicious;
  std::deque<HttpPacket> normal;
  size_t new_suspicious = 0;

  static std::vector<HttpPacket> Vec(const std::deque<HttpPacket>& pool) {
    return std::vector<HttpPacket>(pool.begin(), pool.end());
  }
};

void ExpectPoolsMatch(SignatureServer& server, const PoolModel& model,
                      bool check_accessors, const std::string& where) {
  ASSERT_EQ(server.suspicious_pool_size(), model.suspicious.size()) << where;
  ASSERT_EQ(server.normal_pool_size(), model.normal.size()) << where;
  ASSERT_EQ(server.new_suspicious(), model.new_suspicious) << where;
  if (!check_accessors) return;
  ASSERT_EQ(server.suspicious_pool(), PoolModel::Vec(model.suspicious))
      << where;
  ASSERT_EQ(server.normal_pool(), PoolModel::Vec(model.normal)) << where;
}

// Random ingest streams on tiny caps against the deque model: the live pool
// sizes after every ingest, the pools the accessors return (read at varying
// rates, so evictions pile up between reads), the exact pools every retrain
// trains on, a Restore() mid-stream (including pools above their caps), and
// snapshots taken between retrains.
TEST_F(SignatureServerTest, PoolEvictionMatchesFifoModel) {
  options_.max_normal_pool = 5;
  options_.max_suspicious_pool = 3;
  options_.retrain_after = 2;
  for (uint64_t stream = 0; stream < 12; ++stream) {
    SCOPED_TRACE("stream " + std::to_string(stream));
    Rng rng(1000 + stream);
    const uint64_t check_every = std::vector<uint64_t>{1, 4, 1000}[stream % 3];
    SignatureServer server(&oracle_, options_);
    std::vector<std::pair<std::vector<HttpPacket>, std::vector<HttpPacket>>>
        trained;
    server.SetTrainingBackend(
        [&](const std::vector<HttpPacket>& suspicious,
            const std::vector<HttpPacket>& normal, const PipelineOptions&) {
          trained.emplace_back(suspicious, normal);
          return StatusOr<PipelineResult>(PipelineResult{});
        });
    leakdet::testing::ScriptedDir dir;
    auto store = store::StoreManager::Open(&dir, "data", store::StoreOptions());
    ASSERT_TRUE(store.ok());

    PoolModel model;
    size_t expected_retrains = 0;
    const int steps = 300;
    const int restore_at = static_cast<int>(rng.UniformInt(steps));
    for (int step = 0; step < steps; ++step) {
      const std::string where = "step " + std::to_string(step);
      if (step == restore_at) {
        // Restore a state of its own, with pools above their caps: the next
        // ingest into each pool trims it back, exactly as a push would.
        SignatureServer::State state;
        model = PoolModel{};
        for (int i = 0; i < 7; ++i) {
          model.suspicious.push_back(AdPacket("r" + std::to_string(i), true));
        }
        for (int i = 0; i < 9; ++i) {
          model.normal.push_back(AdPacket("q" + std::to_string(i), false));
        }
        model.new_suspicious = 1;
        state.suspicious = PoolModel::Vec(model.suspicious);
        state.normal = PoolModel::Vec(model.normal);
        state.new_suspicious = model.new_suspicious;
        state.feed_version = server.feed_version();
        server.Restore(std::move(state));
        ExpectPoolsMatch(server, model, rng.UniformInt(2) == 0, where);
      }

      const bool leaking = rng.UniformInt(100) < 45;
      HttpPacket packet = AdPacket(rng.RandomHex(6), leaking);
      std::deque<HttpPacket>& pool =
          leaking ? model.suspicious : model.normal;
      pool.push_back(packet);
      const size_t cap =
          leaking ? options_.max_suspicious_pool : options_.max_normal_pool;
      while (pool.size() > cap) pool.pop_front();
      bool retrain_expected = false;
      if (leaking && ++model.new_suspicious >= options_.retrain_after) {
        retrain_expected = true;
        ++expected_retrains;
      }

      ASSERT_EQ(server.Ingest(packet), retrain_expected) << where;
      if (retrain_expected) {
        ASSERT_EQ(trained.size(), expected_retrains) << where;
        EXPECT_EQ(trained.back().first, PoolModel::Vec(model.suspicious))
            << where;
        EXPECT_EQ(trained.back().second, PoolModel::Vec(model.normal))
            << where;
        model.new_suspicious = 0;
      }
      ExpectPoolsMatch(server, model, rng.UniformInt(check_every) == 0, where);

      if (!retrain_expected && rng.UniformInt(40) == 0) {
        // A snapshot between retrains persists exactly the live pools.
        ASSERT_TRUE((*store)->WriteSnapshot(server).ok()) << where;
        auto loaded = store::LoadNewestSnapshot(&dir, "data");
        ASSERT_TRUE(loaded.ok()) << where;
        EXPECT_EQ(loaded->suspicious, PoolModel::Vec(model.suspicious))
            << where;
        EXPECT_EQ(loaded->normal, PoolModel::Vec(model.normal)) << where;
        EXPECT_EQ(loaded->new_suspicious, model.new_suspicious) << where;
      }
    }
    ExpectPoolsMatch(server, model, true, "end");
    EXPECT_EQ(server.feed_version(), expected_retrains);
  }
}

TEST_F(SignatureServerTest, ManualRetrainWithoutTrafficIsNoop) {
  SignatureServer server(&oracle_, options_);
  EXPECT_FALSE(server.Retrain());
  EXPECT_EQ(server.feed_version(), 0u);
}

TEST_F(SignatureServerTest, FeedRoundTripsToDevice) {
  SignatureServer server(&oracle_, options_);
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    server.Ingest(AdPacket(rng.RandomHex(6), true));
  }
  ASSERT_GE(server.feed_version(), 1u);
  auto restored = match::SignatureSet::Deserialize(server.Feed());
  ASSERT_TRUE(restored.ok());
  Detector device_detector(std::move(*restored));
  FlowMonitor monitor(&device_detector, nullptr);  // block-all policy
  EXPECT_EQ(monitor.Mediate(AdPacket("aabbcc", true)),
            FlowVerdict::kBlockedByPolicy);
  EXPECT_EQ(monitor.Mediate(AdPacket("aabbcc", false)),
            FlowVerdict::kPassedSilently);
}

TEST_F(SignatureServerTest, FeedObserverFiresOnEveryRetrain) {
  SignatureServer server(&oracle_, options_);
  std::vector<uint64_t> observed_versions;
  size_t observed_sigs = 0;
  server.SetFeedObserver(
      [&](uint64_t version, const match::SignatureSet& set) {
        observed_versions.push_back(version);
        observed_sigs = set.size();
        // The hook runs after publication: the version is already visible.
        EXPECT_EQ(server.feed_version(), version);
      });
  Rng rng(8);
  for (int i = 0; i < 160; ++i) {
    server.Ingest(AdPacket(rng.RandomHex(6), true));
  }
  ASSERT_GE(server.feed_version(), 3u);
  // One observation per retrain, versions strictly increasing from 1.
  ASSERT_EQ(observed_versions.size(), server.feed_version());
  for (size_t i = 0; i < observed_versions.size(); ++i) {
    EXPECT_EQ(observed_versions[i], i + 1);
  }
  EXPECT_EQ(observed_sigs, server.signatures().size());
}

TEST_F(SignatureServerTest, EndToEndOnSimulatedTrafficStream) {
  sim::TrafficConfig config;
  config.seed = 21;
  config.scale = 0.03;
  sim::Trace trace = sim::GenerateTrace(config);
  PayloadCheck oracle({trace.device.ToTokens()});
  SignatureServer::Options options;
  options.retrain_after = 300;
  options.pipeline.sample_size = 150;
  SignatureServer server(&oracle, options);
  size_t retrains = 0;
  for (const sim::LabeledPacket& lp : trace.packets) {
    if (server.Ingest(lp.packet)) ++retrains;
  }
  EXPECT_GE(retrains, 2u);
  // The final feed catches most leaks in a replay.
  Detector detector(server.signatures());
  size_t detected = 0, sensitive = 0;
  for (const sim::LabeledPacket& lp : trace.packets) {
    if (!lp.sensitive()) continue;
    ++sensitive;
    if (detector.IsSensitive(lp.packet)) ++detected;
  }
  EXPECT_GT(static_cast<double>(detected) / static_cast<double>(sensitive),
            0.6);
}

}  // namespace
}  // namespace leakdet::core
