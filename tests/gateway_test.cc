#include "gateway/gateway.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/payload_check.h"
#include "core/pipeline.h"
#include "core/signature_server.h"
#include "gateway/trainer.h"
#include "match/compiled_set.h"
#include "net/host.h"
#include "sim/trafficgen.h"
#include "testing/packet_gen.h"
#include "util/rng.h"

namespace leakdet::gateway {
namespace {

using core::HttpPacket;
using match::CompiledSignatureSet;
using match::ConjunctionSignature;
using match::SignatureSet;

SignatureSet LeakSignatures() {
  ConjunctionSignature sig;
  sig.id = "sig-0";
  sig.tokens = {"udid=9774d56d682e549c"};
  sig.host_scope = "stream-net.com";
  return SignatureSet({sig});
}

HttpPacket AdPacket(uint32_t app_id, const std::string& noise, bool leaking) {
  HttpPacket p;
  p.app_id = app_id;
  p.destination.host = "ads.stream-net.com";
  p.destination.port = 80;
  p.request_line = "GET /live/get?k=" + noise +
                   (leaking ? "&udid=9774d56d682e549c" : "") + " HTTP/1.1";
  return p;
}

TEST(DetectionGatewayTest, VerdictsAgreeWithSingleThreadedDetector) {
  GatewayOptions options;
  options.num_shards = 3;
  DetectionGateway gateway(options);
  gateway.Publish(std::make_shared<const CompiledSignatureSet>(
      LeakSignatures(), 1));

  std::mutex mu;
  std::vector<std::pair<HttpPacket, Verdict>> seen;
  gateway.set_sink([&](const HttpPacket& packet, const Verdict& verdict) {
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(packet, verdict);
  });
  ASSERT_TRUE(gateway.Start().ok());

  Rng rng(3);
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(gateway.Submit(i, AdPacket(i, rng.RandomHex(6), i % 3 == 0)));
  }
  gateway.Stop();

  core::Detector baseline(LeakSignatures());
  ASSERT_EQ(seen.size(), 200u);
  for (const auto& [packet, verdict] : seen) {
    EXPECT_EQ(verdict.sensitive, baseline.IsSensitive(packet));
    EXPECT_EQ(verdict.feed_version, 1u);
  }
  EXPECT_EQ(gateway.processed(), 200u);
  EXPECT_EQ(gateway.matched(), 67u);  // i % 3 == 0 for i in [0, 200)
}

TEST(DetectionGatewayTest, NoVerdictsAreSensitiveBeforeFirstPublish) {
  DetectionGateway gateway(GatewayOptions{});
  std::atomic<uint64_t> sensitive{0};
  std::atomic<uint64_t> total{0};
  gateway.set_sink([&](const HttpPacket&, const Verdict& verdict) {
    total.fetch_add(1);
    if (verdict.sensitive) sensitive.fetch_add(1);
    EXPECT_EQ(verdict.feed_version, 0u);
  });
  ASSERT_TRUE(gateway.Start().ok());
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(gateway.Submit(i, AdPacket(i, "aa", true)));
  }
  gateway.Stop();
  EXPECT_EQ(total.load(), 50u);
  EXPECT_EQ(sensitive.load(), 0u);
}

TEST(DetectionGatewayTest, NoPacketLostBelowCapacity) {
  GatewayOptions options;
  options.num_shards = 4;
  options.queue_capacity = 64;
  options.overload = OverloadPolicy::kBlock;
  DetectionGateway gateway(options);
  std::atomic<uint64_t> delivered{0};
  gateway.set_sink(
      [&](const HttpPacket&, const Verdict&) { delivered.fetch_add(1); });
  ASSERT_TRUE(gateway.Start().ok());
  constexpr uint32_t kPackets = 5000;
  for (uint32_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(gateway.Submit(i, AdPacket(i, "bb", false)));
  }
  gateway.Stop();  // drains
  EXPECT_EQ(delivered.load(), kPackets);
  EXPECT_EQ(gateway.submitted(), kPackets);
  EXPECT_EQ(gateway.processed(), kPackets);
  EXPECT_EQ(gateway.dropped(), 0u);
}

TEST(DetectionGatewayTest, DropCountersExactWhenOverCapacity) {
  GatewayOptions options;
  options.num_shards = 2;
  options.queue_capacity = 16;
  options.overload = OverloadPolicy::kDropNewest;
  DetectionGateway gateway(options);
  // Workers not started: queues only fill, so drops are deterministic.
  const uint64_t device = 7;
  size_t shard = gateway.shard_of(device);
  constexpr uint32_t kSubmitted = 50;
  uint32_t accepted = 0;
  for (uint32_t i = 0; i < kSubmitted; ++i) {
    if (gateway.Submit(device, AdPacket(1, "cc", false))) ++accepted;
  }
  EXPECT_EQ(accepted, 16u);  // exactly the queue capacity
  EXPECT_EQ(gateway.dropped(), kSubmitted - 16u);
  std::string drop_counter =
      "gateway.shard" + std::to_string(shard) + ".dropped";
  EXPECT_EQ(gateway.metrics()->GetCounter(drop_counter)->Value(),
            kSubmitted - 16u);
  // Draining afterwards delivers exactly the accepted ones.
  std::atomic<uint64_t> delivered{0};
  gateway.set_sink(
      [&](const HttpPacket&, const Verdict&) { delivered.fetch_add(1); });
  ASSERT_TRUE(gateway.Start().ok());
  gateway.Stop();
  EXPECT_EQ(delivered.load(), 16u);
}

TEST(DetectionGatewayTest, PublishRejectsStaleVersions) {
  DetectionGateway gateway(GatewayOptions{});
  EXPECT_FALSE(gateway.Publish(nullptr));
  EXPECT_TRUE(gateway.Publish(
      std::make_shared<const CompiledSignatureSet>(LeakSignatures(), 2)));
  EXPECT_FALSE(gateway.Publish(
      std::make_shared<const CompiledSignatureSet>(LeakSignatures(), 2)));
  EXPECT_FALSE(gateway.Publish(
      std::make_shared<const CompiledSignatureSet>(LeakSignatures(), 1)));
  EXPECT_EQ(gateway.current_version(), 2u);
  EXPECT_TRUE(gateway.Publish(
      std::make_shared<const CompiledSignatureSet>(LeakSignatures(), 3)));
  EXPECT_EQ(gateway.current_version(), 3u);
  EXPECT_EQ(gateway.swaps(), 2u);
  EXPECT_EQ(gateway.metrics()->GetCounter("gateway.swap_rejected")->Value(),
            2u);
}

TEST(DetectionGatewayTest, SubmitAfterStopIsRefused) {
  DetectionGateway gateway(GatewayOptions{});
  ASSERT_TRUE(gateway.Start().ok());
  gateway.Stop();
  EXPECT_FALSE(gateway.Submit(1, AdPacket(1, "dd", false)));
  EXPECT_EQ(gateway.dropped(), 1u);
}

TEST(DetectionGatewayTest, PerDeviceOrderIsPreserved) {
  GatewayOptions options;
  options.num_shards = 4;
  DetectionGateway gateway(options);
  gateway.Publish(
      std::make_shared<const CompiledSignatureSet>(LeakSignatures(), 1));
  std::mutex mu;
  std::vector<std::string> order_device3;
  gateway.set_sink([&](const HttpPacket& packet, const Verdict&) {
    if (packet.app_id == 3) {
      std::lock_guard<std::mutex> lock(mu);
      order_device3.push_back(packet.request_line);
    }
  });
  ASSERT_TRUE(gateway.Start().ok());
  std::vector<std::string> expected;
  for (uint32_t i = 0; i < 500; ++i) {
    uint32_t device = i % 10;
    HttpPacket p = AdPacket(device, "seq" + std::to_string(i), false);
    if (device == 3) expected.push_back(p.request_line);
    ASSERT_TRUE(gateway.Submit(device, p));
  }
  gateway.Stop();
  EXPECT_EQ(order_device3, expected);
}

// The traffic the gateway serves in production: a feed core::RunPipeline
// trained on a sim trace, matched against that trace. Every verdict's match
// count must equal the single-threaded Detector's on the same packet.
TEST(DetectionGatewayTest, TrainedFeedVerdictsMatchDetector) {
  sim::TrafficConfig config;
  config.seed = 36;
  config.scale = 0.03;
  sim::Trace trace = sim::GenerateTrace(config);
  std::vector<HttpPacket> packets;
  for (const sim::LabeledPacket& lp : trace.packets) {
    packets.push_back(lp.packet);
  }
  core::PayloadCheck oracle({trace.device.ToTokens()});
  std::vector<HttpPacket> suspicious;
  std::vector<HttpPacket> normal;
  oracle.Split(packets, &suspicious, &normal);
  core::PipelineOptions pipeline;
  pipeline.sample_size = 40;
  pipeline.normal_corpus_size = 100;
  pipeline.num_threads = 1;
  auto trained = core::RunPipeline(suspicious, normal, pipeline);
  ASSERT_TRUE(trained.ok()) << trained.status().message();
  ASSERT_GT(trained->signatures.size(), 0u);

  GatewayOptions options;
  options.num_shards = 2;
  DetectionGateway gateway(options);
  gateway.Publish(
      std::make_shared<const CompiledSignatureSet>(trained->signatures, 1));
  std::mutex mu;
  std::vector<std::pair<HttpPacket, Verdict>> seen;
  gateway.set_sink([&](const HttpPacket& packet, const Verdict& verdict) {
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(packet, verdict);
  });
  ASSERT_TRUE(gateway.Start().ok());
  for (size_t i = 0; i < packets.size(); ++i) {
    ASSERT_TRUE(gateway.Submit(packets[i].app_id, packets[i]));
  }
  gateway.Stop();

  core::Detector baseline(trained->signatures);
  ASSERT_EQ(seen.size(), packets.size());
  uint64_t sensitive = 0;
  for (const auto& [packet, verdict] : seen) {
    EXPECT_EQ(verdict.num_matches,
              baseline.MatchedSignatureIds(packet).size());
    EXPECT_EQ(verdict.sensitive, verdict.num_matches > 0);
    EXPECT_EQ(verdict.feed_version, 1u);
    if (verdict.sensitive) ++sensitive;
  }
  EXPECT_GT(sensitive, 0u);
  EXPECT_EQ(gateway.matched(), sensitive);
}

TEST(DetectionGatewayTest, StartTwiceFails) {
  DetectionGateway gateway(GatewayOptions{});
  ASSERT_TRUE(gateway.Start().ok());
  EXPECT_FALSE(gateway.Start().ok());
  gateway.Stop();
}

/// What a published epoch looked like when it went live, for comparing
/// against whatever TrainerLoop::SetForVersion later hands back.
struct EpochImage {
  std::string serialized;
  size_t num_states = 0;
  size_t table_bytes = 0;
  std::vector<std::vector<size_t>> hits;  ///< MatchInto hits per trace packet
  std::weak_ptr<const CompiledSignatureSet> weak;
};

EpochImage ImageOf(const std::shared_ptr<const CompiledSignatureSet>& set,
                   const std::vector<std::string>& contents,
                   const std::vector<std::string>& domains) {
  EpochImage image;
  image.serialized = set->set().Serialize();
  image.num_states = set->num_states();
  image.table_bytes = set->table_bytes();
  match::MatchScratch scratch;
  for (size_t i = 0; i < contents.size(); ++i) {
    set->MatchInto(contents[i], domains[i], &scratch);
    image.hits.push_back(scratch.hits);
  }
  image.weak = set;
  return image;
}

// The archive's footprint per epoch is its serialized feed (~KBs), not a
// SignatureSet with its automaton: the gauge grows by at most the feed
// published plus a small constant, and every epoch still rebuilds.
TEST(TrainerArchiveTest, ArchiveGrowsByTheSerializedFeedPerEpoch) {
  sim::TrafficConfig config;
  config.seed = 34;
  config.scale = 0.03;
  sim::Trace trace = sim::GenerateTrace(config);
  core::PayloadCheck oracle({trace.device.ToTokens()});
  core::SignatureServer::Options options;
  options.retrain_after = 1u << 30;  // retrains only when the test asks
  options.pipeline.sample_size = 40;
  options.pipeline.normal_corpus_size = 100;
  options.pipeline.num_threads = 1;
  core::SignatureServer server(&oracle, options);
  DetectionGateway gateway(GatewayOptions{});
  TrainerLoop trainer(&server, &gateway, TrainerOptions{});
  for (const sim::LabeledPacket& lp : trace.packets) server.Ingest(lp.packet);
  obs::Gauge* archive_bytes =
      gateway.metrics()->GetGauge("trainer.archive_bytes");
  EXPECT_EQ(archive_bytes->Value(), 0);

  constexpr uint64_t kEpochs = 4;
  constexpr int64_t kPerEpochSlack = 64;
  for (uint64_t v = 1; v <= kEpochs; ++v) {
    const int64_t before = archive_bytes->Value();
    ASSERT_TRUE(server.Retrain());
    const int64_t feed_size =
        static_cast<int64_t>(gateway.current_set()->set().Serialize().size());
    ASSERT_GT(gateway.current_set()->num_signatures(), 0u);
    const int64_t growth = archive_bytes->Value() - before;
    EXPECT_GT(growth, 0) << "version " << v;
    EXPECT_LE(growth, feed_size + kPerEpochSlack) << "version " << v;
  }
  for (uint64_t v = 1; v <= kEpochs; ++v) {
    std::shared_ptr<const CompiledSignatureSet> got = trainer.SetForVersion(v);
    ASSERT_NE(got, nullptr) << "version " << v;
    EXPECT_EQ(got->version(), v);
  }
}

// The trainer's epoch archive keeps every version's serialized feed, not its
// compiled matcher: once the gateway moves on and nobody else holds an old
// epoch, it is freed, and SetForVersion rebuilds an identical one on demand.
TEST(TrainerArchiveTest, SetForVersionRebuildsEveryPublishedEpoch) {
  sim::TrafficConfig config;
  config.seed = 33;
  config.scale = 0.03;
  sim::Trace trace = sim::GenerateTrace(config);
  core::PayloadCheck oracle({trace.device.ToTokens()});
  core::SignatureServer::Options options;
  options.retrain_after = 1u << 30;  // retrains only when the test asks
  options.pipeline.sample_size = 40;
  options.pipeline.normal_corpus_size = 100;
  options.pipeline.num_threads = 1;
  core::SignatureServer server(&oracle, options);
  DetectionGateway gateway(GatewayOptions{});
  TrainerLoop trainer(&server, &gateway, TrainerOptions{});
  std::vector<std::string> contents, domains;
  for (const sim::LabeledPacket& lp : trace.packets) {
    server.Ingest(lp.packet);
    contents.push_back(core::PacketContent(lp.packet));
    domains.push_back(net::RegistrableDomain(lp.packet.destination.host));
  }

  // Publish K epochs through the trainer's feed observer. Each Retrain draws
  // a fresh sample, so the epochs differ.
  constexpr uint64_t kEpochs = 5;
  std::vector<EpochImage> published(kEpochs + 1);
  for (uint64_t v = 1; v <= kEpochs; ++v) {
    ASSERT_TRUE(server.Retrain());
    std::shared_ptr<const CompiledSignatureSet> live = gateway.current_set();
    ASSERT_NE(live, nullptr);
    ASSERT_EQ(live->version(), v);
    EXPECT_EQ(trainer.SetForVersion(v), live);  // the live epoch, not a copy
    published[v] = ImageOf(live, contents, domains);
  }
  EXPECT_EQ(trainer.feeds_published(), kEpochs);

  // The gateway serves only the newest epoch; the archive holds no compiled
  // set of its own, so every older one is already gone.
  for (uint64_t v = 1; v < kEpochs; ++v) {
    EXPECT_TRUE(published[v].weak.expired()) << "version " << v;
  }
  ASSERT_FALSE(published[kEpochs].weak.expired());

  for (uint64_t v = 1; v <= kEpochs; ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    std::shared_ptr<const CompiledSignatureSet> got = trainer.SetForVersion(v);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->version(), v);
    EpochImage image = ImageOf(got, contents, domains);
    EXPECT_EQ(image.serialized, published[v].serialized);
    EXPECT_EQ(image.num_states, published[v].num_states);
    EXPECT_EQ(image.table_bytes, published[v].table_bytes);
    EXPECT_EQ(image.hits, published[v].hits);
    // While anyone holds an epoch, every lookup returns that same object.
    EXPECT_EQ(trainer.SetForVersion(v), got);
    if (v == kEpochs) {
      EXPECT_EQ(got, gateway.current_set());
    } else {
      std::weak_ptr<const CompiledSignatureSet> weak = got;
      got.reset();
      EXPECT_TRUE(weak.expired()) << "the archive kept a rebuilt epoch alive";
    }
  }
  EXPECT_EQ(trainer.SetForVersion(0), nullptr);
  EXPECT_EQ(trainer.SetForVersion(kEpochs + 1), nullptr);

  // Concurrent lookups of released epochs race to rebuild them, but while
  // the results are held every caller gets the one object.
  constexpr size_t kReaders = 4;
  std::vector<std::vector<std::shared_ptr<const CompiledSignatureSet>>> got(
      kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (uint64_t v = 1; v <= kEpochs; ++v) {
        got[r].push_back(trainer.SetForVersion(v));
      }
    });
  }
  for (std::thread& t : readers) t.join();
  for (uint64_t v = 1; v <= kEpochs; ++v) {
    ASSERT_NE(got[0][v - 1], nullptr);
    EXPECT_EQ(got[0][v - 1]->set().Serialize(), published[v].serialized);
    for (size_t r = 1; r < kReaders; ++r) {
      EXPECT_EQ(got[r][v - 1], got[0][v - 1]) << "version " << v;
    }
  }
}

// A started trainer with default options publishes the feed core::RunPipeline
// trains on the server's pools, through its own mailbox and thread.
TEST(TrainerLoopTest, DefaultLoopPublishesThroughCorePipeline) {
  Rng rng(9);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id};

  core::SignatureServer::Options options;
  options.retrain_after = 4;
  options.pipeline.sample_size = 6;
  options.pipeline.normal_corpus_size = 8;
  options.pipeline.num_threads = 1;
  core::SignatureServer server(&oracle, options);
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerLoop trainer(&server, &gateway, TrainerOptions{});
  ASSERT_TRUE(trainer.Start().ok());

  Verdict verdict;
  verdict.sensitive = true;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(trainer.Offer(
        leakdet::testing::GeneratePacket(&rng, tokens, 1.0), verdict));
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (trainer.items_processed() < 4) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "trainer never processed 4 items";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trainer.Stop();

  EXPECT_EQ(trainer.feeds_published(), 1u);
  ASSERT_NE(gateway.current_set(), nullptr);
  EXPECT_EQ(gateway.current_set()->version(), 1u);
  auto want = core::RunPipeline(server.suspicious_pool(), server.normal_pool(),
                                options.pipeline);
  ASSERT_TRUE(want.ok()) << want.status().message();
  EXPECT_EQ(gateway.current_set()->set().Serialize(),
            want->signatures.Serialize());
}

// An offer to a full mailbox is shed: it returns false, counts one drop, and
// leaves the queued items as they were (the trainer ingests exactly them).
TEST(TrainerLoopTest, OfferToFullMailboxIsShedAndLeavesMailboxUnchanged) {
  Rng rng(11);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id};

  core::SignatureServer::Options options;
  options.retrain_after = 1u << 30;  // no retrain: only ingestion is checked
  core::SignatureServer server(&oracle, options);
  DetectionGateway gateway(GatewayOptions{});
  TrainerOptions trainer_options;
  trainer_options.queue_capacity = 2;
  TrainerLoop trainer(&server, &gateway, trainer_options);

  Verdict verdict;
  verdict.sensitive = true;
  std::vector<HttpPacket> offered;
  for (int i = 0; i < 3; ++i) {
    offered.push_back(leakdet::testing::GeneratePacket(&rng, tokens, 1.0));
  }
  // Not started: nothing drains the mailbox.
  ASSERT_TRUE(trainer.Offer(offered[0], verdict));
  ASSERT_TRUE(trainer.Offer(offered[1], verdict));
  EXPECT_FALSE(trainer.Offer(offered[2], verdict));
  EXPECT_EQ(trainer.training_drops(), 1u);

  ASSERT_TRUE(trainer.Start().ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (trainer.items_processed() < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "trainer never processed the 2 queued items";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trainer.Stop();
  EXPECT_EQ(trainer.items_processed(), 2u);
  EXPECT_EQ(trainer.training_drops(), 1u);
  EXPECT_EQ(server.normal_pool_size(), 0u);
  EXPECT_EQ(server.suspicious_pool(),
            (std::vector<HttpPacket>{offered[0], offered[1]}));
}

}  // namespace
}  // namespace leakdet::gateway
