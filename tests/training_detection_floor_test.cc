// Detection floor for every training entry point. Each one trains a feed
// from a uniform sample of N suspicious packets (§IV-A, Fig. 3a) on one
// fixed trace, and the feed must catch most of the trace's leaks while
// flagging little clean traffic. A training path that samples the pool any
// other way (one representative per request template, say) leaves siggen no
// repeated ad-module requests to find invariant tokens in, and falls far
// below this floor.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/payload_check.h"
#include "core/pipeline.h"
#include "core/signature_server.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "sim/trafficgen.h"

namespace leakdet {
namespace {

constexpr size_t kSampleSize = 90;
constexpr double kTpFloor = 0.60;
constexpr double kFpCeiling = 0.01;

/// Scale 0.3, seed 42: 6,924 suspicious packets.
const sim::Trace& Trace() {
  static const sim::Trace* trace = [] {
    sim::TrafficConfig config;
    config.seed = 42;
    config.scale = 0.3;
    return new sim::Trace(sim::GenerateTrace(config));
  }();
  return *trace;
}

core::PipelineOptions Pipeline() {
  core::PipelineOptions options;
  options.seed = 42;
  options.sample_size = kSampleSize;
  return options;
}

/// The §V-B rates of `signatures` applied back to the whole trace.
void ExpectAboveFloor(match::SignatureSet signatures) {
  ASSERT_GT(signatures.size(), 0u);
  core::Detector detector(std::move(signatures));
  eval::ConfusionCounts counts =
      eval::EvaluateDetector(detector, Trace(), kSampleSize);
  eval::DetectionRates rates = eval::ComputePaperRates(counts);
  EXPECT_GE(rates.tp, kTpFloor)
      << counts.detected_sensitive << " of " << counts.sensitive_total
      << " leaks caught";
  EXPECT_LE(rates.fp, kFpCeiling)
      << counts.detected_normal << " of " << counts.normal_total
      << " clean packets flagged";
}

/// Server options under which the one retrain fires when the last packet of
/// the trace that `oracle` files as suspicious is ingested.
core::SignatureServer::Options OneRetrainOptions(
    const core::PayloadCheck& oracle) {
  core::SignatureServer::Options options;
  options.retrain_after = 0;
  for (const sim::LabeledPacket& lp : Trace().packets) {
    if (oracle.IsSensitive(lp.packet)) ++options.retrain_after;
  }
  options.pipeline = Pipeline();
  return options;
}

TEST(TrainingDetectionFloorTest, RunPipeline) {
  std::vector<core::HttpPacket> suspicious, normal;
  Trace().SplitByTruth(&suspicious, &normal);
  ASSERT_EQ(suspicious.size(), 6924u);
  auto result = core::RunPipeline(suspicious, normal, Pipeline());
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectAboveFloor(std::move(result->signatures));
}

TEST(TrainingDetectionFloorTest, SignatureServerIngest) {
  core::PayloadCheck oracle({Trace().device.ToTokens()});
  core::SignatureServer server(&oracle, OneRetrainOptions(oracle));
  size_t retrains = 0;
  for (const sim::LabeledPacket& lp : Trace().packets) {
    if (server.Ingest(lp.packet)) ++retrains;
  }
  ASSERT_EQ(retrains, 1u);
  ASSERT_EQ(server.feed_version(), 1u);
  ExpectAboveFloor(server.signatures());
}

// The live loop: every packet goes through the trainer's mailbox, and the
// feed is the one the trainer compiled and published to the gateway.
TEST(TrainingDetectionFloorTest, TrainerLoop) {
  core::PayloadCheck oracle({Trace().device.ToTokens()});
  core::SignatureServer server(&oracle, OneRetrainOptions(oracle));
  gateway::GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  gateway::DetectionGateway gateway(gateway_options);
  gateway::TrainerOptions trainer_options;
  trainer_options.queue_capacity = Trace().packets.size();
  gateway::TrainerLoop trainer(&server, &gateway, trainer_options);
  ASSERT_TRUE(trainer.Start().ok());
  for (const sim::LabeledPacket& lp : Trace().packets) {
    ASSERT_TRUE(trainer.Offer(lp.packet, gateway::Verdict{}));
  }
  trainer.Stop();
  ASSERT_EQ(trainer.feeds_published(), 1u);
  ASSERT_EQ(trainer.training_drops(), 0u);
  std::shared_ptr<const match::CompiledSignatureSet> published =
      gateway.current_set();
  ASSERT_NE(published, nullptr);
  ASSERT_EQ(published->version(), 1u);
  ExpectAboveFloor(published->set());
}

}  // namespace
}  // namespace leakdet
