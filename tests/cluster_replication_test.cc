// Unit tests for the WAL replication protocol and the ClusterNode sync /
// promote lifecycle (ctest label: cluster). The wire format is the store's
// own CRC-framed records, so every damage mode a disk can produce is also
// detected in flight; followers mirror the leader's log byte-for-byte and
// can be promoted from local durable state alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "cluster/replication.h"
#include "core/payload_check.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "store/store_manager.h"
#include "store/wal.h"
#include "testing/chaos_util.h"
#include "testing/packet_gen.h"
#include "testing/scripted_conn.h"
#include "testing/scripted_file.h"
#include "util/rng.h"

namespace leakdet {
namespace {

store::FeedRecord MakeRecord(Rng* rng, uint64_t feed_version) {
  store::FeedRecord record;
  record.feed_version = feed_version;
  record.sensitive = rng->Bernoulli(0.5);
  record.shard = static_cast<uint32_t>(rng->UniformInt(4));
  record.num_matches = static_cast<uint32_t>(rng->UniformInt(3));
  record.packet = testing::GeneratePacket(rng, {}, 0.0);
  return record;
}

class WalBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opened = store::StoreManager::Open(&dir_, "leader", {});
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    store_ = std::move(*opened);
    Rng rng(7);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store_->Append(MakeRecord(&rng, 1)).ok());
    }
    ASSERT_TRUE(store_->Sync().ok());
  }

  testing::ScriptedDir dir_{1};
  std::unique_ptr<store::StoreManager> store_;
};

TEST_F(WalBatchTest, RoundTripsTheWholeLog) {
  uint64_t last = 0;
  auto payload = cluster::BuildWalBatchPayload(&dir_, "leader", 0,
                                               /*max_records=*/0, &last);
  ASSERT_TRUE(payload.ok()) << payload.status().message();
  EXPECT_EQ(last, 10u);
  auto batch = cluster::ParseWalBatch(*payload, 0);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  EXPECT_EQ(batch->records.size(), 10u);
  EXPECT_EQ(batch->last_sequence, 10u);
  for (size_t i = 0; i < batch->records.size(); ++i) {
    EXPECT_EQ(batch->records[i].sequence, i + 1);
  }
}

TEST_F(WalBatchTest, HonorsBatchCapAndResumesAfter) {
  uint64_t last = 0;
  auto head = cluster::BuildWalBatchPayload(&dir_, "leader", 0,
                                            /*max_records=*/3, &last);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(last, 3u);
  auto head_batch = cluster::ParseWalBatch(*head, 0);
  ASSERT_TRUE(head_batch.ok());
  EXPECT_EQ(head_batch->records.size(), 3u);

  auto tail = cluster::BuildWalBatchPayload(&dir_, "leader", last,
                                            /*max_records=*/0, &last);
  ASSERT_TRUE(tail.ok());
  auto tail_batch = cluster::ParseWalBatch(*tail, 3);
  ASSERT_TRUE(tail_batch.ok());
  EXPECT_EQ(tail_batch->records.size(), 7u);
  EXPECT_EQ(tail_batch->last_sequence, 10u);
}

TEST_F(WalBatchTest, EmptySuffixYieldsEmptyBatch) {
  auto payload = cluster::BuildWalBatchPayload(&dir_, "leader", 10);
  ASSERT_TRUE(payload.ok());
  EXPECT_TRUE(payload->empty());
  auto batch = cluster::ParseWalBatch(*payload, 10);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->records.empty());
  EXPECT_EQ(batch->last_sequence, 10u);
}

TEST_F(WalBatchTest, DetectsEveryWireDamageMode) {
  auto payload = cluster::BuildWalBatchPayload(&dir_, "leader", 0);
  ASSERT_TRUE(payload.ok());

  // Single flipped bit anywhere in a frame -> Corruption.
  std::string flipped = *payload;
  flipped[flipped.size() / 2] ^= 0x20;
  auto flipped_batch = cluster::ParseWalBatch(flipped, 0);
  ASSERT_FALSE(flipped_batch.ok());
  EXPECT_EQ(flipped_batch.status().code(), StatusCode::kCorruption);

  // Truncated mid-frame (a torn replication write) -> Corruption, not a
  // silent short batch.
  std::string torn = payload->substr(0, payload->size() - 7);
  auto torn_batch = cluster::ParseWalBatch(torn, 0);
  ASSERT_FALSE(torn_batch.ok());
  EXPECT_EQ(torn_batch.status().code(), StatusCode::kCorruption);

  // A gap in the sequence numbering (valid frames, wrong suffix) ->
  // Corruption: the batch does not continue the follower's log.
  auto batch = cluster::ParseWalBatch(*payload, 1);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCorruption);
}

TEST(ClusterReplicationTest, AppendReplicatedRejectsGapsAndRewinds) {
  testing::ScriptedDir dir(3);
  auto opened = store::StoreManager::Open(&dir, "follower", {});
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<store::StoreManager> follower = std::move(*opened);
  Rng rng(11);

  store::FeedRecord first = MakeRecord(&rng, 1);
  first.sequence = 1;
  ASSERT_TRUE(follower->AppendReplicated(std::move(first)).ok());

  store::FeedRecord gap = MakeRecord(&rng, 1);
  gap.sequence = 3;  // skips 2
  auto gap_result = follower->AppendReplicated(std::move(gap));
  ASSERT_FALSE(gap_result.ok());
  EXPECT_EQ(gap_result.status().code(), StatusCode::kInvalidArgument);

  store::FeedRecord rewind = MakeRecord(&rng, 1);
  rewind.sequence = 1;  // duplicate of the applied record
  auto rewind_result = follower->AppendReplicated(std::move(rewind));
  ASSERT_FALSE(rewind_result.ok());
  EXPECT_EQ(rewind_result.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(follower->last_sequence(), 1u);
}

// Full node lifecycle: a leader trains and publishes; a follower mirrors
// the WAL and adopts the epoch over a scripted connection; promoting the
// follower reproduces the leader's exact feed from local state alone.
TEST(ClusterReplicationTest, FollowerSyncsAndPromotesToIdenticalFeed) {
  std::vector<core::DeviceTokens> devices(1);
  Rng rng(31);
  devices[0].android_id = rng.RandomHex(16);
  devices[0].imei = rng.RandomDigits(15);
  core::PayloadCheck oracle(devices);
  std::vector<std::string> tokens = {devices[0].android_id, devices[0].imei};

  core::SignatureServer::Options server_options;
  server_options.retrain_after = 8;
  server_options.pipeline.sample_size = 16;
  server_options.pipeline.normal_corpus_size = 64;
  server_options.pipeline.num_threads = 1;

  auto make_node = [&](testing::ScriptedDir* dir, const std::string& id) {
    cluster::NodeOptions options;
    options.node_id = id;
    options.dir = dir;
    options.oracle = &oracle;
    options.server = server_options;
    options.gateway.num_shards = 1;
    options.gateway.queue_capacity = 64;
    options.train_from_gateway = false;
    return cluster::ClusterNode::Start(std::move(options));
  };

  testing::ScriptedDir leader_dir(101);
  testing::ScriptedDir follower_dir(102);
  auto leader = make_node(&leader_dir, "leader");
  ASSERT_TRUE(leader.ok()) << leader.status().message();
  auto follower = make_node(&follower_dir, "follower");
  ASSERT_TRUE(follower.ok()) << follower.status().message();

  ASSERT_TRUE((*leader)->Promote().ok());
  EXPECT_EQ((*leader)->role(), cluster::ClusterNode::Role::kLeader);

  auto listener = std::make_unique<testing::ScriptedListener>();
  testing::ScriptedListener* listener_ptr = listener.get();
  ASSERT_TRUE((*leader)->ServeReplication(std::move(listener)).ok());

  gateway::TrainerLoop* trainer = (*leader)->trainer();
  ASSERT_NE(trainer, nullptr);
  uint64_t offered = 0;
  for (size_t i = 0; i < server_options.retrain_after; ++i) {
    core::HttpPacket packet = testing::GeneratePacket(&rng, tokens, 1.0);
    gateway::Verdict verdict;
    verdict.sensitive = true;
    if (trainer->Offer(packet, verdict)) ++offered;
  }
  ASSERT_TRUE(testing::WaitUntil([&] {
    return trainer->items_processed() >= offered &&
           (*leader)->epoch_version() >= 1;
  }));
  ASSERT_TRUE((*leader)->store().Sync().ok());
  const uint64_t leader_epoch = (*leader)->epoch_version();
  const uint64_t leader_wal = (*leader)->wal_last_sequence();
  ASSERT_GT(leader_wal, 0u);

  auto connect = [&]() -> StatusOr<std::unique_ptr<net::Stream>> {
    std::unique_ptr<testing::ScriptedStream> stream = listener_ptr->Connect();
    (void)stream->SetReadTimeout(5000);
    return StatusOr<std::unique_ptr<net::Stream>>(std::move(stream));
  };
  auto sync = (*follower)->SyncWithLeader(connect);
  ASSERT_TRUE(sync.ok()) << sync.status().message();
  EXPECT_EQ(sync->leader_feed_version, leader_epoch);
  EXPECT_EQ(sync->records_applied, leader_wal);
  EXPECT_TRUE(sync->epoch_applied);
  EXPECT_EQ((*follower)->epoch_version(), leader_epoch);
  EXPECT_EQ((*follower)->wal_last_sequence(), leader_wal);

  // A second round is a no-op: nothing new to apply, no rollback.
  auto again = (*follower)->SyncWithLeader(connect);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records_applied, 0u);
  EXPECT_FALSE(again->epoch_applied);

  // Promotion from local durable state reproduces the leader's feed
  // byte-for-byte — the failover guarantee, minus the cluster around it.
  const std::string leader_feed =
      (*leader)->gateway().current_set()->set().Serialize();
  (*leader)->StopServing();
  ASSERT_TRUE((*follower)->Promote().ok());
  auto promoted_set = (*follower)->gateway().current_set();
  ASSERT_NE(promoted_set, nullptr);
  EXPECT_EQ(promoted_set->version(), leader_epoch);
  EXPECT_EQ(promoted_set->set().Serialize(), leader_feed);
  (*follower)->StopServing();
}

// Failover past the leader's newest checkpoint: the leader logs each epoch
// as a publish record, the follower mirrors those records, a restart serves
// the newest of them, and promotion installs the leader's last epoch from
// them instead of retraining.
TEST(ClusterReplicationTest, PromotionInstallsEpochsLoggedPastTheCheckpoint) {
  std::vector<core::DeviceTokens> devices(1);
  Rng rng(37);
  devices[0].android_id = rng.RandomHex(16);
  devices[0].imei = rng.RandomDigits(15);
  core::PayloadCheck oracle(devices);
  std::vector<std::string> tokens = {devices[0].android_id, devices[0].imei};

  core::SignatureServer::Options server_options;
  server_options.retrain_after = 8;
  server_options.pipeline.sample_size = 16;
  server_options.pipeline.normal_corpus_size = 64;
  server_options.pipeline.num_threads = 1;

  // The leader's lineage starts with a checkpoint over a large normal pool,
  // so the few epochs below stay far from the next checkpoint.
  testing::ScriptedDir leader_dir(103);
  {
    auto store = store::StoreManager::Open(&leader_dir, "node", {});
    ASSERT_TRUE(store.ok()) << store.status().message();
    core::SignatureServer server(&oracle, server_options);
    ASSERT_TRUE((*store)->Recover(&server).ok());
    for (int i = 0; i < 400; ++i) {
      store::FeedRecord record;
      record.packet = testing::GeneratePacket(&rng, tokens, 0.0);
      server.Ingest(record.packet);
      ASSERT_TRUE((*store)->Append(std::move(record)).ok());
    }
    ASSERT_EQ(server.feed_version(), 0u);
    ASSERT_TRUE((*store)->WriteSnapshot(server).ok());
  }

  auto make_node = [&](testing::ScriptedDir* dir, const std::string& id) {
    cluster::NodeOptions options;
    options.node_id = id;
    options.dir = dir;
    options.oracle = &oracle;
    options.server = server_options;
    options.gateway.num_shards = 1;
    options.gateway.queue_capacity = 64;
    options.train_from_gateway = false;
    return cluster::ClusterNode::Start(std::move(options));
  };
  testing::ScriptedDir follower_dir(104);
  auto leader = make_node(&leader_dir, "leader");
  ASSERT_TRUE(leader.ok()) << leader.status().message();
  auto follower = make_node(&follower_dir, "follower");
  ASSERT_TRUE(follower.ok()) << follower.status().message();
  ASSERT_TRUE((*leader)->Promote().ok());
  auto listener = std::make_unique<testing::ScriptedListener>();
  testing::ScriptedListener* listener_ptr = listener.get();
  ASSERT_TRUE((*leader)->ServeReplication(std::move(listener)).ok());
  auto connect = [&]() -> StatusOr<std::unique_ptr<net::Stream>> {
    std::unique_ptr<testing::ScriptedStream> stream = listener_ptr->Connect();
    (void)stream->SetReadTimeout(5000);
    return StatusOr<std::unique_ptr<net::Stream>>(std::move(stream));
  };
  // The follower mirrors the primed log before the leader's first epoch
  // compacts it away.
  auto primed = (*follower)->SyncWithLeader(connect);
  ASSERT_TRUE(primed.ok()) << primed.status().message();
  ASSERT_EQ(primed->records_applied, 400u);

  constexpr uint64_t kEpochs = 4;
  gateway::TrainerLoop* trainer = (*leader)->trainer();
  ASSERT_NE(trainer, nullptr);
  uint64_t offered = 0;
  for (size_t i = 0; i < kEpochs * server_options.retrain_after; ++i) {
    gateway::Verdict verdict;
    verdict.sensitive = true;
    if (trainer->Offer(testing::GeneratePacket(&rng, tokens, 1.0), verdict)) {
      ++offered;
    }
  }
  ASSERT_EQ(offered, kEpochs * server_options.retrain_after);
  ASSERT_TRUE(testing::WaitUntil([&] {
    return trainer->items_processed() >= offered &&
           (*leader)->epoch_version() >= kEpochs;
  }));
  ASSERT_TRUE((*leader)->store().Sync().ok());
  obs::Registry* leader_metrics = (*leader)->registry();
  EXPECT_EQ(leader_metrics->GetCounter("store.publish_records")->Value(),
            kEpochs);
  EXPECT_EQ(leader_metrics->GetCounter("store.checkpoints_written")->Value(),
            0u);

  auto sync = (*follower)->SyncWithLeader(connect);
  ASSERT_TRUE(sync.ok()) << sync.status().message();
  EXPECT_EQ(sync->records_applied, (*leader)->wal_last_sequence() - 400);
  EXPECT_TRUE(sync->snapshot_installed);
  // Every epoch's publish record arrived (plus the one the priming
  // checkpoint logged alongside itself).
  EXPECT_EQ((*follower)->registry()
                ->GetCounter("store.publish_records")
                ->Value(),
            kEpochs + 1);

  const std::string leader_feed =
      (*leader)->gateway().current_set()->set().Serialize();
  (*leader)->StopServing();

  // A restarted follower serves the newest epoch its log holds before it
  // talks to anyone, though its checkpoint predates every epoch.
  (*follower)->StopServing();
  follower = make_node(&follower_dir, "follower");
  ASSERT_TRUE(follower.ok()) << follower.status().message();
  EXPECT_EQ((*follower)->epoch_version(), kEpochs);

  ASSERT_TRUE((*follower)->Promote().ok());
  const store::StoreManager::RecoveryStats& recovery = (*follower)->recovery();
  EXPECT_TRUE(recovery.snapshot_loaded);
  EXPECT_GE(recovery.epochs_installed, 3u);
  EXPECT_EQ(recovery.records_replayed, 0u);
  EXPECT_EQ(recovery.epochs_retrained, 0u);
  auto promoted_set = (*follower)->gateway().current_set();
  ASSERT_NE(promoted_set, nullptr);
  EXPECT_EQ(promoted_set->version(), kEpochs);
  EXPECT_EQ(promoted_set->set().Serialize(), leader_feed);
  (*follower)->StopServing();
}

}  // namespace
}  // namespace leakdet
