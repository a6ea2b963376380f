#include "store/store_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/payload_check.h"
#include "obs/metrics.h"
#include "testing/packet_gen.h"
#include "testing/scripted_file.h"
#include "util/rng.h"

namespace leakdet::store {
namespace {

using leakdet::testing::GeneratePacket;
using leakdet::testing::ScriptedDir;

/// Small-but-real training world: a PayloadCheck oracle over one known
/// device, traffic from the shared generator, and a SignatureServer tuned
/// tiny so retrains happen within a few dozen packets.
struct World {
  World() : rng(4242) {
    core::DeviceTokens device;
    device.android_id = rng.RandomHex(16);
    device.imei = rng.RandomDigits(15);
    device.imsi = rng.RandomDigits(15);
    device.sim_serial = rng.RandomDigits(19);
    device.carrier = "NTT DOCOMO";
    tokens = {device.android_id, device.imei};
    oracle = std::make_unique<core::PayloadCheck>(
        std::vector<core::DeviceTokens>{device});
  }

  core::SignatureServer::Options ServerOptions() const {
    core::SignatureServer::Options options;
    options.retrain_after = 10;
    options.pipeline.sample_size = 10;
    options.pipeline.normal_corpus_size = 20;
    options.pipeline.num_threads = 1;
    return options;
  }

  core::HttpPacket Packet(double p_sensitive) {
    return GeneratePacket(&rng, tokens, p_sensitive);
  }

  Rng rng;
  std::vector<std::string> tokens;
  std::unique_ptr<core::PayloadCheck> oracle;
};

/// Drives the trainer's persistence protocol by hand: append, ingest,
/// snapshot+compact on publish.
void FeedOne(StoreManager* store, core::SignatureServer* server,
             const core::HttpPacket& packet) {
  FeedRecord record;
  record.feed_version = server->feed_version();
  record.packet = packet;
  ASSERT_TRUE(store->Append(std::move(record)).ok());
  uint64_t before = server->feed_version();
  server->Ingest(packet);
  if (server->feed_version() != before) {
    ASSERT_TRUE(store->WriteSnapshot(*server).ok());
    ASSERT_TRUE(store->Compact().ok());
  }
}

TEST(StoreManagerTest, FreshDirectoryRecoversToEmpty) {
  ScriptedDir dir;
  auto store = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status().message();
  World world;
  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  auto stats = (*store)->Recover(&server);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->snapshot_loaded);
  EXPECT_EQ(stats->replay.applied, 0u);
  EXPECT_EQ(server.feed_version(), 0u);
}

TEST(StoreManagerTest, RecoveryReproducesTheExactServerState) {
  ScriptedDir dir;
  World world;

  // Oracle run: train through the store, remember the final state.
  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  uint64_t published = 0;
  server.SetFeedObserver(
      [&](uint64_t version, const match::SignatureSet&) { published = version; });
  auto store = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 80; ++i) {
    FeedOne(store->get(), &server, world.Packet(0.6));
  }
  ASSERT_GT(published, 0u) << "world too small: no epoch ever published";
  ASSERT_TRUE((*store)->Sync().ok());
  const uint64_t final_sequence = (*store)->last_sequence();

  // Recover into a fresh server from the same directory.
  core::SignatureServer recovered(world.oracle.get(), world.ServerOptions());
  std::vector<uint64_t> republished;
  recovered.SetFeedObserver([&](uint64_t version, const match::SignatureSet&) {
    republished.push_back(version);
  });
  auto store2 = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store2.ok());
  auto stats = (*store2)->Recover(&recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(stats->snapshot_loaded);
  EXPECT_EQ((*store2)->last_sequence(), final_sequence);

  // Serve-before-replay: the first republished epoch is the snapshot's, and
  // versions never regress during replay.
  ASSERT_FALSE(republished.empty());
  EXPECT_EQ(republished.front(), stats->snapshot_version);
  for (size_t i = 1; i < republished.size(); ++i) {
    EXPECT_GT(republished[i], republished[i - 1]);
  }

  // Bit-identical state: version, published set, pools, and counters all
  // match the no-crash server.
  EXPECT_EQ(recovered.feed_version(), server.feed_version());
  EXPECT_EQ(recovered.Feed(), server.Feed());
  EXPECT_EQ(recovered.new_suspicious(), server.new_suspicious());
  ASSERT_EQ(recovered.suspicious_pool().size(), server.suspicious_pool().size());
  ASSERT_EQ(recovered.normal_pool().size(), server.normal_pool().size());
  for (size_t i = 0; i < server.suspicious_pool().size(); ++i) {
    EXPECT_EQ(recovered.suspicious_pool()[i], server.suspicious_pool()[i]);
  }
  for (size_t i = 0; i < server.normal_pool().size(); ++i) {
    EXPECT_EQ(recovered.normal_pool()[i], server.normal_pool()[i]);
  }
}

TEST(StoreManagerTest, CompactRetiresFoldedSegmentsAndOldSnapshots) {
  ScriptedDir dir;
  World world;
  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  StoreOptions options;
  options.wal.segment_bytes = 1024;  // tiny: rotate often
  options.keep_snapshots = 1;
  auto store = StoreManager::Open(&dir, "data", options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 80; ++i) {
    FeedOne(store->get(), &server, world.Packet(0.6));
  }
  ASSERT_GT(server.feed_version(), 1u) << "need at least two epochs";

  auto names = dir.List("data");
  ASSERT_TRUE(names.ok());
  size_t segments = 0, snapshots = 0;
  uint64_t id = 0, version = 0, sequence = 0;
  for (const std::string& name : *names) {
    if (ParseSegmentFileName(name, &id)) ++segments;
    if (ParseSnapshotFileName(name, &version, &sequence)) ++snapshots;
  }
  EXPECT_EQ(snapshots, 1u);
  // Everything up to the newest snapshot is folded away: at most the active
  // segment plus the ones written since the last publish remain.
  EXPECT_LT(segments, (*store)->writer().segments_created());

  // The compacted log still recovers to the exact state.
  core::SignatureServer recovered(world.oracle.get(), world.ServerOptions());
  auto store2 = StoreManager::Open(&dir, "data", options);
  ASSERT_TRUE(store2.ok());
  ASSERT_TRUE((*store2)->Recover(&recovered).ok());
  EXPECT_EQ(recovered.feed_version(), server.feed_version());
  EXPECT_EQ(recovered.Feed(), server.Feed());
}

// Between checkpoints an epoch costs one publish record: the full snapshot is
// rewritten only once the log has grown as large as the newest checkpoint,
// and recovery installs the logged epochs instead of retraining them.
TEST(StoreManagerTest, CheckpointsOnlyWhenTheLogOutgrowsTheLast) {
  ScriptedDir dir;
  World world;
  obs::Registry registry;
  StoreOptions options;
  options.registry = &registry;
  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  auto store = StoreManager::Open(&dir, "data", options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Recover(&server).ok());
  obs::Counter* checkpoints = registry.GetCounter("store.checkpoints_written");
  obs::Counter* publishes = registry.GetCounter("store.publish_records");
  uint64_t epochs_since_checkpoint = 0;
  // At least 200 packets, ending with an epoch past the newest checkpoint.
  for (int i = 0; i < 2000 && (i < 200 || epochs_since_checkpoint == 0);
       ++i) {
    const uint64_t checkpoints_before = checkpoints->Value();
    const uint64_t publishes_before = publishes->Value();
    FeedOne(store->get(), &server, world.Packet(0.6));
    if (checkpoints->Value() != checkpoints_before) {
      epochs_since_checkpoint = 0;
      // The rule's own bookkeeping restarts with every checkpoint.
      EXPECT_EQ(
          registry.GetGauge("store.wal_bytes_since_checkpoint")->Value(), 0);
    } else if (publishes->Value() != publishes_before) {
      ++epochs_since_checkpoint;
    }
  }
  ASSERT_TRUE((*store)->Sync().ok());
  const uint64_t epochs = server.feed_version();
  ASSERT_GT(epochs, 5u) << "world too small";
  // Every epoch logged a publish record; checkpoints thin out as the pools
  // (and so the checkpoints) grow.
  EXPECT_EQ(publishes->Value(), epochs);
  EXPECT_GE(checkpoints->Value(), 1u);
  EXPECT_LT(checkpoints->Value(), epochs / 2);
  ASSERT_GT(epochs_since_checkpoint, 0u) << "need epochs past the checkpoint";

  core::SignatureServer recovered(world.oracle.get(), world.ServerOptions());
  uint64_t observed = 0;
  recovered.SetFeedObserver(
      [&](uint64_t, const match::SignatureSet&) { ++observed; });
  auto store2 = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store2.ok());
  auto stats = (*store2)->Recover(&recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->epochs_installed, epochs_since_checkpoint);
  EXPECT_EQ(stats->epochs_retrained, 0u);
  // The checkpoint's epoch, then the newest logged one: nothing in between.
  EXPECT_EQ(observed, 2u);
  EXPECT_EQ(recovered.feed_version(), server.feed_version());
  EXPECT_EQ(recovered.Feed(), server.Feed());
  EXPECT_EQ(recovered.new_suspicious(), server.new_suspicious());
  EXPECT_TRUE(recovered.suspicious_pool() == server.suspicious_pool());
  EXPECT_TRUE(recovered.normal_pool() == server.normal_pool());
}

// The CLI's PersistFederatedFeed flow: recover a lineage, Restore() a new
// epoch with empty pools, persist it. The log does not describe that state,
// so it must be checkpointed: a publish record alone would recover the old
// pools under the new feed.
TEST(StoreManagerTest, OutOfBandRestoreIsCheckpointed) {
  ScriptedDir dir;
  World world;
  {
    core::SignatureServer server(world.oracle.get(), world.ServerOptions());
    auto store = StoreManager::Open(&dir, "data", StoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Recover(&server).ok());
    for (int i = 0; i < 80; ++i) {
      FeedOne(store->get(), &server, world.Packet(0.6));
    }
    ASSERT_GT(server.feed_version(), 0u);
  }

  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  auto store = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Recover(&server).ok());
  ASSERT_GT(server.suspicious_pool_size(), 0u);
  core::SignatureServer::State state;
  state.feed_version = server.feed_version() + 1;
  server.Restore(std::move(state));
  ASSERT_TRUE((*store)->WriteSnapshot(server).ok());
  store->reset();

  core::SignatureServer recovered(world.oracle.get(), world.ServerOptions());
  auto store2 = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store2.ok());
  auto stats = (*store2)->Recover(&recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->snapshot_version, server.feed_version());
  EXPECT_EQ(recovered.feed_version(), server.feed_version());
  EXPECT_EQ(recovered.Feed(), server.Feed());
  EXPECT_EQ(recovered.new_suspicious(), 0u);
  EXPECT_TRUE(recovered.suspicious_pool().empty());
  EXPECT_TRUE(recovered.normal_pool().empty());
}

// Compaction lists the directory only after a new checkpoint.
TEST(StoreManagerTest, CompactRunsOnlyAfterACheckpoint) {
  ScriptedDir dir;
  World world;
  obs::Registry registry;
  StoreOptions options;
  options.registry = &registry;
  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  auto store = StoreManager::Open(&dir, "data", options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Recover(&server).ok());
  while (server.feed_version() == 0) {
    FeedOne(store->get(), &server, world.Packet(0.6));
  }
  obs::Counter* compactions = registry.GetCounter("store.compactions");
  EXPECT_EQ(compactions->Value(), 1u);  // after the first checkpoint
  // Nothing new to fold: no directory pass.
  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ(compactions->Value(), 1u);

  // A new checkpoint (forced by an out-of-band Restore) makes it due again.
  core::SignatureServer::State state;
  server.Restore(std::move(state));
  ASSERT_TRUE((*store)->WriteSnapshot(server).ok());
  EXPECT_EQ(registry.GetCounter("store.checkpoints_written")->Value(), 2u);
  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ(compactions->Value(), 2u);
}

// The regression: a maintenance compaction right after a clean stop folds
// every segment into the newest checkpoint, leaving only the empty segment
// that open created. The next open found no records and restarted the
// sequence at 1, so recovery (which replays only past the checkpoint)
// silently dropped everything logged afterwards.
TEST(StoreManagerTest, SequenceResumesPastACheckpointThatFoldedTheWholeLog) {
  ScriptedDir dir;
  World world;
  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  {
    auto store = StoreManager::Open(&dir, "data", StoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Recover(&server).ok());
    // The first epoch checkpoints at the log's last record.
    while (server.feed_version() == 0) {
      FeedOne(store->get(), &server, world.Packet(0.6));
    }
  }
  const uint64_t covered = [&] {
    auto store = StoreManager::Open(&dir, "data", StoreOptions());
    EXPECT_TRUE(store.ok());
    auto compacted = (*store)->Compact();
    EXPECT_TRUE(compacted.ok());
    EXPECT_GT(compacted->segments_removed, 0u);
    return (*store)->last_sequence();
  }();
  ASSERT_GT(covered, 0u);

  auto store = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->last_sequence(), covered);
  core::SignatureServer recovered(world.oracle.get(), world.ServerOptions());
  ASSERT_TRUE((*store)->Recover(&recovered).ok());
  const core::HttpPacket packet = world.Packet(0.0);
  FeedOne(store->get(), &recovered, packet);
  ASSERT_TRUE((*store)->Sync().ok());
  store->reset();

  core::SignatureServer again(world.oracle.get(), world.ServerOptions());
  auto reopened = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(reopened.ok());
  auto stats = (*reopened)->Recover(&again);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->records_replayed, 1u);
  EXPECT_TRUE(again.normal_pool() == recovered.normal_pool());
}

TEST(StoreManagerTest, GapBetweenSnapshotAndLogIsCorruption) {
  ScriptedDir dir;
  World world;
  core::SignatureServer server(world.oracle.get(), world.ServerOptions());
  StoreOptions options;
  options.wal.segment_bytes = 1024;
  auto store = StoreManager::Open(&dir, "data", options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 40; ++i) {
    FeedOne(store->get(), &server, world.Packet(0.6));
  }
  ASSERT_GT(server.feed_version(), 0u);
  ASSERT_TRUE((*store)->Sync().ok());

  // Delete the segment holding the records right after the snapshot: the
  // replay would have to skip sequences, which recovery must refuse.
  auto names = dir.List("data");
  ASSERT_TRUE(names.ok());
  std::vector<uint64_t> ids;
  uint64_t id = 0;
  for (const std::string& name : *names) {
    if (ParseSegmentFileName(name, &id)) ids.push_back(id);
  }
  ASSERT_GE(ids.size(), 2u) << "need a non-active segment to delete";
  ASSERT_TRUE(dir.Remove("data/" + SegmentFileName(ids.front())).ok());

  core::SignatureServer recovered(world.oracle.get(), world.ServerOptions());
  auto store2 = StoreManager::Open(&dir, "data", options);
  ASSERT_TRUE(store2.ok());
  auto stats = (*store2)->Recover(&recovered);
  // Either the scan already failed (sequence gap mid-log) or the
  // snapshot-to-log handoff check caught it.
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
}

TEST(StoreManagerTest, DescribeBuildParamsNamesTheKnobs) {
  World world;
  std::string params = DescribeBuildParams(world.ServerOptions());
  EXPECT_NE(params.find("sample_size=10"), std::string::npos);
  EXPECT_NE(params.find("compressor=lzw"), std::string::npos);
  EXPECT_NE(params.find("retrain_after=10"), std::string::npos);
}

}  // namespace
}  // namespace leakdet::store
