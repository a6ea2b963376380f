// Crash-recovery differential test: a store-backed training run is crashed
// at scripted points under a seeded fault schedule (short writes, fsync
// failures, torn tails, bit flips in the unsynced region), recovered, and
// after every crash the recovered SignatureServer must be *bit-identical*
// to a no-crash oracle fed exactly the records the log retained — and the
// log must never have lost an acknowledged-durable record.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/payload_check.h"
#include "core/signature_server.h"
#include "obs/metrics.h"
#include "store/snapshot.h"
#include "store/store_manager.h"
#include "testing/packet_gen.h"
#include "testing/scripted_file.h"
#include "util/rng.h"

namespace leakdet::store {
namespace {

using leakdet::testing::GeneratePacket;
using leakdet::testing::ScriptedDir;
using leakdet::testing::StoreFaultProfile;

core::SignatureServer::Options SmallServerOptions() {
  core::SignatureServer::Options options;
  options.retrain_after = 10;
  options.pipeline.sample_size = 10;
  options.pipeline.normal_corpus_size = 20;
  options.pipeline.num_threads = 1;
  return options;
}

struct World {
  explicit World(uint64_t seed) : rng(seed) {
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

  Rng rng;
  std::vector<std::string> tokens;
  std::unique_ptr<core::PayloadCheck> oracle;
};

/// The canonical bit-exact fingerprint of a server's training state — the
/// snapshot serialization itself, so "recovered == oracle" is one string
/// comparison over everything that matters.
std::string StateString(const core::SignatureServer& server) {
  SnapshotContents snapshot;
  snapshot.feed_version = server.feed_version();
  snapshot.new_suspicious = server.new_suspicious();
  snapshot.signatures = server.Feed();
  snapshot.suspicious = server.suspicious_pool();
  snapshot.normal = server.normal_pool();
  return SerializeSnapshot(snapshot);
}

/// The no-crash oracle: a fresh server fed packets[0..count) directly.
std::string OracleStateAt(World* world, const std::vector<core::HttpPacket>& packets,
                          size_t count) {
  core::SignatureServer server(world->oracle.get(), SmallServerOptions());
  for (size_t i = 0; i < count; ++i) server.Ingest(packets[i]);
  return StateString(server);
}

struct RunResult {
  size_t crashes_executed = 0;
  uint64_t final_version = 0;
};

/// Runs one full fault schedule: feed all packets through a store-backed
/// server, crashing at each scheduled packet index, recovering, and
/// differentially checking after every crash.
RunResult RunSchedule(uint64_t seed, const StoreFaultProfile& profile,
                      const std::vector<size_t>& crash_points) {
  World world(seed);
  // The packet tape is fixed up front: record sequence k always carries
  // packets[k-1], which is what makes the oracle prefix well-defined.
  std::vector<core::HttpPacket> packets;
  Rng traffic_rng(seed * 977 + 1);
  for (int i = 0; i < 120; ++i) {
    packets.push_back(GeneratePacket(&traffic_rng, world.tokens, 0.6));
  }

  ScriptedDir dir(seed, profile);
  RunResult result;
  size_t next_crash = 0;
  size_t cursor = 0;  // next packet index to feed

  while (true) {
    // (Re)open. Fault injection can fail the open itself (e.g. a scripted
    // directory-sync failure while creating the first segment) — retry, as
    // an operator restarting the process would.
    StoreOptions options;
    options.wal.sync_policy = SyncPolicy::kEveryN;
    options.wal.sync_every_n = 3;
    options.wal.segment_bytes = 2048;
    std::unique_ptr<StoreManager> store;
    for (int attempt = 0; attempt < 10 && store == nullptr; ++attempt) {
      auto opened = StoreManager::Open(&dir, "data", options);
      if (opened.ok()) store = std::move(*opened);
    }
    EXPECT_NE(store, nullptr) << "store would not open after 10 attempts";
    if (store == nullptr) return result;

    core::SignatureServer server(world.oracle.get(), SmallServerOptions());
    uint64_t last_published = 0;
    server.SetFeedObserver(
        [&](uint64_t version, const match::SignatureSet&) {
          last_published = version;
        });
    auto recovery = store->Recover(&server);
    EXPECT_TRUE(recovery.ok()) << recovery.status().message();
    if (!recovery.ok()) return result;

    // The log decides where the tape resumes: exactly the records it
    // retained are the packets the recovered server has seen.
    const uint64_t recovered = store->last_sequence();
    EXPECT_LE(recovered, packets.size());
    cursor = static_cast<size_t>(recovered);

    // Differential: recovered state == oracle fed the same prefix.
    EXPECT_EQ(StateString(server), OracleStateAt(&world, packets, cursor))
        << "recovered state diverged at sequence " << recovered;
    // Serve-before-replay: whatever epoch the server now holds has been
    // republished through the observer.
    if (server.feed_version() != 0) {
      EXPECT_EQ(last_published, server.feed_version());
    }

    // Feed until the next crash point (or the end of the tape).
    size_t stop = next_crash < crash_points.size()
                      ? crash_points[next_crash]
                      : packets.size();
    if (stop < cursor) stop = cursor;
    uint64_t durable_before_crash = 0;
    bool io_broke = false;
    while (cursor < stop) {
      FeedRecord record;
      record.feed_version = server.feed_version();
      record.sensitive = false;
      record.packet = packets[cursor];
      if (!store->Append(std::move(record)).ok()) {
        // The writer could not log the packet; the packet was NOT ingested,
        // so sequence<->packet correspondence is intact. Treat it as a
        // mid-run I/O crash.
        io_broke = true;
        break;
      }
      uint64_t before = server.feed_version();
      server.Ingest(packets[cursor]);
      ++cursor;
      if (server.feed_version() != before) {
        // Snapshot and compaction failures are survivable (the WAL still
        // has everything); recovery just replays more.
        if (store->WriteSnapshot(server).ok()) {
          auto compacted = store->Compact();
          EXPECT_TRUE(compacted.ok() ||
                      compacted.status().code() != StatusCode::kCorruption);
        }
      }
    }
    durable_before_crash = store->durable_sequence();

    if (cursor >= packets.size() && !io_broke) {
      // Tape done: final no-crash-oracle comparison.
      store->Sync();
      store.reset();
      EXPECT_EQ(StateString(server),
                OracleStateAt(&world, packets, packets.size()));
      result.final_version = server.feed_version();
      return result;
    }

    // Crash. Everything unsynced may tear or flip; everything acknowledged
    // durable must survive — checked on the next loop iteration.
    store.reset();
    dir.Crash();
    ++result.crashes_executed;
    if (!io_broke) ++next_crash;

    // No acknowledged record may be lost: re-scan and compare against the
    // pre-crash durable watermark.
    auto scan = ReplayWal(&dir, "data", 0, nullptr, /*repair=*/false);
    if (scan.ok()) {
      EXPECT_GE(scan->last_sequence, durable_before_crash)
          << "acknowledged-durable records lost in crash "
          << result.crashes_executed;
    }
  }
}

TEST(StoreRecoveryChaosTest, CleanCrashesRecoverBitIdentical) {
  // No write faults: crashes simply cut the unsynced tail whole.
  StoreFaultProfile profile;
  RunResult result = RunSchedule(11, profile, {13, 37, 58, 85, 110});
  EXPECT_EQ(result.crashes_executed, 5u);
  EXPECT_GT(result.final_version, 0u);
}

TEST(StoreRecoveryChaosTest, TornTailsAndBitFlipsRecoverBitIdentical) {
  StoreFaultProfile profile;
  profile.torn_tail = 1.0;  // every crash tears the unsynced suffix
  profile.bit_flip = 0.5;   // and half the time flips a surviving bit
  RunResult result = RunSchedule(23, profile, {17, 42, 71, 99});
  EXPECT_GE(result.crashes_executed, 4u);
}

TEST(StoreRecoveryChaosTest, WriteAndSyncFaultsRecoverBitIdentical) {
  StoreFaultProfile profile;
  profile.short_write = 0.05;
  profile.sync_fail = 0.05;
  profile.torn_tail = 0.7;
  profile.bit_flip = 0.3;
  RunResult result = RunSchedule(31, profile, {20, 55, 90});
  EXPECT_GE(result.crashes_executed, 3u);
}

TEST(StoreRecoveryChaosTest, SchedulesReplayDeterministically) {
  StoreFaultProfile profile;
  profile.short_write = 0.05;
  profile.sync_fail = 0.05;
  profile.torn_tail = 0.7;
  profile.bit_flip = 0.3;
  RunResult a = RunSchedule(47, profile, {25, 60});
  RunResult b = RunSchedule(47, profile, {25, 60});
  EXPECT_EQ(a.crashes_executed, b.crashes_executed);
  EXPECT_EQ(a.final_version, b.final_version);
}

// ---------------------------------------------------------------------------
// Crashes inside the publish-record window: past the newest checkpoint the
// log holds publish records, and recovery installs the last one instead of
// retraining. Each schedule crashes once at least two publish records lie
// past the newest checkpoint, so recovery must take that path.

enum class PublishCrash {
  kClean,           ///< crash right after a publish record
  kTornPublish,     ///< ...and cut the log inside that publish record
  kFlippedPublish,  ///< ...and flip a bit inside that publish record
  kBeforePublish,   ///< crash after an ingest retrained, before its publish
};

/// The newest WAL segment's path under "data".
std::string NewestSegment(ScriptedDir* dir) {
  auto names = dir->List("data");
  EXPECT_TRUE(names.ok());
  std::string newest;
  uint64_t newest_id = 0, id = 0;
  for (const std::string& name : *names) {
    if (ParseSegmentFileName(name, &id) && id >= newest_id) {
      newest_id = id;
      newest = name;
    }
  }
  return "data/" + newest;
}

/// Runs a 240-packet tape through a store-backed server (every record
/// synced, so a crash keeps every ingest record), crashes once as `kind`
/// says, recovers, checks the recovered state against the no-crash oracle,
/// then finishes the tape and checks again. Returns the crash's recovery.
StoreManager::RecoveryStats RunPublishCrash(uint64_t seed, PublishCrash kind) {
  World world(seed);
  std::vector<core::HttpPacket> packets;
  Rng traffic_rng(seed * 977 + 1);
  for (int i = 0; i < 240; ++i) {
    packets.push_back(GeneratePacket(&traffic_rng, world.tokens, 0.6));
  }
  ScriptedDir dir(seed);
  StoreOptions options;
  options.wal.sync_policy = SyncPolicy::kEveryRecord;
  options.wal.segment_bytes = 2048;
  obs::Registry registry;
  options.registry = &registry;
  obs::Counter* checkpoints = registry.GetCounter("store.checkpoints_written");
  obs::Counter* publishes = registry.GetCounter("store.publish_records");

  StoreManager::RecoveryStats crash_recovery;
  bool crashed = false;
  size_t cursor = 0;
  while (true) {
    auto opened = StoreManager::Open(&dir, "data", options);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    if (!opened.ok()) return crash_recovery;
    std::unique_ptr<StoreManager> store = std::move(*opened);
    core::SignatureServer server(world.oracle.get(), SmallServerOptions());
    auto recovery = store->Recover(&server);
    EXPECT_TRUE(recovery.ok()) << recovery.status().message();
    if (!recovery.ok()) return crash_recovery;
    cursor = static_cast<size_t>(store->last_sequence());
    EXPECT_EQ(StateString(server), OracleStateAt(&world, packets, cursor))
        << "recovered state diverged at sequence " << cursor;
    if (crashed) crash_recovery = *recovery;

    uint64_t past_checkpoint = 0;  // publish records past the newest one
    bool crash_now = false;
    std::string torn_frame;  // the publish record the crash then damages
    while (cursor < packets.size() && !crash_now) {
      FeedRecord record;
      record.feed_version = server.feed_version();
      record.packet = packets[cursor];
      EXPECT_TRUE(store->Append(std::move(record)).ok());
      uint64_t before = server.feed_version();
      server.Ingest(packets[cursor]);
      ++cursor;
      if (server.feed_version() == before) continue;
      if (!crashed && kind == PublishCrash::kBeforePublish &&
          past_checkpoint >= 2) {
        crash_now = true;
        break;
      }
      const uint64_t checkpoints_before = checkpoints->Value();
      const uint64_t publishes_before = publishes->Value();
      EXPECT_TRUE(store->WriteSnapshot(server).ok());
      EXPECT_TRUE(store->Compact().ok());
      if (checkpoints->Value() != checkpoints_before) {
        past_checkpoint = 0;
      } else if (publishes->Value() != publishes_before) {
        ++past_checkpoint;
      }
      if (!crashed && kind != PublishCrash::kBeforePublish &&
          past_checkpoint >= 2) {
        crash_now = true;
        FeedRecord publish;
        publish.type = RecordType::kPublish;
        publish.sequence = store->last_sequence();
        publish.feed_version = server.feed_version();
        publish.new_suspicious = server.new_suspicious();
        publish.signatures = server.Feed();
        torn_frame = FrameRecord(publish);
      }
    }
    if (!crash_now) {
      EXPECT_TRUE(crashed) << "the tape never reached the crash point";
      EXPECT_EQ(StateString(server),
                OracleStateAt(&world, packets, packets.size()));
      return crash_recovery;
    }

    store.reset();
    dir.Crash();
    crashed = true;
    if (kind == PublishCrash::kTornPublish ||
        kind == PublishCrash::kFlippedPublish) {
      // The publish record is the log's last frame; damage its middle.
      const std::string path = NewestSegment(&dir);
      auto data = dir.Read(path);
      EXPECT_TRUE(data.ok());
      EXPECT_GE(data->size(), torn_frame.size());
      EXPECT_EQ(data->substr(data->size() - torn_frame.size()), torn_frame);
      const size_t middle = data->size() - torn_frame.size() / 2;
      EXPECT_TRUE(dir.Truncate(path, middle).ok());
      if (kind == PublishCrash::kFlippedPublish) {
        std::string tail = data->substr(middle);
        tail[0] ^= 0x20;
        auto file = dir.OpenAppend(path);
        EXPECT_TRUE(file.ok());
        EXPECT_TRUE((*file)->Append(tail).ok());
        EXPECT_TRUE((*file)->Sync().ok());
      }
    }
  }
}

TEST(StoreRecoveryChaosTest, CrashPastCheckpointInstallsLoggedEpochs) {
  StoreManager::RecoveryStats stats = RunPublishCrash(61, PublishCrash::kClean);
  EXPECT_GE(stats.epochs_installed, 2u);
  EXPECT_EQ(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 0u);
}

TEST(StoreRecoveryChaosTest, TornPublishRecordRetrainsOnlyItsEpoch) {
  StoreManager::RecoveryStats stats =
      RunPublishCrash(62, PublishCrash::kTornPublish);
  EXPECT_GT(stats.epochs_installed, 0u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 1u);
}

TEST(StoreRecoveryChaosTest, FlippedPublishRecordRetrainsOnlyItsEpoch) {
  StoreManager::RecoveryStats stats =
      RunPublishCrash(63, PublishCrash::kFlippedPublish);
  EXPECT_GT(stats.epochs_installed, 0u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 1u);
}

TEST(StoreRecoveryChaosTest, CrashBetweenIngestAndPublishRetrainsThatEpoch) {
  StoreManager::RecoveryStats stats =
      RunPublishCrash(64, PublishCrash::kBeforePublish);
  EXPECT_GE(stats.epochs_installed, 2u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 1u);
}

}  // namespace
}  // namespace leakdet::store
