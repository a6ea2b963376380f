// Kill-and-recover integration test against the real filesystem: a child
// process ingests store-backed training traffic and reports its durable
// watermark over a pipe; the parent SIGKILLs it mid-run, recovers the data
// directory, and verifies that no acknowledged-durable record was lost and
// that the recovered server republishes at least the pre-crash epoch.
//
// The child is forked before any threads exist and both sides stay
// single-threaded, so the test is safe under TSan/ASan.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/payload_check.h"
#include "core/signature_server.h"
#include "obs/metrics.h"
#include "store/store_manager.h"
#include "testing/packet_gen.h"
#include "util/rng.h"

namespace leakdet::store {
namespace {

using leakdet::testing::GeneratePacket;

constexpr uint64_t kSeed = 20260807;
constexpr size_t kTapeLength = 150;

core::SignatureServer::Options SmallServerOptions() {
  core::SignatureServer::Options options;
  options.retrain_after = 10;
  options.pipeline.sample_size = 10;
  options.pipeline.normal_corpus_size = 20;
  options.pipeline.num_threads = 1;
  return options;
}

struct World {
  World() : rng(kSeed) {
    core::DeviceTokens device;
    device.android_id = rng.RandomHex(16);
    device.imei = rng.RandomDigits(15);
    device.imsi = rng.RandomDigits(15);
    device.sim_serial = rng.RandomDigits(19);
    device.carrier = "NTT DOCOMO";
    tokens = {device.android_id, device.imei};
    oracle = std::make_unique<core::PayloadCheck>(
        std::vector<core::DeviceTokens>{device});
    Rng traffic_rng(kSeed * 31 + 7);
    for (size_t i = 0; i < kTapeLength; ++i) {
      tape.push_back(GeneratePacket(&traffic_rng, tokens, 0.6));
    }
  }

  Rng rng;
  std::vector<std::string> tokens;
  std::unique_ptr<core::PayloadCheck> oracle;
  std::vector<core::HttpPacket> tape;
};

/// One progress report the child writes after every ingested packet.
struct Progress {
  uint64_t durable = 0;  ///< store->durable_sequence() at report time
  uint64_t version = 0;  ///< server->feed_version() at report time
};

StoreOptions TestStoreOptions() {
  StoreOptions options;
  // every-record acks make the "no acked record lost" assertion as tight
  // as it can be: every reported durable sequence is a hard promise.
  options.wal.sync_policy = SyncPolicy::kEveryRecord;
  options.wal.segment_bytes = 8192;
  return options;
}

/// Where a child kills itself, instead of waiting for the parent's SIGKILL.
/// Both points lie past two publish records beyond the newest checkpoint,
/// so the recovery that follows must install logged epochs.
enum class SelfKill {
  kNever,
  kAfterPublish,   ///< right after the second such publish record
  kBeforePublish,  ///< after the next retrain, before its publish record
};

/// Child body: recover, resume the tape, report progress forever (the
/// parent kills us). Uses only async-signal-unsafe-free reporting (write).
[[noreturn]] void RunChild(const std::string& data_dir, int report_fd,
                           SelfKill self_kill) {
  World world;
  obs::Registry registry;
  StoreOptions options = TestStoreOptions();
  options.registry = &registry;
  obs::Counter* checkpoints = registry.GetCounter("store.checkpoints_written");
  obs::Counter* publishes = registry.GetCounter("store.publish_records");
  auto store = StoreManager::Open(Dir::Real(), data_dir, options);
  if (!store.ok()) _exit(10);
  core::SignatureServer server(world.oracle.get(), SmallServerOptions());
  if (!(*store)->Recover(&server).ok()) _exit(11);
  size_t cursor = static_cast<size_t>((*store)->last_sequence());
  if (cursor > world.tape.size()) _exit(12);
  uint64_t past_checkpoint = 0;  // publish records past the newest one
  while (cursor < world.tape.size()) {
    FeedRecord record;
    record.feed_version = server.feed_version();
    record.packet = world.tape[cursor];
    if (!(*store)->Append(std::move(record)).ok()) _exit(13);
    uint64_t before = server.feed_version();
    server.Ingest(world.tape[cursor]);
    ++cursor;
    if (server.feed_version() != before) {
      if (self_kill == SelfKill::kBeforePublish && past_checkpoint >= 2) {
        kill(getpid(), SIGKILL);
      }
      const uint64_t checkpoints_before = checkpoints->Value();
      const uint64_t publishes_before = publishes->Value();
      if ((*store)->WriteSnapshot(server).ok()) {
        (void)(*store)->Compact();
      }
      if (checkpoints->Value() != checkpoints_before) {
        past_checkpoint = 0;
      } else if (publishes->Value() != publishes_before) {
        ++past_checkpoint;
      }
      if (self_kill == SelfKill::kAfterPublish && past_checkpoint >= 2) {
        kill(getpid(), SIGKILL);
      }
    }
    Progress progress{(*store)->durable_sequence(), server.feed_version()};
    if (write(report_fd, &progress, sizeof(progress)) != sizeof(progress)) {
      _exit(14);
    }
  }
  _exit(0);  // tape finished before the parent killed us — also fine
}

class StoreKillRecoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Under the build tree (the ctest working directory), not /tmp: the
    // fsync behaviour under test is the real filesystem's.
    data_dir_ = "store_kill_recover_data_" + std::to_string(getpid());
    RemoveDataDir();
  }
  void TearDown() override { RemoveDataDir(); }

  void RemoveDataDir() {
    auto names = Dir::Real()->List(data_dir_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        Dir::Real()->Remove(data_dir_ + "/" + name);
      }
    }
    std::remove(data_dir_.c_str());
  }

  /// Forks a child run and SIGKILLs it once the parent has seen at least
  /// `min_reports` progress reports (or lets it finish if the tape runs
  /// out). Returns the last progress the child acknowledged.
  Progress RunAndKill(size_t min_reports,
                      SelfKill self_kill = SelfKill::kNever) {
    int pipe_fds[2];
    EXPECT_EQ(pipe(pipe_fds), 0);
    pid_t pid = fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      close(pipe_fds[0]);
      RunChild(data_dir_, pipe_fds[1], self_kill);  // never returns
    }
    close(pipe_fds[1]);

    Progress last{};
    size_t reports = 0;
    Progress progress;
    while (true) {
      ssize_t n = read(pipe_fds[0], &progress, sizeof(progress));
      if (n != sizeof(progress)) break;  // EOF: child done or died
      last = progress;
      ++reports;
      if (reports >= min_reports) {
        kill(pid, SIGKILL);
        break;
      }
    }
    // Drain whatever the child wrote between our decision and its death —
    // every report read is an acknowledged promise, including these.
    while (read(pipe_fds[0], &progress, sizeof(progress)) ==
           static_cast<ssize_t>(sizeof(progress))) {
      last = progress;
    }
    close(pipe_fds[0]);
    int wstatus = 0;
    EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
    if (WIFEXITED(wstatus)) {
      EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "child failed before the kill";
    }
    return last;
  }

  /// Recovers the data directory in-process and checks the result against
  /// a never-crashed server fed the same prefix of the tape.
  StoreManager::RecoveryStats RecoverAndCompare(const World& world) {
    auto store =
        StoreManager::Open(Dir::Real(), data_dir_, TestStoreOptions());
    EXPECT_TRUE(store.ok()) << store.status().message();
    if (!store.ok()) return {};
    core::SignatureServer recovered(world.oracle.get(), SmallServerOptions());
    auto stats = (*store)->Recover(&recovered);
    EXPECT_TRUE(stats.ok()) << stats.status().message();
    if (!stats.ok()) return {};
    core::SignatureServer oracle(world.oracle.get(), SmallServerOptions());
    for (uint64_t i = 0; i < (*store)->last_sequence(); ++i) {
      oracle.Ingest(world.tape[i]);
    }
    EXPECT_EQ(recovered.feed_version(), oracle.feed_version());
    EXPECT_EQ(recovered.Feed(), oracle.Feed());
    EXPECT_EQ(recovered.new_suspicious(), oracle.new_suspicious());
    EXPECT_TRUE(recovered.suspicious_pool() == oracle.suspicious_pool());
    EXPECT_TRUE(recovered.normal_pool() == oracle.normal_pool());
    return *stats;
  }

  /// Damages the log's last record, which must be a publish record: cuts
  /// the newest segment in the middle of it, and with `flip` writes the cut
  /// half back with one bit flipped.
  void DamageLastPublishRecord(bool flip) {
    auto names = Dir::Real()->List(data_dir_);
    ASSERT_TRUE(names.ok());
    std::string newest;
    uint64_t newest_id = 0, id = 0;
    for (const std::string& name : *names) {
      if (ParseSegmentFileName(name, &id) && id >= newest_id) {
        newest_id = id;
        newest = data_dir_ + "/" + name;
      }
    }
    ASSERT_FALSE(newest.empty());
    auto data = Dir::Real()->Read(newest);
    ASSERT_TRUE(data.ok());
    RecordCursor cursor(*data);
    size_t last_start = 0;
    bool last_is_publish = false;
    while (true) {
      const size_t start = cursor.offset();
      auto record = cursor.Next();
      if (!record.ok()) break;
      last_start = start;
      last_is_publish = record->is_publish();
    }
    ASSERT_TRUE(last_is_publish) << "the kill did not follow a publish";
    ASSERT_EQ(cursor.offset(), data->size());
    const size_t middle = (last_start + data->size()) / 2;
    ASSERT_TRUE(Dir::Real()->Truncate(newest, middle).ok());
    if (!flip) return;
    std::string tail = data->substr(middle);
    tail[0] ^= 0x08;
    auto file = Dir::Real()->OpenAppend(newest);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(tail).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }

  std::string data_dir_;
};

TEST_F(StoreKillRecoverTest, KillPastCheckpointInstallsLoggedEpochs) {
  World world;
  RunAndKill(kTapeLength * 2, SelfKill::kAfterPublish);
  StoreManager::RecoveryStats stats = RecoverAndCompare(world);
  EXPECT_GE(stats.epochs_installed, 2u);
  EXPECT_EQ(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 0u);
}

TEST_F(StoreKillRecoverTest, KillBetweenIngestAndPublishRetrainsThatEpoch) {
  World world;
  RunAndKill(kTapeLength * 2, SelfKill::kBeforePublish);
  StoreManager::RecoveryStats stats = RecoverAndCompare(world);
  EXPECT_GE(stats.epochs_installed, 2u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 1u);
}

TEST_F(StoreKillRecoverTest, TornPublishTailRetrainsOnlyItsEpoch) {
  World world;
  RunAndKill(kTapeLength * 2, SelfKill::kAfterPublish);
  DamageLastPublishRecord(/*flip=*/false);
  StoreManager::RecoveryStats stats = RecoverAndCompare(world);
  EXPECT_GT(stats.epochs_installed, 0u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 1u);
}

TEST_F(StoreKillRecoverTest, FlippedPublishRecordRetrainsOnlyItsEpoch) {
  World world;
  RunAndKill(kTapeLength * 2, SelfKill::kAfterPublish);
  DamageLastPublishRecord(/*flip=*/true);
  StoreManager::RecoveryStats stats = RecoverAndCompare(world);
  EXPECT_GT(stats.epochs_installed, 0u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.epochs_retrained, 1u);
}

TEST_F(StoreKillRecoverTest, NoAcknowledgedRecordLostAcrossKills) {
  World world;
  // Three kill-recover cycles at different depths, then a run to completion.
  std::vector<Progress> acked;
  acked.push_back(RunAndKill(20));
  acked.push_back(RunAndKill(45));
  acked.push_back(RunAndKill(70));
  acked.push_back(RunAndKill(kTapeLength * 2));  // never reached: tape ends

  for (const Progress& progress : acked) {
    ASSERT_GT(progress.durable, 0u);
  }
  // Each cycle resumed at or past the previous acked watermark, so the
  // watermarks are non-decreasing across kills.
  for (size_t i = 1; i < acked.size(); ++i) {
    EXPECT_GE(acked[i].durable, acked[i - 1].durable);
  }

  // Final recovery in-process: the full tape must be there and the state
  // bit-identical to a never-crashed oracle run.
  auto store = StoreManager::Open(Dir::Real(), data_dir_, TestStoreOptions());
  ASSERT_TRUE(store.ok()) << store.status().message();
  core::SignatureServer recovered(world.oracle.get(), SmallServerOptions());
  uint64_t first_republished = 0;
  recovered.SetFeedObserver(
      [&](uint64_t version, const match::SignatureSet&) {
        if (first_republished == 0) first_republished = version;
      });
  auto stats = (*store)->Recover(&recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  const Progress& final_acked = acked.back();
  EXPECT_GE((*store)->last_sequence(), final_acked.durable)
      << "acknowledged-durable records were lost";
  EXPECT_EQ((*store)->last_sequence(), kTapeLength);

  // Serve-before-replay: the snapshot epoch published before any replay...
  EXPECT_TRUE(stats->snapshot_loaded);
  EXPECT_EQ(first_republished, stats->snapshot_version);
  // ...and after replay the served epoch is at least the last the child
  // ever reported as published before dying.
  EXPECT_GE(recovered.feed_version(), final_acked.version);

  // Bit-identical to the no-crash oracle.
  core::SignatureServer oracle_server(world.oracle.get(), SmallServerOptions());
  for (const core::HttpPacket& packet : world.tape) {
    oracle_server.Ingest(packet);
  }
  EXPECT_EQ(recovered.feed_version(), oracle_server.feed_version());
  EXPECT_EQ(recovered.Feed(), oracle_server.Feed());
  EXPECT_EQ(recovered.new_suspicious(), oracle_server.new_suspicious());
  ASSERT_EQ(recovered.suspicious_pool().size(),
            oracle_server.suspicious_pool().size());
  for (size_t i = 0; i < oracle_server.suspicious_pool().size(); ++i) {
    EXPECT_EQ(recovered.suspicious_pool()[i],
              oracle_server.suspicious_pool()[i]);
  }
}

}  // namespace
}  // namespace leakdet::store
