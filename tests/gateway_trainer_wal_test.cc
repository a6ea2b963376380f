// Regression tests for the trainer's WAL accounting: a record whose append
// fails is never ingested, and group commit survives snapshot failures.
//
// Logged-before-ingested: recovery rebuilds the server from the snapshot
// plus the WAL suffix, so a record the server trains on must be in the log.
// When StoreManager::Append fails, TrainerLoop::Run used to count the error
// and ingest the record anyway, leaving a server whose pools (and feed)
// recovery could not reproduce.
//
// TrainerLoop::Run counts appends the sync policy has deferred
// (`appends_unflushed`) and group-commits them with one Sync when the
// mailbox drains. A successful WriteSnapshot also syncs the log, so the
// publish path may zero the counter — but an *unsuccessful* snapshot must
// not: when the snapshot's own WAL sync fails, the acted-on records are
// still volatile, and zeroing the counter anyway made the drain-time group
// commit skip them, leaving /replog and failover blind to records the
// server had already trained on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "obs/metrics.h"
#include "store/store_manager.h"
#include "testing/packet_gen.h"
#include "testing/scripted_file.h"
#include "util/rng.h"

namespace leakdet::gateway {
namespace {

using leakdet::testing::GeneratePacket;
using leakdet::testing::ScriptedDir;

/// Forwards to a base Dir but fails the next `fail_next` File::Sync calls
/// (deterministically, unlike StoreFaultProfile's probabilistic sync_fail) —
/// the minimal fault that makes WriteSnapshot fail while leaving records
/// appendable and a later retry able to succeed.
class FailNextSyncDir final : public store::Dir {
 public:
  explicit FailNextSyncDir(store::Dir* base) : base_(base) {}

  void FailNextSyncs(int n) { fail_next_.store(n); }
  int sync_failures() const { return injected_.load(); }
  /// Fails every directory listing until cleared.
  void FailLists(bool fail) { fail_lists_.store(fail); }

  StatusOr<std::unique_ptr<store::File>> OpenAppend(
      const std::string& path) override {
    auto file = base_->OpenAppend(path);
    if (!file.ok()) return file.status();
    return StatusOr<std::unique_ptr<store::File>>(
        std::make_unique<WrappedFile>(std::move(*file), this));
  }
  StatusOr<std::string> Read(const std::string& path) override {
    return base_->Read(path);
  }
  StatusOr<std::vector<std::string>> List(const std::string& dirpath) override {
    if (fail_lists_.load()) return Status::IOError("injected list failure");
    return base_->List(dirpath);
  }
  Status CreateDir(const std::string& dirpath) override {
    return base_->CreateDir(dirpath);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status SyncDir(const std::string& dirpath) override {
    return base_->SyncDir(dirpath);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }

 private:
  class WrappedFile final : public store::File {
   public:
    WrappedFile(std::unique_ptr<store::File> base, FailNextSyncDir* owner)
        : base_(std::move(base)), owner_(owner) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Sync() override {
      int remaining = owner_->fail_next_.load();
      while (remaining > 0) {
        if (owner_->fail_next_.compare_exchange_weak(remaining,
                                                     remaining - 1)) {
          owner_->injected_.fetch_add(1);
          return Status::IOError("injected fsync failure");
        }
      }
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<store::File> base_;
    FailNextSyncDir* owner_;
  };

  store::Dir* base_;
  std::atomic<int> fail_next_{0};
  std::atomic<int> injected_{0};
  std::atomic<bool> fail_lists_{false};
};

core::SignatureServer::Options TinyServerOptions() {
  core::SignatureServer::Options options;
  options.retrain_after = 1;  // every sensitive packet publishes an epoch
  options.pipeline.sample_size = 4;
  options.pipeline.normal_corpus_size = 8;
  options.pipeline.num_threads = 1;
  return options;
}

void WaitForProcessed(const TrainerLoop& trainer, uint64_t n) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (trainer.items_processed() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "trainer never processed " << n << " items";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The regression: a retrain whose snapshot fails (its internal WAL fsync is
// the failing call) must leave the acted-on record in the deferred-append
// count, so the drain-time group commit still makes it durable — while the
// trainer is running, not only via Stop()'s final sync.
TEST(TrainerWalSyncTest, DrainCommitStillFlushesAfterSnapshotFailure) {
  ScriptedDir base;
  FailNextSyncDir dir(&base);
  store::StoreOptions store_options;
  // Group-commit policy: appends alone never sync, so durability of the
  // single record below depends entirely on the drain-time Sync under test.
  store_options.wal.sync_policy = store::SyncPolicy::kEveryN;
  store_options.wal.sync_every_n = 1 << 20;
  auto store = store::StoreManager::Open(&dir, "data", store_options);
  ASSERT_TRUE(store.ok()) << store.status().message();

  Rng rng(7);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  device.imei = rng.RandomDigits(15);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id, device.imei};

  core::SignatureServer server(&oracle, TinyServerOptions());
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerOptions trainer_options;
  trainer_options.store = store->get();
  TrainerLoop trainer(&server, &gateway, trainer_options);
  ASSERT_TRUE(trainer.Start().ok());

  // The next WAL fsync is the one WriteSnapshot issues before writing the
  // snapshot file; failing it fails the whole snapshot.
  dir.FailNextSyncs(1);

  Verdict verdict;
  verdict.sensitive = true;
  ASSERT_TRUE(trainer.Offer(GeneratePacket(&rng, tokens, 1.0), verdict));
  WaitForProcessed(trainer, 1);

  EXPECT_EQ(dir.sync_failures(), 1) << "snapshot path never hit the fault";
  EXPECT_EQ(
      gateway.metrics()->GetCounter("trainer.snapshot_errors", {})->Value(),
      1u);
  // The drain-time group commit ran after the failed snapshot and retried
  // the sync, so the record the server trained on is durable *now* — before
  // Stop()'s shutdown sync, which used to paper over the lost flush.
  EXPECT_EQ((*store)->durable_sequence(), 1u);

  trainer.Stop();
}

// Control: with a healthy store the publish path itself syncs (snapshot
// success), and the counter reset keeps the drain commit a no-op.
TEST(TrainerWalSyncTest, SuccessfulSnapshotMakesRecordDurable) {
  ScriptedDir base;
  FailNextSyncDir dir(&base);
  store::StoreOptions store_options;
  store_options.wal.sync_policy = store::SyncPolicy::kEveryN;
  store_options.wal.sync_every_n = 1 << 20;
  auto store = store::StoreManager::Open(&dir, "data", store_options);
  ASSERT_TRUE(store.ok());

  Rng rng(7);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id};

  core::SignatureServer server(&oracle, TinyServerOptions());
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerOptions trainer_options;
  trainer_options.store = store->get();
  TrainerLoop trainer(&server, &gateway, trainer_options);
  ASSERT_TRUE(trainer.Start().ok());

  Verdict verdict;
  verdict.sensitive = true;
  ASSERT_TRUE(trainer.Offer(GeneratePacket(&rng, tokens, 1.0), verdict));
  WaitForProcessed(trainer, 1);

  EXPECT_EQ(dir.sync_failures(), 0);
  EXPECT_EQ(
      gateway.metrics()->GetCounter("trainer.snapshots", {})->Value(), 1u);
  EXPECT_EQ((*store)->durable_sequence(), 1u);

  trainer.Stop();
}

// The regression: TrainerLoop::Train dropped Compact()'s status and nothing
// counted the failure. A compaction that cannot list the directory now shows
// in store.compact_errors, and the epoch itself stays persisted.
TEST(TrainerCompactTest, CompactFailureIsCounted) {
  ScriptedDir base;
  FailNextSyncDir dir(&base);
  obs::Registry registry;
  store::StoreOptions store_options;
  store_options.registry = &registry;
  auto store = store::StoreManager::Open(&dir, "data", store_options);
  ASSERT_TRUE(store.ok()) << store.status().message();

  Rng rng(7);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id};

  core::SignatureServer server(&oracle, TinyServerOptions());
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerOptions trainer_options;
  trainer_options.store = store->get();
  TrainerLoop trainer(&server, &gateway, trainer_options);
  ASSERT_TRUE(trainer.Start().ok());

  // The first epoch writes the first checkpoint, so its compaction is due.
  dir.FailLists(true);
  Verdict verdict;
  verdict.sensitive = true;
  ASSERT_TRUE(trainer.Offer(GeneratePacket(&rng, tokens, 1.0), verdict));
  WaitForProcessed(trainer, 1);
  trainer.Stop();
  dir.FailLists(false);

  EXPECT_EQ(registry.GetCounter("store.compact_errors")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("store.compactions")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("store.checkpoints_written")->Value(), 1u);
  EXPECT_EQ(
      gateway.metrics()->GetCounter("trainer.snapshots", {})->Value(), 1u);
}

// The regression: an append failure (injected through the store::Dir seam)
// counts in trainer.wal_errors and the record is skipped, not ingested.
TEST(TrainerWalAppendTest, FailedAppendIsNeverIngested) {
  // Every file write fails short; once the active segment is also gone, the
  // WAL writer cannot repair its tail and refuses the append.
  leakdet::testing::StoreFaultProfile profile;
  profile.short_write = 1.0;
  ScriptedDir dir(/*seed=*/5, profile);
  store::StoreOptions store_options;
  store_options.wal.sync_policy = store::SyncPolicy::kEveryRecord;
  auto store = store::StoreManager::Open(&dir, "data", store_options);
  ASSERT_TRUE(store.ok()) << store.status().message();
  auto names = dir.List("data");
  ASSERT_TRUE(names.ok());
  size_t segments = 0;
  for (const std::string& name : *names) {
    uint64_t id = 0;
    if (store::ParseSegmentFileName(name, &id)) {
      ASSERT_TRUE(dir.Remove("data/" + name).ok());
      ++segments;
    }
  }
  ASSERT_EQ(segments, 1u);

  Rng rng(7);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id};

  core::SignatureServer server(&oracle, TinyServerOptions());
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerOptions trainer_options;
  trainer_options.store = store->get();
  TrainerLoop trainer(&server, &gateway, trainer_options);
  ASSERT_TRUE(trainer.Start().ok());

  Verdict verdict;
  verdict.sensitive = true;
  ASSERT_TRUE(trainer.Offer(GeneratePacket(&rng, tokens, 1.0), verdict));
  WaitForProcessed(trainer, 1);

  obs::Registry* metrics = gateway.metrics();
  EXPECT_EQ(metrics->GetCounter("trainer.wal_errors", {})->Value(), 1u);
  EXPECT_EQ(metrics->GetCounter("trainer.wal_appends", {})->Value(), 0u);
  EXPECT_EQ(metrics->GetCounter("trainer.ingested", {})->Value(), 0u);
  // Nothing the log lacks reached the server: no pooled packet, no epoch.
  EXPECT_EQ(server.suspicious_pool_size(), 0u);
  EXPECT_EQ(server.normal_pool_size(), 0u);
  EXPECT_EQ(server.feed_version(), 0u);
  EXPECT_EQ(trainer.feeds_published(), 0u);

  trainer.Stop();
}

}  // namespace
}  // namespace leakdet::gateway
