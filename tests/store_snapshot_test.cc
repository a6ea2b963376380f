#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <string>

#include "core/payload_check.h"
#include "core/signature_server.h"
#include "crypto/sha1.h"
#include "store/store_manager.h"
#include "testing/scripted_file.h"

namespace leakdet::store {
namespace {

core::HttpPacket PoolPacket(uint32_t app_id, const std::string& marker) {
  core::HttpPacket packet;
  packet.app_id = app_id;
  packet.destination.port = 80;
  packet.destination.host = "api.example.net";
  packet.request_line = "POST /v1/collect HTTP/1.1";
  packet.cookie = "uid=" + marker;
  packet.body = "payload=\"" + marker + "\"\nline2\ttab";
  return packet;
}

SnapshotContents TestSnapshot() {
  SnapshotContents snapshot;
  snapshot.feed_version = 3;
  snapshot.last_sequence = 1234;
  snapshot.new_suspicious = 17;
  snapshot.params = "sample_size=300 cut_height=2.0 compressor=lzw";
  snapshot.signatures = "signature-set-bytes\nline two\n";
  for (uint32_t i = 0; i < 5; ++i) {
    snapshot.suspicious.push_back(PoolPacket(i, "sus" + std::to_string(i)));
  }
  for (uint32_t i = 0; i < 3; ++i) {
    snapshot.normal.push_back(PoolPacket(100 + i, "norm" + std::to_string(i)));
  }
  return snapshot;
}

TEST(SnapshotTest, SerializeParseRoundTrips) {
  SnapshotContents snapshot = TestSnapshot();
  StatusOr<SnapshotContents> parsed = ParseSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->feed_version, snapshot.feed_version);
  EXPECT_EQ(parsed->last_sequence, snapshot.last_sequence);
  EXPECT_EQ(parsed->new_suspicious, snapshot.new_suspicious);
  EXPECT_EQ(parsed->params, snapshot.params);
  EXPECT_EQ(parsed->signatures, snapshot.signatures);
  ASSERT_EQ(parsed->suspicious.size(), snapshot.suspicious.size());
  ASSERT_EQ(parsed->normal.size(), snapshot.normal.size());
  for (size_t i = 0; i < snapshot.suspicious.size(); ++i) {
    EXPECT_EQ(parsed->suspicious[i], snapshot.suspicious[i]);
  }
  for (size_t i = 0; i < snapshot.normal.size(); ++i) {
    EXPECT_EQ(parsed->normal[i], snapshot.normal[i]);
  }
  // Bit-identical re-serialization: the format is canonical, which is what
  // lets the crash-recovery differential compare states by string equality.
  EXPECT_EQ(SerializeSnapshot(*parsed), SerializeSnapshot(snapshot));
}

/// A fixed snapshot whose pools exercise every JSON escape the pool encoder
/// emits: quotes, backslashes, control bytes, bytes >= 0x80, an empty cookie
/// and body, and (in the normal pool) nothing at all.
SnapshotContents GoldenSnapshot() {
  SnapshotContents snapshot;
  snapshot.feed_version = 42;
  snapshot.last_sequence = 987654321;
  snapshot.new_suspicious = 7;
  snapshot.params = "sample_size=300 cut_height=2.000000 compressor=lzw";
  snapshot.signatures = "sig v1\n\"quoted\" \\ tail\n";
  core::HttpPacket escapes;
  escapes.app_id = 4000000000u;
  escapes.destination.host = "t.\xe3\x81\x82.example.jp";
  escapes.destination.ip = *net::Ipv4Address::Parse("203.0.113.9");
  escapes.destination.port = 8080;
  escapes.request_line = "GET /a?q=\"x\"&b=\\y HTTP/1.1";
  static constexpr char kCookie[] = "sid=\x01\x1f\x7f\x80\xff;";
  static constexpr char kBody[] = "line1\r\nline2\tend\0nul\b\f";
  escapes.cookie = std::string(kCookie, sizeof(kCookie) - 1);
  escapes.body = std::string(kBody, sizeof(kBody) - 1);
  snapshot.suspicious.push_back(escapes);
  core::HttpPacket empty_fields;
  empty_fields.app_id = 0;
  empty_fields.destination.host = "";
  empty_fields.destination.port = 443;
  empty_fields.request_line = "POST / HTTP/1.1";
  snapshot.suspicious.push_back(empty_fields);
  snapshot.suspicious.push_back(PoolPacket(9, "\xc2\xa9 mark"));
  return snapshot;
}

// Pins the serializer's exact bytes: a change to the snapshot encoding (or to
// the SHA-1 that stamps it) must show up here, not as recovery drift.
TEST(SnapshotTest, SerializationIsPinnedByGoldenDigest) {
  SnapshotContents snapshot = GoldenSnapshot();
  std::string text = SerializeSnapshot(snapshot);
  EXPECT_EQ(crypto::Sha1Hex(text), "36646f72acd1bd6a8ea953cc60ac9f5c62ce4c71");
  StatusOr<SnapshotContents> parsed = ParseSnapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->suspicious, snapshot.suspicious);
  EXPECT_TRUE(parsed->normal.empty());

  // The same pools the other way round: an empty suspicious pool.
  std::swap(snapshot.suspicious, snapshot.normal);
  EXPECT_EQ(crypto::Sha1Hex(SerializeSnapshot(snapshot)),
            "b20026d0d901c18f15773f07f2e1d7add59e1d4e");
}

// StoreManager::WriteSnapshot serializes from the live server; the file it
// leaves must be exactly SerializeSnapshot of a copy of that state, with
// evictions pending in both pools.
TEST(SnapshotTest, StoreManagerWritesTheSerializedServerState) {
  core::DeviceTokens device;
  device.android_id = "9774d56d682e549c";
  core::PayloadCheck oracle({device});
  core::SignatureServer::Options options;
  options.retrain_after = 1000000;
  options.max_suspicious_pool = 4;
  options.max_normal_pool = 3;
  core::SignatureServer server(&oracle, options);
  core::SignatureServer::State state;
  state.new_suspicious = 5;
  server.Restore(std::move(state));
  for (uint32_t i = 0; i < 11; ++i) {
    core::HttpPacket packet = PoolPacket(i, "m" + std::to_string(i));
    if (i % 3 != 0) packet.body += "&aid=9774d56d682e549c";
    server.Ingest(packet);
  }

  leakdet::testing::ScriptedDir dir;
  auto store = StoreManager::Open(&dir, "data", StoreOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->WriteSnapshot(server).ok());

  SnapshotContents copied;
  copied.feed_version = server.feed_version();
  copied.last_sequence = (*store)->last_sequence();
  copied.new_suspicious = server.new_suspicious();
  copied.params = DescribeBuildParams(server.options());
  copied.signatures = server.Feed();
  copied.suspicious = server.suspicious_pool();
  copied.normal = server.normal_pool();
  EXPECT_EQ(copied.suspicious.size(), 4u);
  EXPECT_EQ(copied.normal.size(), 3u);
  auto written = dir.Read(
      "data/" + SnapshotFileName(copied.feed_version, copied.last_sequence));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, SerializeSnapshot(copied));
}

TEST(SnapshotTest, DigestCatchesEveryByteFlip) {
  const std::string text = SerializeSnapshot(TestSnapshot());
  size_t undetected = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    std::string bad = text;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    if (ParseSnapshot(bad).ok()) ++undetected;
  }
  EXPECT_EQ(undetected, 0u);
}

TEST(SnapshotTest, TruncationsAreRejected) {
  const std::string text = SerializeSnapshot(TestSnapshot());
  for (size_t len : {size_t{0}, size_t{10}, text.size() / 2, text.size() - 1}) {
    EXPECT_FALSE(ParseSnapshot(std::string_view(text).substr(0, len)).ok())
        << "prefix length " << len;
  }
}

TEST(SnapshotTest, FileNameRoundTrips) {
  uint64_t version = 0, sequence = 0;
  ASSERT_TRUE(
      ParseSnapshotFileName(SnapshotFileName(7, 123456), &version, &sequence));
  EXPECT_EQ(version, 7u);
  EXPECT_EQ(sequence, 123456u);
  EXPECT_FALSE(ParseSnapshotFileName("snap-x.snap", &version, &sequence));
  EXPECT_FALSE(ParseSnapshotFileName("wal-00000000000000000001.log", &version,
                                     &sequence));
}

TEST(SnapshotTest, LoadNewestSkipsDamagedSnapshots) {
  leakdet::testing::ScriptedDir dir;
  ASSERT_TRUE(dir.CreateDir("data").ok());

  SnapshotContents old_snapshot = TestSnapshot();
  old_snapshot.feed_version = 1;
  old_snapshot.last_sequence = 100;
  ASSERT_TRUE(WriteSnapshotFile(&dir, "data", old_snapshot).ok());

  SnapshotContents new_snapshot = TestSnapshot();
  new_snapshot.feed_version = 2;
  new_snapshot.last_sequence = 200;
  ASSERT_TRUE(WriteSnapshotFile(&dir, "data", new_snapshot).ok());

  // Newest wins while both are intact.
  std::string chosen;
  auto loaded = LoadNewestSnapshot(&dir, "data", &chosen);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->feed_version, 2u);
  EXPECT_EQ(chosen, SnapshotFileName(2, 200));

  // Damage the newest: recovery falls back to the older valid one.
  const std::string newest_path = "data/" + SnapshotFileName(2, 200);
  auto size = dir.FileSize(newest_path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(dir.Truncate(newest_path, *size - 5).ok());
  size_t skipped = 0;
  loaded = LoadNewestSnapshot(&dir, "data", &chosen, &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->feed_version, 1u);
  EXPECT_EQ(skipped, 1u);

  // No valid snapshot at all: NotFound, not an error recovery can't tell
  // apart from real damage.
  ASSERT_TRUE(dir.Remove(newest_path).ok());
  ASSERT_TRUE(dir.Remove("data/" + SnapshotFileName(1, 100)).ok());
  loaded = LoadNewestSnapshot(&dir, "data");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, WriteIsCrashAtomic) {
  // Crash between the temp write and the rename: the directory reverts to
  // its durable table and no half-written snapshot is visible.
  leakdet::testing::ScriptedDir dir;
  ASSERT_TRUE(dir.CreateDir("data").ok());
  SnapshotContents snapshot = TestSnapshot();
  ASSERT_TRUE(WriteSnapshotFile(&dir, "data", snapshot).ok());
  ASSERT_TRUE(dir.SyncDir("data").ok());

  // Start a second snapshot write by hand, stopping before the rename.
  SnapshotContents next = TestSnapshot();
  next.feed_version = 9;
  const std::string tmp = "data/." + SnapshotFileName(9, 1234) + ".tmp";
  auto file = dir.OpenAppend(tmp);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(SerializeSnapshot(next)).ok());
  dir.Crash();

  // The unrenamed temp file vanished; the completed snapshot survived.
  EXPECT_FALSE(dir.Exists(tmp));
  auto loaded = LoadNewestSnapshot(&dir, "data");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->feed_version, TestSnapshot().feed_version);
}

}  // namespace
}  // namespace leakdet::store
