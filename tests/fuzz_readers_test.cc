// Seeded fuzz tests (ctest label: fuzz) for the three readers that face
// bytes from outside the process: federation shard exports (cross-tenant
// wire text), store snapshots (disk after a crash), and WAL record frames
// (both the on-disk segments and the /replog replication payload). Contract
// under fuzz: never crash, never hang, never accept damage silently where a
// digest/CRC covers it — damage surfaces as a clean Corruption or
// InvalidArgument. Replays the checked-in corpus under tests/fuzz/ first,
// then seeded random and mutation sweeps (LEAKDET_TEST_SEED overrides).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/replication.h"
#include "federation/merge.h"
#include "match/signature.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "test_seed.h"
#include "util/rng.h"

#ifndef LEAKDET_FUZZ_CORPUS_DIR
#define LEAKDET_FUZZ_CORPUS_DIR "tests/fuzz"
#endif

namespace leakdet {
namespace {

std::string ReadCorpus(const std::string& name) {
  const std::string path = std::string(LEAKDET_FUZZ_CORPUS_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = rng->UniformInt(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>(rng->UniformInt(256));
  }
  return s;
}

void ExpectCleanParseError(const Status& status, const std::string& what) {
  EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
              status.code() == StatusCode::kInvalidArgument)
      << what << ": " << status.ToString();
  EXPECT_FALSE(status.message().empty()) << what;
}

// ---------------------------------------------------------------- exports

TEST(FuzzShardExport, CorpusReplays) {
  auto valid = federation::ParseShardExport(ReadCorpus("shard_export_valid.seed"));
  ASSERT_TRUE(valid.ok()) << valid.status().message();
  EXPECT_EQ(valid->tenant, "tenant-a");
  EXPECT_EQ(valid->candidates.size(), 2u);
  EXPECT_FALSE(valid->witness.empty());
  // Accepted input must round-trip through its own serializer.
  auto again = federation::ParseShardExport(
      federation::SerializeShardExport(*valid));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->witness, valid->witness);

  auto truncated =
      federation::ParseShardExport(ReadCorpus("shard_export_truncated.seed"));
  ASSERT_FALSE(truncated.ok());
  ExpectCleanParseError(truncated.status(), "truncated export");

  auto header_only = federation::ParseShardExport(
      ReadCorpus("shard_export_header_only.seed"));
  ASSERT_FALSE(header_only.ok());
  ExpectCleanParseError(header_only.status(), "header-only export");

  // A flipped byte may land in hex armor (still decodable) — it must either
  // parse to a round-trippable export or fail cleanly, never crash.
  auto flipped =
      federation::ParseShardExport(ReadCorpus("shard_export_flipped.seed"));
  if (flipped.ok()) {
    EXPECT_TRUE(federation::ParseShardExport(
                    federation::SerializeShardExport(*flipped))
                    .ok());
  } else {
    ExpectCleanParseError(flipped.status(), "flipped export");
  }
}

TEST(FuzzShardExport, SurvivesRandomBytes) {
  const uint64_t seed = testing::TestSeed(0xFE0001);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto result = federation::ParseShardExport(RandomBytes(&rng, 300));
    if (result.ok()) ++accepted;
  }
  // Random bytes essentially never carry the versioned header.
  EXPECT_LT(accepted, 2);
}

TEST(FuzzShardExport, SurvivesMutationsOfValidInput) {
  const uint64_t seed = testing::TestSeed(0xFE0002);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::string valid = ReadCorpus("shard_export_valid.seed");
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    size_t flips = 1 + rng.UniformInt(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] =
          static_cast<char>(rng.UniformInt(256));
    }
    auto result = federation::ParseShardExport(mutated);  // must not crash
    if (result.ok()) {
      // Whatever is accepted must be self-consistent: its canonical
      // serialization parses back.
      EXPECT_TRUE(federation::ParseShardExport(
                      federation::SerializeShardExport(*result))
                      .ok());
    } else {
      ExpectCleanParseError(result.status(), "mutated export");
    }
  }
  // Truncation at every byte boundary.
  for (size_t cut = 0; cut < valid.size(); cut += 7) {
    federation::ParseShardExport(valid.substr(0, cut));
  }
}

// --------------------------------------------------------------- snapshots

TEST(FuzzSnapshot, CorpusReplays) {
  auto valid = store::ParseSnapshot(ReadCorpus("snapshot_valid.seed"));
  ASSERT_TRUE(valid.ok()) << valid.status().message();
  EXPECT_EQ(valid->feed_version, 3u);
  EXPECT_EQ(valid->last_sequence, 17u);
  EXPECT_EQ(valid->suspicious.size(), 4u);
  EXPECT_EQ(valid->normal.size(), 4u);

  auto truncated = store::ParseSnapshot(ReadCorpus("snapshot_truncated.seed"));
  ASSERT_FALSE(truncated.ok());
  ExpectCleanParseError(truncated.status(), "truncated snapshot");

  // The SHA-1 digest covers the whole file: one flipped bit anywhere is
  // detected, wherever it lands.
  auto flipped = store::ParseSnapshot(ReadCorpus("snapshot_flipped.seed"));
  ASSERT_FALSE(flipped.ok());
  ExpectCleanParseError(flipped.status(), "flipped snapshot");
}

TEST(FuzzSnapshot, SurvivesRandomBytes) {
  const uint64_t seed = testing::TestSeed(0xFE0003);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    auto result = store::ParseSnapshot(RandomBytes(&rng, 400));
    EXPECT_FALSE(result.ok());  // no digest, no acceptance
  }
}

TEST(FuzzSnapshot, EveryMutationOfValidInputIsDetected) {
  const uint64_t seed = testing::TestSeed(0xFE0004);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::string valid = ReadCorpus("snapshot_valid.seed");
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    const size_t pos = rng.UniformInt(mutated.size());
    const char replacement = static_cast<char>(rng.UniformInt(256));
    if (mutated[pos] == replacement) continue;  // not actually a mutation
    mutated[pos] = replacement;
    auto result = store::ParseSnapshot(mutated);
    ASSERT_FALSE(result.ok()) << "accepted a corrupted snapshot (byte " << pos
                              << ")";
    ExpectCleanParseError(result.status(), "mutated snapshot");
  }
  for (size_t cut = 0; cut < valid.size(); cut += 11) {
    EXPECT_FALSE(store::ParseSnapshot(valid.substr(0, cut)).ok());
  }
}

// -------------------------------------------------------------- WAL frames

// Drains a RecordCursor, asserting the error contract: any sequence of
// bytes ends in exactly one of clean-end (NotFound), torn tail
// (OutOfRange), or Corruption — never a crash, never an infinite loop.
Status DrainCursor(std::string_view bytes, size_t* records) {
  store::RecordCursor cursor(bytes);
  while (true) {
    auto record = cursor.Next();
    if (!record.ok()) return record.status();
    ++*records;
  }
}

TEST(FuzzWalFrames, CorpusReplays) {
  const std::string valid = ReadCorpus("wal_batch_valid.seed");
  size_t records = 0;
  Status end = DrainCursor(valid, &records);
  EXPECT_EQ(end.code(), StatusCode::kNotFound);
  EXPECT_EQ(records, 3u);
  // The same bytes are the replication wire payload.
  auto batch = cluster::ParseWalBatch(valid, 0);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  EXPECT_EQ(batch->records.size(), 3u);
  EXPECT_EQ(batch->last_sequence, 3u);

  records = 0;
  Status torn = DrainCursor(ReadCorpus("wal_batch_torn.seed"), &records);
  EXPECT_EQ(torn.code(), StatusCode::kOutOfRange);  // torn tail, 2 clean
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(cluster::ParseWalBatch(ReadCorpus("wal_batch_torn.seed"), 0)
                .status()
                .code(),
            StatusCode::kCorruption);  // the wire tolerates no tearing

  records = 0;
  Status flipped = DrainCursor(ReadCorpus("wal_batch_flipped.seed"), &records);
  EXPECT_TRUE(flipped.code() == StatusCode::kCorruption ||
              flipped.code() == StatusCode::kOutOfRange)
      << flipped.ToString();
  EXPECT_FALSE(
      cluster::ParseWalBatch(ReadCorpus("wal_batch_flipped.seed"), 0).ok());
}

TEST(FuzzWalFrames, SurvivesRandomBytes) {
  const uint64_t seed = testing::TestSeed(0xFE0005);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string bytes = RandomBytes(&rng, 300);
    size_t records = 0;
    Status end = DrainCursor(bytes, &records);
    EXPECT_FALSE(end.ok());
    cluster::ParseWalBatch(bytes, rng.UniformInt(5));  // must not crash
  }
}

TEST(FuzzWalFrames, SurvivesMutationsAndTruncationsOfValidFrames) {
  const uint64_t seed = testing::TestSeed(0xFE0006);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::string valid = ReadCorpus("wal_batch_valid.seed");
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    mutated[rng.UniformInt(mutated.size())] ^=
        static_cast<char>(1 + rng.UniformInt(255));
    // The frame CRC covers type + payload: a flipped byte can truncate the
    // usable prefix but never smuggles a damaged record through ParseWalBatch
    // as a full, valid batch of unchanged length.
    auto batch = cluster::ParseWalBatch(mutated, 0);
    if (batch.ok()) {
      EXPECT_LT(batch->records.size(), 3u) << "accepted a damaged batch";
    } else {
      ExpectCleanParseError(batch.status(), "mutated batch");
    }
    size_t records = 0;
    DrainCursor(mutated, &records);  // must terminate without crashing
  }
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    size_t records = 0;
    Status end = DrainCursor(valid.substr(0, cut), &records);
    EXPECT_TRUE(end.code() == StatusCode::kNotFound ||
                end.code() == StatusCode::kOutOfRange ||
                end.code() == StatusCode::kCorruption)
        << "cut=" << cut << ": " << end.ToString();
  }
}

// A log mixing both record types: ingest 1, ingest 2, the publish record
// for 2 (a real serialized signature set), ingest 3.
std::string MixedFrames() {
  std::string frames;
  for (uint64_t sequence = 1; sequence <= 3; ++sequence) {
    store::FeedRecord ingest;
    ingest.sequence = sequence;
    ingest.feed_version = 4;
    ingest.packet.cookie = "uid=42";
    ingest.packet.request_line = "GET /track?id=" + std::to_string(sequence);
    frames += store::FrameRecord(ingest);
    if (sequence != 2) continue;
    match::ConjunctionSignature signature;
    signature.id = "sig-0001";
    signature.tokens = {"imei=", "&aid="};
    signature.host_scope = "example.com";
    signature.cluster_size = 7;
    store::FeedRecord publish;
    publish.type = store::RecordType::kPublish;
    publish.sequence = sequence;
    publish.feed_version = 5;
    publish.new_suspicious = 3;
    publish.signatures = match::SignatureSet({signature}).Serialize();
    frames += store::FrameRecord(publish);
  }
  return frames;
}

TEST(FuzzWalFrames, PublishFramesRoundTripAndTravelWithTheirIngest) {
  const std::string valid = MixedFrames();
  store::RecordCursor cursor(valid);
  std::vector<store::FeedRecord> records;
  while (true) {
    auto record = cursor.Next();
    if (!record.ok()) {
      EXPECT_EQ(record.status().code(), StatusCode::kNotFound);
      break;
    }
    records.push_back(std::move(*record));
  }
  ASSERT_EQ(records.size(), 4u);
  const store::FeedRecord& publish = records[2];
  ASSERT_TRUE(publish.is_publish());
  EXPECT_EQ(publish.sequence, 2u);
  EXPECT_EQ(publish.feed_version, 5u);
  EXPECT_EQ(publish.new_suspicious, 3u);
  auto set = match::SignatureSet::Deserialize(publish.signatures);
  ASSERT_TRUE(set.ok()) << set.status().message();
  EXPECT_EQ(set->size(), 1u);

  auto batch = cluster::ParseWalBatch(valid, 0);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  EXPECT_EQ(batch->records.size(), 4u);
  EXPECT_EQ(batch->last_sequence, 3u);
  // A publish record must follow its own ingest record in the batch.
  EXPECT_FALSE(cluster::ParseWalBatch(store::FrameRecord(publish), 2).ok());
  EXPECT_FALSE(cluster::ParseWalBatch(valid, 1).ok());
}

TEST(FuzzWalFrames, PublishFramesSurviveMutationsAndTruncations) {
  const uint64_t seed = testing::TestSeed(0xFE0007);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::string valid = MixedFrames();
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    mutated[rng.UniformInt(mutated.size())] ^=
        static_cast<char>(1 + rng.UniformInt(255));
    auto batch = cluster::ParseWalBatch(mutated, 0);
    if (batch.ok()) {
      EXPECT_LT(batch->records.size(), 4u) << "accepted a damaged batch";
    } else {
      ExpectCleanParseError(batch.status(), "mutated batch");
    }
    size_t records = 0;
    Status end = DrainCursor(mutated, &records);
    EXPECT_FALSE(end.ok());
    EXPECT_LE(records, 4u);
  }
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    size_t records = 0;
    Status end = DrainCursor(valid.substr(0, cut), &records);
    EXPECT_TRUE(end.code() == StatusCode::kNotFound ||
                end.code() == StatusCode::kOutOfRange)
        << "cut=" << cut << ": " << end.ToString();
  }
}

}  // namespace
}  // namespace leakdet
