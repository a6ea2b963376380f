#ifndef LEAKDET_STORE_SNAPSHOT_H_
#define LEAKDET_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/packet.h"
#include "store/file.h"
#include "util/statusor.h"

namespace leakdet::store {

/// A point-in-time image of the trainer's durable state, written whenever a
/// new signature epoch is published. It captures everything recovery needs
/// to republish the *exact* matcher that was serving — the serialized
/// signature set plus the training pools and counters — so a restart serves
/// the pre-crash epoch immediately and replays only the WAL suffix past
/// `last_sequence`.
struct SnapshotContents {
  uint64_t feed_version = 0;
  /// WAL records with sequence <= this are folded into the snapshot.
  uint64_t last_sequence = 0;
  /// SignatureServer's since-last-retrain counter.
  uint64_t new_suspicious = 0;
  /// Build parameters of the epoch (one audit line: "k=v k=v ...").
  std::string params;
  /// match::SignatureSet::Serialize() of the published set.
  std::string signatures;
  /// The server's retained training pools (restored verbatim so replayed
  /// retrains sample exactly what the no-crash run would have sampled).
  std::vector<core::HttpPacket> suspicious;
  std::vector<core::HttpPacket> normal;
};

/// The fields of a snapshot, borrowed instead of owned: StoreManager points
/// the pools at the live server's vectors, so a snapshot is serialized
/// without copying them. Both pool pointers must be set. Converts from
/// SnapshotContents the way std::string_view converts from std::string.
struct SnapshotView {
  SnapshotView() = default;
  SnapshotView(const SnapshotContents& snapshot);  // NOLINT(runtime/explicit)

  uint64_t feed_version = 0;
  uint64_t last_sequence = 0;
  uint64_t new_suspicious = 0;
  std::string_view params;
  std::string_view signatures;
  const std::vector<core::HttpPacket>* suspicious = nullptr;
  const std::vector<core::HttpPacket>* normal = nullptr;
};

/// Text header + digest-protected body:
///
///   leakdet-snapshot v1
///   feed_version <u64>
///   last_sequence <u64>
///   new_suspicious <u64>
///   params <free text>
///   sections <signature bytes> <suspicious bytes> <normal bytes>
///   digest <40-hex SHA-1 over the whole file minus this line>
///   ---
///   <signature set><suspicious JSONL><normal JSONL>
std::string SerializeSnapshot(const SnapshotContents& snapshot);

/// Parses and digest-verifies the SerializeSnapshot format.
StatusOr<SnapshotContents> ParseSnapshot(std::string_view text);

/// "snap-<version 20 digits>-<sequence 20 digits>.snap" — sorts by version.
std::string SnapshotFileName(uint64_t feed_version, uint64_t last_sequence);
bool ParseSnapshotFileName(std::string_view name, uint64_t* feed_version,
                           uint64_t* last_sequence);

/// Writes `snapshot` crash-atomically into `dirpath`: temp file in the same
/// directory, fsync, rename to its final name, directory fsync. A crash at
/// any point leaves the previous snapshots intact. The file holds exactly
/// SerializeSnapshot(snapshot), written as header then body, so the body is
/// never copied. Returns the file's size in bytes.
StatusOr<uint64_t> WriteSnapshotFile(Dir* dir, const std::string& dirpath,
                                     const SnapshotView& snapshot);

/// Loads the newest snapshot that parses and digest-verifies, skipping
/// damaged ones (recovery must fall back, not fail, when the latest write
/// was interrupted). NotFound if no valid snapshot exists. When `file_name`
/// is non-null it receives the chosen file's name; `skipped` (optional)
/// counts invalid candidates that were passed over.
StatusOr<SnapshotContents> LoadNewestSnapshot(Dir* dir,
                                              const std::string& dirpath,
                                              std::string* file_name = nullptr,
                                              size_t* skipped = nullptr);

/// The newest valid snapshot's raw serialized bytes (digest-verified before
/// returning, same fallback-over-damage policy as LoadNewestSnapshot).
/// Replication ships these bytes verbatim so a follower installs a
/// byte-identical copy of the leader's snapshot. NotFound if none exists.
StatusOr<std::string> ReadNewestSnapshotRaw(Dir* dir,
                                            const std::string& dirpath,
                                            std::string* file_name = nullptr);

}  // namespace leakdet::store

#endif  // LEAKDET_STORE_SNAPSHOT_H_
