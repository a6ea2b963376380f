#ifndef LEAKDET_CLUSTER_REPLICATION_H_
#define LEAKDET_CLUSTER_REPLICATION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/file.h"
#include "store/wal.h"
#include "util/statusor.h"

namespace leakdet::cluster {

/// The replication log's wire payload: a contiguous run of CRC-framed WAL
/// records (store::FrameRecord framing, exactly the on-disk format), starting
/// at the first sequence > `after`. A follower applies it with
/// StoreManager::AppendReplicated, so its log becomes a byte-equivalent
/// mirror of the leader's record stream. Publish records ride along with the
/// ingest record they follow. One the leader logs after a follower already
/// fetched its ingest record is not shipped later: the follower's recovery
/// then re-runs that one retrain instead of installing it.
struct WalBatch {
  /// Records included: ingest records in ascending contiguous sequences,
  /// each publish record right after the ingest record it follows.
  std::vector<store::FeedRecord> records;
  /// Sequence of the last included record; == `after` when empty. A follower
  /// refetches from here until it receives an empty batch (batches may be cut
  /// at the size limit).
  uint64_t last_sequence = 0;
};

/// Reads the leader's WAL suffix (sequence > `after_sequence`) from its data
/// directory and frames it for the wire, including at most `max_records`
/// ingest records (0 = unlimited). Only cleanly flushed bytes are visible —
/// the leader syncs its store before serving a replication round, so the
/// batch never lags what the leader has acknowledged. `last_included` (optional) receives the final
/// sequence shipped.
StatusOr<std::string> BuildWalBatchPayload(store::Dir* dir,
                                           const std::string& dirpath,
                                           uint64_t after_sequence,
                                           size_t max_records = 0,
                                           uint64_t* last_included = nullptr);

/// Decodes a wire payload back into records. `after_sequence` is the
/// follower's current log position: the first ingest record must carry
/// exactly after_sequence + 1, every subsequent one must be contiguous, and
/// a publish record must repeat the sequence before it.
///
/// This parser faces the network, so every malformed input — torn frame,
/// CRC mismatch, bad payload, sequence gap or rewind — returns Corruption
/// (never crashes; it is a fuzz target). The transport's X-Feed-Digest
/// normally catches damage first; this is the second, independent line.
StatusOr<WalBatch> ParseWalBatch(std::string_view payload,
                                 uint64_t after_sequence);

}  // namespace leakdet::cluster

#endif  // LEAKDET_CLUSTER_REPLICATION_H_
