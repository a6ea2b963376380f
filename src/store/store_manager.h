#ifndef LEAKDET_STORE_STORE_MANAGER_H_
#define LEAKDET_STORE_STORE_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "core/signature_server.h"
#include "obs/metrics.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace leakdet::store {

struct StoreOptions {
  WalOptions wal;
  /// Valid snapshots retained by Compact() (must be >= 1; the newest is
  /// never removed).
  size_t keep_snapshots = 2;
  /// Metrics destination for store.* counters/histograms and the WAL
  /// watermark gauges. nullptr = obs::Registry::Default(); serving binaries
  /// pass the same registry the gateway and admin server share.
  obs::Registry* registry = nullptr;
};

/// One data directory of durable trainer state: "wal-*.log" segments plus
/// "snap-*.snap" checkpoints (full snapshots of the server). The gateway's
/// training path appends every (packet, verdict, feed-version) tuple before
/// ingesting it and logs a publish record after every published epoch; a
/// checkpoint is written only when the log has grown as large as the newest
/// one (see WriteSnapshot). On restart it recovers in the
/// serve-before-replay order:
///
///   1. load the newest valid checkpoint and Restore() it into the
///      SignatureServer — the feed observer republishes its epoch at once;
///   2. scan the WAL suffix (sequence > checkpoint.last_sequence) once: the
///      ingest records up to the last publish record P only refill the
///      pools, then P's epoch is installed (the observer fires once more);
///   3. replay the records after P through Ingest(), re-running only the
///      retrains whose publish record the crash lost;
///   4. segments fully folded into a checkpoint become eligible for
///      Compact().
///
/// Same threading contract as SignatureServer: one training thread, except
/// durable_sequence() which any thread may poll.
class StoreManager {
 public:
  /// Opens (creating if needed) the data directory, repairs any torn WAL
  /// tail, and positions the writer after the last valid record (or after
  /// the newest checkpoint, if compaction folded the whole log into it).
  /// Does not touch a SignatureServer — call Recover() next.
  static StatusOr<std::unique_ptr<StoreManager>> Open(
      Dir* dir, const std::string& dirpath, const StoreOptions& options);

  struct RecoveryStats {
    bool snapshot_loaded = false;
    uint64_t snapshot_version = 0;
    uint64_t snapshot_sequence = 0;
    size_t snapshots_skipped = 0;  ///< damaged snapshots passed over
    /// Publish records past the checkpoint: epochs recovered without
    /// retraining (the last one is installed).
    uint64_t epochs_installed = 0;
    /// Ingest records past the last publish record, replayed through
    /// Ingest().
    uint64_t records_replayed = 0;
    /// Retrains those replayed records re-ran.
    uint64_t epochs_retrained = 0;
    WalReplayStats replay;
  };

  /// Serve-before-replay recovery into `server` (see class comment). The
  /// server's feed observer should already be installed so the restored
  /// epochs and any replayed retrains publish. Corruption if the log has a
  /// gap between the checkpoint and its first surviving record.
  StatusOr<RecoveryStats> Recover(core::SignatureServer* server);

  /// Appends one feed event (sequence assigned; verdict fields already set
  /// by the caller). Returns the assigned sequence. Durability follows the
  /// WAL sync policy — gate acknowledgement on durable_sequence().
  StatusOr<uint64_t> Append(const FeedRecord& record);

  /// Replication apply: appends a record shipped from a leader's log,
  /// keeping its sequence. The record must continue this store's log exactly
  /// (sequence == last_sequence() + 1); anything else is rejected without a
  /// write, so a follower's log stays a prefix-mirror of its leader's.
  StatusOr<uint64_t> AppendReplicated(const FeedRecord& record);

  /// Installs a snapshot shipped from a leader (already parsed — i.e.
  /// digest-verified) as this store's newest checkpoint. The local log must
  /// already cover it (`snapshot.last_sequence <= last_sequence()`):
  /// recovery replays the WAL suffix past the snapshot, so installing one
  /// ahead of the local log would open an unfillable gap. Crash-atomic like
  /// a checkpoint; syncs the WAL first for the same reason.
  Status InstallSnapshot(const SnapshotContents& snapshot);

  /// Forces the WAL durable (e.g. on shutdown).
  Status Sync();

  /// Highest sequence acknowledged as durable. Any thread.
  uint64_t durable_sequence() const { return writer_->durable_sequence(); }

  /// Sequence of the last record appended (== last ingested in the
  /// training flow, which appends before it ingests).
  uint64_t last_sequence() const { return writer_->next_sequence() - 1; }

  /// Makes the server's current state durable at last_sequence(); called
  /// by the trainer after every publish. The cost is O(feed), not O(pool):
  /// it appends a publish record (feed version, since-last-retrain counter,
  /// serialized signature set) and syncs the WAL, which then holds
  /// everything recovery needs. A full checkpoint (pools, counters, feed
  /// and build parameters, the snap-*.snap format) is written as well, after
  /// the sync, only when one is due:
  ///   - this store has no checkpoint yet;
  ///   - the server's state did not come from this store's log: a server
  ///     this store did not Recover() into, or one Restore()d since (its
  ///     restore_generation() moved). No publish record is logged then, as
  ///     the log does not describe that state;
  ///   - the WAL bytes appended since the newest checkpoint reach that
  ///     checkpoint's file size. That keeps checkpoint I/O no larger than
  ///     the log's own and bounds recovery to about one checkpoint's worth
  ///     of records.
  /// A log without records has nothing to attach a publish record to, so it
  /// always checkpoints.
  Status WriteSnapshot(const core::SignatureServer& server);

  struct CompactStats {
    uint64_t segments_removed = 0;
    uint64_t snapshots_removed = 0;
  };

  /// Removes WAL segments whose records are all folded into the newest
  /// valid checkpoint (never the active segment) and all but the
  /// `keep_snapshots` newest valid checkpoints. Safe to call any time on the
  /// training thread; a no-op without a checkpoint. Failures are counted in
  /// store.compact_errors.
  ///
  /// Runs on the publish path (trainer calls it after every WriteSnapshot),
  /// so it returns at once, without listing the directory, unless a
  /// checkpoint was written or installed since it last ran. Otherwise it
  /// avoids re-reading the directory's contents: the checkpoint just
  /// written, checkpoints already digest-verified once, and the per-segment
  /// sequence ranges of closed segments are all remembered in-memory,
  /// leaving only the directory listing and the unlinks.
  StatusOr<CompactStats> Compact();

  const WalWriter& writer() const { return *writer_; }

 private:
  StoreManager(Dir* dir, std::string dirpath, StoreOptions options);

  /// Mirrors the writer's training-thread-only counters (next_sequence,
  /// segment ids, repair counts) into atomic gauges, so /statusz renderers
  /// on the admin thread never touch WalWriter state that isn't atomic.
  void RefreshWalGauges();

  /// Appends through the writer with the append metrics, and counts the
  /// framed bytes toward the next checkpoint.
  StatusOr<uint64_t> AppendToWal(const FeedRecord& record, bool replicated);

  /// Writes the full checkpoint of `server` (whose serialized feed is
  /// `signatures`) at last_sequence() and makes it the newest one.
  Status WriteCheckpoint(const core::SignatureServer& server,
                         std::string_view signatures);

  /// Records the checkpoint file `name` (`bytes` long, covering
  /// `sequence`) as the newest one; the log since it starts empty.
  void NoteCheckpoint(const std::string& name, uint64_t sequence,
                      uint64_t feed_version, uint64_t bytes);

  /// Compact()'s directory pass.
  StatusOr<CompactStats> CompactDirectory();

  Dir* dir_;
  std::string dirpath_;
  StoreOptions options_;
  std::unique_ptr<WalWriter> writer_;
  WalReplayStats open_scan_;  ///< what Open() found on disk

  // Publish-path caches (training thread only, like everything above).
  std::string newest_snapshot_name_;  ///< newest known-valid checkpoint
  uint64_t newest_snapshot_covered_ = 0;
  uint64_t newest_snapshot_bytes_ = 0;  ///< its file size (0 = none known)
  uint64_t wal_bytes_since_checkpoint_ = 0;
  /// The server whose state this store's log describes, and the
  /// restore_generation() it had then (set by Recover and WriteSnapshot).
  const core::SignatureServer* logged_server_ = nullptr;
  uint64_t logged_generation_ = 0;
  /// A checkpoint was written or installed since Compact() last ran (true
  /// after Open, so a maintenance-only compaction still runs).
  bool compact_due_ = true;
  std::set<std::string> valid_snapshots_;  ///< digest-verified at least once
  /// id -> last record sequence for *closed* segments (immutable once
  /// rotated away from); filled when this writer rotates away from one, or
  /// the first time Compact reads one a previous process wrote.
  std::map<uint64_t, uint64_t> segment_last_sequence_;

  // store.* observability (histograms/counters updated on the training
  // thread; gauges are the atomic mirror any thread may read).
  obs::Registry* registry_ = nullptr;
  obs::Histogram* append_ns_ = nullptr;
  obs::Histogram* sync_ns_ = nullptr;
  obs::Histogram* snapshot_write_ns_ = nullptr;
  obs::Counter* appends_ = nullptr;
  obs::Counter* append_errors_ = nullptr;
  obs::Counter* syncs_ = nullptr;
  obs::Counter* sync_errors_ = nullptr;
  obs::Counter* snapshots_written_ = nullptr;
  obs::Counter* snapshot_errors_ = nullptr;
  obs::Counter* publish_records_ = nullptr;
  obs::Counter* checkpoints_written_ = nullptr;
  obs::Counter* compactions_ = nullptr;
  obs::Counter* compact_errors_ = nullptr;
  obs::Counter* segments_removed_ = nullptr;
  obs::Counter* snapshots_removed_ = nullptr;
  obs::Gauge* last_sequence_gauge_ = nullptr;
  obs::Gauge* durable_sequence_gauge_ = nullptr;
  obs::Gauge* segment_id_gauge_ = nullptr;
  obs::Gauge* segments_created_gauge_ = nullptr;
  obs::Gauge* append_repairs_gauge_ = nullptr;
  obs::Gauge* snapshot_version_gauge_ = nullptr;
  obs::Gauge* wal_bytes_since_checkpoint_gauge_ = nullptr;
};

/// One audit line of the build parameters behind an epoch ("k=v k=v ...");
/// stored in every snapshot so an operator can see exactly how the
/// recovered matcher was built.
std::string DescribeBuildParams(const core::SignatureServer::Options& options);

}  // namespace leakdet::store

#endif  // LEAKDET_STORE_STORE_MANAGER_H_
