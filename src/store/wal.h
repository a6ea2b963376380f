#ifndef LEAKDET_STORE_WAL_H_
#define LEAKDET_STORE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/packet.h"
#include "store/file.h"
#include "util/statusor.h"

namespace leakdet::store {

/// The two kinds of WAL record (the frame's type byte).
enum class RecordType : uint8_t {
  /// One (packet, verdict, feed-version) event the training path observed.
  kIngest = 1,
  /// The feed an epoch published, logged right after the ingest record
  /// whose retrain produced it.
  kPublish = 2,
};

/// One WAL record, in log order.
///
/// An ingest record is the tuple the gateway's training path observed, in
/// arrival order: `sequence` is its global position in the log (1-based,
/// contiguous) and `feed_version` the matcher epoch the verdict was produced
/// under.
///
/// A publish record takes no sequence of its own: it carries the sequence of
/// the ingest record before it, so sequences keep counting packets. Its
/// `feed_version`, `new_suspicious` and `signatures`
/// (match::SignatureSet::Serialize()) are the server's published epoch once
/// that record was ingested; the verdict fields and the packet are unused.
struct FeedRecord {
  RecordType type = RecordType::kIngest;
  uint64_t sequence = 0;
  uint64_t feed_version = 0;
  bool sensitive = false;
  uint32_t shard = 0;
  uint32_t num_matches = 0;
  core::HttpPacket packet;
  uint64_t new_suspicious = 0;
  std::string signatures;

  bool is_publish() const { return type == RecordType::kPublish; }
};

/// When the WAL writer makes appended records durable. Records are
/// *acknowledged as durable* only once covered by a successful sync; a crash
/// may lose any suffix of unacknowledged records but never an acknowledged
/// one (the crash-recovery differential tests enforce exactly this).
enum class SyncPolicy {
  kEveryRecord,  ///< fdatasync after every append (strongest, slowest)
  kEveryN,       ///< fdatasync after every `sync_every_n` appends
  kOnRotate,     ///< fdatasync only at segment rotation / explicit Sync()
};

StatusOr<SyncPolicy> ParseSyncPolicy(std::string_view name);
std::string_view SyncPolicyName(SyncPolicy policy);

struct WalOptions {
  SyncPolicy sync_policy = SyncPolicy::kEveryN;
  /// Group-commit size for kEveryN: records are staged in memory and written
  /// with one write() + one fdatasync() per batch. 256 records of typical
  /// feed traffic is a few tens of KB per commit — the sync cost amortizes
  /// to noise while the unacknowledged window stays well under a second of
  /// ingest.
  size_t sync_every_n = 256;
  /// Rotate to a new segment once the current one reaches this size.
  size_t segment_bytes = 4 << 20;
};

/// Segment files are named "wal-<id 20 digits>.log"; ids increase in
/// creation order (they are independent of record sequences so a recovered
/// writer can always start a fresh segment).
std::string SegmentFileName(uint64_t id);
bool ParseSegmentFileName(std::string_view name, uint64_t* id);

/// Record framing, shared by the writer, replay, and the leakdet_store
/// inspect/verify tooling:
///
///   +------------+-----------+--------+------------------+
///   | crc32c u32 | length u32| type u8| payload (length) |
///   +------------+-----------+--------+------------------+
///
/// little-endian, crc masked (util/crc32c.h) and covering type+payload.
/// The ingest-record payload (type 1) is
///
///   sequence u64 | feed_version u64 | sensitive u8 | shard u32 |
///   num_matches u32 | packet JSON (io::SerializePacketJson)
///
/// and the publish-record payload (type 2) is
///
///   sequence u64 | feed_version u64 | new_suspicious u64 | signature set
std::string FrameRecord(const FeedRecord& record);

/// Iterates framed records over one segment's raw bytes.
class RecordCursor {
 public:
  explicit RecordCursor(std::string_view data) : data_(data) {}

  /// The next record. NotFound at a clean end of data; OutOfRange when the
  /// remaining bytes are a truncated record (torn tail); Corruption on a CRC
  /// mismatch or malformed payload.
  StatusOr<FeedRecord> Next();

  /// Offset one past the last cleanly decoded record (the repair size for a
  /// torn tail).
  size_t offset() const { return offset_; }

 private:
  std::string_view data_;
  size_t offset_ = 0;
};

struct WalReplayStats {
  uint64_t segments = 0;         ///< segments scanned
  uint64_t records = 0;          ///< valid records seen (both types)
  uint64_t applied = 0;          ///< records delivered (sequence > after)
  uint64_t applied_bytes = 0;    ///< framed bytes of the delivered records
  uint64_t last_sequence = 0;    ///< highest valid sequence (0 = empty log)
  uint64_t truncated_bytes = 0;  ///< torn-tail bytes discarded
};

/// Replays every record with sequence > `after_sequence`, in order, into
/// `fn` (which may be null to scan only; it may move from the record). A
/// publish record carries the sequence of the ingest record before it, so
/// one whose ingest record is folded into `after_sequence` is skipped too.
/// An invalid tail in the *last* segment is a torn tail: it is skipped and,
/// when `repair` is set, truncated away on disk. Invalid bytes anywhere else
/// — or a sequence gap — are Corruption: the log is damaged beyond safe
/// replay.
StatusOr<WalReplayStats> ReplayWal(Dir* dir, const std::string& dirpath,
                                   uint64_t after_sequence,
                                   const std::function<Status(FeedRecord&)>& fn,
                                   bool repair);

/// Appends CRC-framed records across size-rotated segment files with group
/// commit: records are staged in an in-memory batch and reach the file in
/// one write() per sync point (or when the batch hits an internal flush
/// threshold), so an every-N policy costs one write + one fdatasync per N
/// records instead of N writes. Staged records are not yet in the live log —
/// a crash loses them — but they were never acknowledged either:
/// `durable_sequence()` only ever covers records that a successful flush AND
/// fdatasync both observed. Not thread-safe: one writer, externally
/// serialized (the gateway's single training thread). `durable_sequence()`
/// alone may be read from any thread.
class WalWriter {
 public:
  /// Creates a fresh segment after any existing ones. `next_sequence` is the
  /// sequence the next appended record receives (last recovered + 1).
  static StatusOr<std::unique_ptr<WalWriter>> Open(Dir* dir,
                                                   const std::string& dirpath,
                                                   uint64_t next_sequence,
                                                   const WalOptions& options);

  /// Best-effort flush of any staged batch (write only, no fdatasync); call
  /// Sync() before destruction for durability.
  ~WalWriter();

  /// Stages `record` and applies the sync policy. The staged frame carries
  /// an assigned sequence in place of `record.sequence`: the next sequence for an ingest record, the last one for a
  /// publish record (which needs an ingest record before it). On a write
  /// fault the segment tail is truncated back to the last flushed batch
  /// boundary and the whole staged batch is retried — immediately once, then
  /// again at the next flush point — so sequences never skip. Only an unrepairable tail (truncate/reopen failure) breaks
  /// the writer, which then refuses further appends. Flush and sync failures
  /// do not fail the append: the durable watermark simply does not advance
  /// (callers gate acknowledgement on it). Returns the assigned sequence.
  StatusOr<uint64_t> Append(const FeedRecord& record);

  /// Replication apply: appends `record` keeping its caller-assigned
  /// sequence, which must be exactly the one Append() would assign —
  /// followers mirror the leader's log, so a gap or rewind is
  /// InvalidArgument and nothing is written. Same durability/repair contract
  /// as Append().
  StatusOr<uint64_t> AppendReplicated(const FeedRecord& record);

  /// Writes any staged batch and forces an fdatasync, advancing the durable
  /// watermark past every record appended so far.
  Status Sync();

  uint64_t next_sequence() const { return next_sequence_; }

  /// Highest sequence acknowledged as durable (0 = none). Any thread.
  uint64_t durable_sequence() const {
    return durable_sequence_.load(std::memory_order_acquire);
  }

  /// Framed bytes staged by this writer so far (both record types).
  uint64_t bytes_appended() const { return bytes_appended_; }

  uint64_t segments_created() const { return segments_created_; }
  uint64_t segment_id() const { return segment_id_; }
  /// Flush faults repaired by truncate-to-boundary + retry.
  uint64_t append_repairs() const { return append_repairs_; }
  uint64_t sync_errors() const { return sync_errors_; }
  bool broken() const { return broken_; }

 private:
  WalWriter(Dir* dir, std::string dirpath, uint64_t next_sequence,
            const WalOptions& options)
      : dir_(dir),
        dirpath_(std::move(dirpath)),
        next_sequence_(next_sequence),
        options_(options) {}

  Status OpenSegment(uint64_t id);
  Status Rotate();
  /// Writes the staged batch to the segment (no fdatasync). On failure the
  /// batch stays staged for a later retry; see Append() for the repair
  /// contract.
  Status Flush();

  Dir* dir_;
  std::string dirpath_;
  uint64_t next_sequence_;
  WalOptions options_;

  std::unique_ptr<File> file_;
  std::string segment_path_;
  uint64_t segment_id_ = 0;
  size_t segment_size_ = 0;   ///< bytes of cleanly *flushed* records
  std::string pending_;       ///< staged frames not yet written
  size_t unsynced_records_ = 0;
  uint64_t bytes_appended_ = 0;
  std::atomic<uint64_t> durable_sequence_{0};
  uint64_t segments_created_ = 0;
  uint64_t append_repairs_ = 0;
  uint64_t sync_errors_ = 0;
  bool broken_ = false;
};

}  // namespace leakdet::store

#endif  // LEAKDET_STORE_WAL_H_
