#include "store/wal.h"

#include <algorithm>
#include <cstdio>

#include "io/trace_io.h"
#include "util/crc32c.h"

namespace leakdet::store {

namespace {

constexpr size_t kFrameHeaderBytes = 9;   // crc u32 + length u32 + type u8
constexpr size_t kPayloadHeaderBytes = 25;  // seq + version + flags
constexpr size_t kPublishHeaderBytes = 24;  // seq + version + new_suspicious
constexpr size_t kMaxRecordBytes = 64u << 20;
// Staged-batch write threshold: a lazy sync policy (on-rotate, huge N) still
// writes in bounded chunks instead of holding a whole segment in memory.
constexpr size_t kFlushBytes = 256u << 10;

void PutU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v & 0xFFFFFFFFu), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

uint32_t GetU32(std::string_view data, size_t pos) {
  return static_cast<uint32_t>(static_cast<uint8_t>(data[pos])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(data[pos + 1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(data[pos + 2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(data[pos + 3])) << 24);
}

uint64_t GetU64(std::string_view data, size_t pos) {
  return static_cast<uint64_t>(GetU32(data, pos)) |
         (static_cast<uint64_t>(GetU32(data, pos + 4)) << 32);
}

StatusOr<FeedRecord> DecodePublishPayload(std::string_view payload) {
  if (payload.size() < kPublishHeaderBytes) {
    return Status::Corruption("WAL publish record payload too short");
  }
  FeedRecord record;
  record.type = RecordType::kPublish;
  record.sequence = GetU64(payload, 0);
  record.feed_version = GetU64(payload, 8);
  record.new_suspicious = GetU64(payload, 16);
  record.signatures = std::string(payload.substr(kPublishHeaderBytes));
  return record;
}

StatusOr<FeedRecord> DecodePayload(std::string_view payload) {
  if (payload.size() < kPayloadHeaderBytes) {
    return Status::Corruption("WAL record payload too short");
  }
  FeedRecord record;
  record.sequence = GetU64(payload, 0);
  record.feed_version = GetU64(payload, 8);
  record.sensitive = payload[16] != 0;
  record.shard = GetU32(payload, 17);
  record.num_matches = GetU32(payload, 21);
  StatusOr<core::HttpPacket> packet =
      io::ParsePacketJson(payload.substr(kPayloadHeaderBytes));
  if (!packet.ok()) {
    return Status::Corruption("WAL record packet: " +
                              packet.status().message());
  }
  record.packet = std::move(*packet);
  return record;
}

}  // namespace

StatusOr<SyncPolicy> ParseSyncPolicy(std::string_view name) {
  if (name == "every-record") return SyncPolicy::kEveryRecord;
  if (name == "every-n") return SyncPolicy::kEveryN;
  if (name == "on-rotate") return SyncPolicy::kOnRotate;
  return Status::InvalidArgument("unknown sync policy: " + std::string(name));
}

std::string_view SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kEveryRecord: return "every-record";
    case SyncPolicy::kEveryN: return "every-n";
    case SyncPolicy::kOnRotate: return "on-rotate";
  }
  return "unknown";
}

std::string SegmentFileName(uint64_t id) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(id));
  return buf;
}

bool ParseSegmentFileName(std::string_view name, uint64_t* id) {
  if (name.size() != 4 + 20 + 4 || name.substr(0, 4) != "wal-" ||
      name.substr(24) != ".log") {
    return false;
  }
  uint64_t value = 0;
  for (char c : name.substr(4, 20)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

namespace {

/// Encodes one frame of `record`, carrying `sequence` in place of
/// `record.sequence`, directly onto `*out` (no intermediate payload/frame
/// strings — this runs per record on the gateway's hot training path). The
/// 9-byte header is reserved up front and backpatched once the payload size
/// and CRC are known.
void AppendFrame(const FeedRecord& record, uint64_t sequence,
                 std::string* out) {
  const size_t head = out->size();
  out->append(8, '\0');  // crc u32 + length u32; type starts the covered part
  out->push_back(static_cast<char>(record.type));
  PutU64(sequence, out);
  PutU64(record.feed_version, out);
  if (record.is_publish()) {
    PutU64(record.new_suspicious, out);
    out->append(record.signatures);
  } else {
    out->push_back(record.sensitive ? 1 : 0);
    PutU32(record.shard, out);
    PutU32(record.num_matches, out);
    io::AppendPacketJson(record.packet, out);
  }

  std::string_view covered = std::string_view(*out).substr(head + 8);
  const uint32_t masked = Crc32cMask(Crc32c(covered));
  const uint32_t length = static_cast<uint32_t>(covered.size() - 1);
  for (int i = 0; i < 4; ++i) {
    (*out)[head + i] = static_cast<char>((masked >> (8 * i)) & 0xFF);
    (*out)[head + 4 + i] = static_cast<char>((length >> (8 * i)) & 0xFF);
  }
}

}  // namespace

std::string FrameRecord(const FeedRecord& record) {
  std::string frame;
  AppendFrame(record, record.sequence, &frame);
  return frame;
}

StatusOr<FeedRecord> RecordCursor::Next() {
  if (offset_ == data_.size()) return Status::NotFound("end of segment");
  if (data_.size() - offset_ < kFrameHeaderBytes) {
    return Status::OutOfRange("truncated record header");
  }
  uint32_t expected_crc = Crc32cUnmask(GetU32(data_, offset_));
  uint32_t length = GetU32(data_, offset_ + 4);
  if (length > kMaxRecordBytes) {
    return Status::Corruption("implausible WAL record length");
  }
  if (data_.size() - offset_ - kFrameHeaderBytes < length) {
    return Status::OutOfRange("truncated record payload");
  }
  std::string_view covered = data_.substr(offset_ + 8, 1 + length);
  if (Crc32c(covered) != expected_crc) {
    return Status::Corruption("WAL record CRC mismatch");
  }
  StatusOr<FeedRecord> record = Status::Corruption("unknown WAL record type");
  switch (static_cast<RecordType>(covered[0])) {
    case RecordType::kIngest:
      record = DecodePayload(covered.substr(1));
      break;
    case RecordType::kPublish:
      record = DecodePublishPayload(covered.substr(1));
      break;
  }
  if (!record.ok()) return record.status();
  offset_ += kFrameHeaderBytes + length;
  return record;
}

StatusOr<WalReplayStats> ReplayWal(Dir* dir, const std::string& dirpath,
                                   uint64_t after_sequence,
                                   const std::function<Status(FeedRecord&)>& fn,
                                   bool repair) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names, dir->List(dirpath));
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t id = 0;
    if (ParseSegmentFileName(name, &id)) segments.emplace_back(id, name);
  }
  std::sort(segments.begin(), segments.end());

  WalReplayStats stats;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string path = dirpath + "/" + segments[i].second;
    LEAKDET_ASSIGN_OR_RETURN(std::string data, dir->Read(path));
    RecordCursor cursor(data);
    ++stats.segments;
    while (true) {
      const size_t start = cursor.offset();
      StatusOr<FeedRecord> record = cursor.Next();
      if (!record.ok()) {
        if (record.status().code() == StatusCode::kNotFound) break;
        // Invalid bytes: a torn tail if (and only if) this is the newest
        // segment — anything earlier is mid-log damage.
        if (i + 1 != segments.size()) {
          return Status::Corruption("WAL segment " + segments[i].second +
                                    " damaged mid-log: " +
                                    record.status().message());
        }
        uint64_t torn = data.size() - cursor.offset();
        stats.truncated_bytes += torn;
        if (repair && torn > 0) {
          LEAKDET_RETURN_IF_ERROR(dir->Truncate(path, cursor.offset()));
        }
        break;
      }
      // An ingest record continues the sequence; a publish record repeats
      // the sequence of the ingest record before it. Either may open the
      // log when compaction retired everything before it.
      const uint64_t expected =
          stats.last_sequence + (record->is_publish() ? 0 : 1);
      if (stats.last_sequence != 0 && record->sequence != expected) {
        return Status::Corruption("WAL sequence gap in " + segments[i].second);
      }
      stats.last_sequence = record->sequence;
      ++stats.records;
      if (record->sequence > after_sequence) {
        ++stats.applied;
        stats.applied_bytes += cursor.offset() - start;
        if (fn) LEAKDET_RETURN_IF_ERROR(fn(*record));
      }
    }
  }
  return stats;
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(Dir* dir,
                                                     const std::string& dirpath,
                                                     uint64_t next_sequence,
                                                     const WalOptions& options) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names, dir->List(dirpath));
  uint64_t max_id = 0;
  for (const std::string& name : names) {
    uint64_t id = 0;
    if (ParseSegmentFileName(name, &id)) max_id = std::max(max_id, id);
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, dirpath, next_sequence, options));
  if (writer->options_.sync_every_n == 0) writer->options_.sync_every_n = 1;
  LEAKDET_RETURN_IF_ERROR(writer->OpenSegment(max_id + 1));
  return writer;
}

Status WalWriter::OpenSegment(uint64_t id) {
  const std::string path = dirpath_ + "/" + SegmentFileName(id);
  LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<File> file, dir_->OpenAppend(path));
  // Make the segment's name durable before any record is acknowledged out
  // of it — fdatasync alone does not persist a fresh directory entry.
  LEAKDET_RETURN_IF_ERROR(dir_->SyncDir(dirpath_));
  file_ = std::move(file);
  segment_path_ = path;
  segment_id_ = id;
  segment_size_ = 0;
  ++segments_created_;
  return Status::OK();
}

WalWriter::~WalWriter() {
  // Clean-shutdown courtesy: whatever is staged reaches the file (no
  // fdatasync — durability still requires an explicit Sync() first).
  if (!broken_ && file_ != nullptr) Flush();
}

Status WalWriter::Rotate() {
  // A segment may only be followed by another segment once its tail is
  // clean and durable; a failed sync therefore aborts the rotation (the
  // writer keeps appending to the oversized segment and retries later).
  LEAKDET_RETURN_IF_ERROR(Sync());
  file_->Close();
  Status status = OpenSegment(segment_id_ + 1);
  if (!status.ok()) broken_ = true;
  return status;
}

Status WalWriter::Flush() {
  if (pending_.empty()) return Status::OK();
  Status status = file_->Append(pending_);
  if (!status.ok()) {
    // The tail now holds an unknown prefix of the batch. Repair: truncate
    // back to the last flushed record boundary and retry the whole batch
    // once on the clean tail. Either way the batch stays staged, so a later
    // flush point retries it again — a record whose write faulted is delayed,
    // never skipped.
    ++append_repairs_;
    file_->Close();
    Status repair = dir_->Truncate(segment_path_, segment_size_);
    if (!repair.ok()) {
      broken_ = true;
      return status;
    }
    StatusOr<std::unique_ptr<File>> reopened = dir_->OpenAppend(segment_path_);
    if (!reopened.ok()) {
      broken_ = true;
      return status;
    }
    file_ = std::move(*reopened);
    status = file_->Append(pending_);
    if (!status.ok()) {
      file_->Close();
      if (!dir_->Truncate(segment_path_, segment_size_).ok() ||
          !(reopened = dir_->OpenAppend(segment_path_)).ok()) {
        broken_ = true;
      } else {
        file_ = std::move(*reopened);
      }
      return status;
    }
  }
  segment_size_ += pending_.size();
  pending_.clear();
  return Status::OK();
}

StatusOr<uint64_t> WalWriter::AppendReplicated(const FeedRecord& record) {
  // A replica's log must stay a byte-for-byte prefix-mirror of its leader's
  // sequence space: accept exactly the next expected record, nothing else.
  const uint64_t expected =
      record.is_publish() ? next_sequence_ - 1 : next_sequence_;
  if (record.sequence != expected) {
    return Status::InvalidArgument(
        "replicated record sequence " + std::to_string(record.sequence) +
        " does not continue the log (expected " +
        std::to_string(expected) + ")");
  }
  return Append(record);
}

StatusOr<uint64_t> WalWriter::Append(const FeedRecord& record) {
  if (broken_) {
    return Status::FailedPrecondition("WAL writer is broken (unrepaired tail)");
  }
  if (record.is_publish() && next_sequence_ == 1) {
    return Status::FailedPrecondition(
        "a publish record needs an ingest record before it");
  }
  if (segment_size_ + pending_.size() >= options_.segment_bytes) {
    Rotate();  // on failure: stay on the oversized segment (see Rotate)
    if (broken_) {
      return Status::FailedPrecondition("WAL rotation failed; writer broken");
    }
  }
  const size_t staged = pending_.size();
  const uint64_t sequence =
      record.is_publish() ? next_sequence_ - 1 : next_sequence_;
  AppendFrame(record, sequence, &pending_);
  if (!record.is_publish()) ++next_sequence_;
  bytes_appended_ += pending_.size() - staged;
  ++unsynced_records_;

  // Group commit: the staged batch reaches the file in one write() at the
  // policy's sync points (plus a size backstop), not one write per record.
  // Flush and sync failures do not fail the append — the staged records are
  // retried at the next flush point and the durable watermark simply does
  // not advance (callers gate acknowledgement on it).
  if (options_.sync_policy == SyncPolicy::kEveryRecord ||
      (options_.sync_policy == SyncPolicy::kEveryN &&
       unsynced_records_ >= options_.sync_every_n)) {
    Sync();
  } else if (pending_.size() >= kFlushBytes) {
    Flush();
  }
  if (broken_) {
    return Status::FailedPrecondition("WAL writer is broken (unrepaired tail)");
  }
  return sequence;
}

Status WalWriter::Sync() {
  if (broken_) {
    return Status::FailedPrecondition("WAL writer is broken (unrepaired tail)");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL writer has no open segment");
  }
  if (pending_.empty() && unsynced_records_ == 0 && next_sequence_ > 1 &&
      durable_sequence_.load(std::memory_order_relaxed) == next_sequence_ - 1) {
    return Status::OK();
  }
  Status status = Flush();
  if (!status.ok()) {
    ++sync_errors_;
    return status;
  }
  status = file_->Sync();
  if (!status.ok()) {
    ++sync_errors_;
    return status;
  }
  uint64_t durable = next_sequence_ - 1;
  if (durable > durable_sequence_.load(std::memory_order_relaxed)) {
    durable_sequence_.store(durable, std::memory_order_release);
  }
  unsynced_records_ = 0;
  return Status::OK();
}

}  // namespace leakdet::store
