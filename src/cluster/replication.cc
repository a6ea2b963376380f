#include "cluster/replication.h"

namespace leakdet::cluster {

StatusOr<std::string> BuildWalBatchPayload(store::Dir* dir,
                                           const std::string& dirpath,
                                           uint64_t after_sequence,
                                           size_t max_records,
                                           uint64_t* last_included) {
  std::string payload;
  uint64_t last = after_sequence;
  size_t shipped = 0;
  auto collect = [&](const store::FeedRecord& record) -> Status {
    if (record.is_publish()) {
      // A publish record travels with the ingest record it follows; one
      // whose ingest record fell past the size cut waits for the next batch.
      if (record.sequence == last) payload += store::FrameRecord(record);
      return Status::OK();
    }
    if (max_records != 0 && shipped >= max_records) return Status::OK();
    payload += store::FrameRecord(record);
    last = record.sequence;
    ++shipped;
    return Status::OK();
  };
  // repair=false: serving a read must never rewrite the leader's log (the
  // writer owns tail repair). A torn tail here is just the not-yet-flushed
  // edge of the live segment and is skipped.
  LEAKDET_RETURN_IF_ERROR(
      ReplayWal(dir, dirpath, after_sequence, collect, /*repair=*/false)
          .status());
  if (last_included != nullptr) *last_included = last;
  return payload;
}

StatusOr<WalBatch> ParseWalBatch(std::string_view payload,
                                 uint64_t after_sequence) {
  WalBatch batch;
  batch.last_sequence = after_sequence;
  store::RecordCursor cursor(payload);
  while (true) {
    StatusOr<store::FeedRecord> record = cursor.Next();
    if (!record.ok()) {
      if (record.status().code() == StatusCode::kNotFound) break;  // clean end
      // Torn frame (OutOfRange) and CRC/payload damage both mean the wire
      // bytes are not a faithful copy of the leader's log: one verdict, so
      // the caller's retry logic has a single corruption path to handle.
      return Status::Corruption("wal batch damaged at offset " +
                                std::to_string(cursor.offset()) + ": " +
                                record.status().message());
    }
    // Publish records repeat the sequence of the ingest record before them.
    const uint64_t expected =
        batch.last_sequence + (record->is_publish() ? 0 : 1);
    if (record->sequence != expected ||
        (record->is_publish() && batch.records.empty())) {
      return Status::Corruption(
          "wal batch sequence " + std::to_string(record->sequence) +
          " does not continue " + std::to_string(batch.last_sequence));
    }
    batch.last_sequence = record->sequence;
    batch.records.push_back(std::move(*record));
  }
  return batch;
}

}  // namespace leakdet::cluster
