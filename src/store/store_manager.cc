#include "store/store_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "match/signature.h"

namespace leakdet::store {

namespace {

/// Wall-time span in ns (steady clock) for the store's stage histograms.
class Timed {
 public:
  explicit Timed(obs::Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~Timed() {
    histogram_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

 private:
  obs::Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

StoreManager::StoreManager(Dir* dir, std::string dirpath, StoreOptions options)
    : dir_(dir),
      dirpath_(std::move(dirpath)),
      options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : obs::Registry::Default()) {
  append_ns_ = registry_->GetHistogram("store.wal_append_ns");
  sync_ns_ = registry_->GetHistogram("store.wal_sync_ns");
  snapshot_write_ns_ = registry_->GetHistogram("store.snapshot_write_ns");
  appends_ = registry_->GetCounter("store.wal_appends");
  append_errors_ = registry_->GetCounter("store.wal_append_errors");
  syncs_ = registry_->GetCounter("store.wal_syncs");
  sync_errors_ = registry_->GetCounter("store.wal_sync_errors");
  snapshots_written_ = registry_->GetCounter("store.snapshots_written");
  snapshot_errors_ = registry_->GetCounter("store.snapshot_errors");
  publish_records_ = registry_->GetCounter("store.publish_records");
  checkpoints_written_ = registry_->GetCounter("store.checkpoints_written");
  compactions_ = registry_->GetCounter("store.compactions");
  compact_errors_ = registry_->GetCounter("store.compact_errors");
  segments_removed_ = registry_->GetCounter("store.segments_removed");
  snapshots_removed_ = registry_->GetCounter("store.snapshots_removed");
  last_sequence_gauge_ = registry_->GetGauge("store.wal_last_sequence");
  durable_sequence_gauge_ = registry_->GetGauge("store.wal_durable_sequence");
  segment_id_gauge_ = registry_->GetGauge("store.wal_segment_id");
  segments_created_gauge_ = registry_->GetGauge("store.wal_segments_created");
  append_repairs_gauge_ = registry_->GetGauge("store.wal_append_repairs");
  snapshot_version_gauge_ = registry_->GetGauge("store.snapshot_version");
  wal_bytes_since_checkpoint_gauge_ =
      registry_->GetGauge("store.wal_bytes_since_checkpoint");
}

void StoreManager::RefreshWalGauges() {
  last_sequence_gauge_->Set(static_cast<int64_t>(last_sequence()));
  durable_sequence_gauge_->Set(static_cast<int64_t>(durable_sequence()));
  segment_id_gauge_->Set(static_cast<int64_t>(writer_->segment_id()));
  segments_created_gauge_->Set(
      static_cast<int64_t>(writer_->segments_created()));
  append_repairs_gauge_->Set(static_cast<int64_t>(writer_->append_repairs()));
  wal_bytes_since_checkpoint_gauge_->Set(
      static_cast<int64_t>(wal_bytes_since_checkpoint_));
}

StatusOr<uint64_t> StoreManager::AppendToWal(const FeedRecord& record,
                                             bool replicated) {
  const bool publish = record.is_publish();
  const uint64_t bytes_before = writer_->bytes_appended();
  const uint64_t segment_before = writer_->segment_id();
  const uint64_t last_before = last_sequence();
  StatusOr<uint64_t> sequence = [&] {
    Timed timed(append_ns_);
    return replicated ? writer_->AppendReplicated(record)
                      : writer_->Append(record);
  }();
  wal_bytes_since_checkpoint_ += writer_->bytes_appended() - bytes_before;
  // A rotation closed the previous segment on everything appended before
  // this record: Compact() then never has to read it back.
  if (writer_->segment_id() != segment_before) {
    segment_last_sequence_[segment_before] = last_before;
  }
  if (sequence.ok()) {
    appends_->Inc();
    if (publish) publish_records_->Inc();
  } else {
    append_errors_->Inc();
  }
  RefreshWalGauges();
  return sequence;
}

StatusOr<uint64_t> StoreManager::Append(const FeedRecord& record) {
  return AppendToWal(record, /*replicated=*/false);
}

StatusOr<uint64_t> StoreManager::AppendReplicated(const FeedRecord& record) {
  return AppendToWal(record, /*replicated=*/true);
}

void StoreManager::NoteCheckpoint(const std::string& name, uint64_t sequence,
                                  uint64_t feed_version, uint64_t bytes) {
  newest_snapshot_name_ = name;
  newest_snapshot_covered_ = sequence;
  newest_snapshot_bytes_ = bytes;
  valid_snapshots_.insert(name);
  wal_bytes_since_checkpoint_ = 0;
  compact_due_ = true;
  snapshot_version_gauge_->Set(static_cast<int64_t>(feed_version));
  RefreshWalGauges();
}

Status StoreManager::InstallSnapshot(const SnapshotContents& snapshot) {
  Timed timed(snapshot_write_ns_);
  if (snapshot.last_sequence > last_sequence()) {
    snapshot_errors_->Inc();
    return Status::InvalidArgument(
        "snapshot covers sequence " + std::to_string(snapshot.last_sequence) +
        " but the local log ends at " + std::to_string(last_sequence()));
  }
  // Same ordering as WriteSnapshot: the log must be durable up to what the
  // snapshot claims before the snapshot itself becomes visible.
  Status sync_status = Sync();
  if (!sync_status.ok()) {
    snapshot_errors_->Inc();
    return sync_status;
  }
  StatusOr<uint64_t> bytes = WriteSnapshotFile(dir_, dirpath_, snapshot);
  if (!bytes.ok()) {
    snapshot_errors_->Inc();
    return bytes.status();
  }
  NoteCheckpoint(SnapshotFileName(snapshot.feed_version, snapshot.last_sequence),
                 snapshot.last_sequence, snapshot.feed_version, *bytes);
  checkpoints_written_->Inc();
  snapshots_written_->Inc();
  return Status::OK();
}

Status StoreManager::Sync() {
  Status status = [&] {
    Timed timed(sync_ns_);
    return writer_->Sync();
  }();
  if (status.ok()) {
    syncs_->Inc();
  } else {
    sync_errors_->Inc();
  }
  RefreshWalGauges();
  return status;
}

std::string DescribeBuildParams(
    const core::SignatureServer::Options& options) {
  const core::PipelineOptions& p = options.pipeline;
  std::string out;
  out += "sample_size=" + std::to_string(p.sample_size);
  out += " cut_height=" + std::to_string(p.cut_height);
  out += " compressor=" + p.compressor;
  out += " normal_corpus_size=" + std::to_string(p.normal_corpus_size);
  out += " seed=" + std::to_string(p.seed);
  out += " retrain_after=" + std::to_string(options.retrain_after);
  out += " max_suspicious_pool=" + std::to_string(options.max_suspicious_pool);
  out += " max_normal_pool=" + std::to_string(options.max_normal_pool);
  return out;
}

StatusOr<std::unique_ptr<StoreManager>> StoreManager::Open(
    Dir* dir, const std::string& dirpath, const StoreOptions& options) {
  LEAKDET_RETURN_IF_ERROR(dir->CreateDir(dirpath));
  std::unique_ptr<StoreManager> store(
      new StoreManager(dir, dirpath, options));
  if (store->options_.keep_snapshots == 0) store->options_.keep_snapshots = 1;
  // Scan-and-repair pass: truncates a torn tail in the newest segment and
  // finds the last valid sequence, after which the writer resumes.
  LEAKDET_ASSIGN_OR_RETURN(
      store->open_scan_,
      ReplayWal(dir, dirpath, /*after_sequence=*/0, nullptr, /*repair=*/true));
  // A compaction may have folded the whole log into a checkpoint: the
  // sequence still resumes past what any checkpoint covers, or recovery
  // (which replays only past the checkpoint) would skip the new records.
  uint64_t last_sequence = store->open_scan_.last_sequence;
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names, dir->List(dirpath));
  for (const std::string& name : names) {
    uint64_t version = 0, covered = 0;
    if (ParseSnapshotFileName(name, &version, &covered)) {
      last_sequence = std::max(last_sequence, covered);
    }
  }
  LEAKDET_ASSIGN_OR_RETURN(
      store->writer_,
      WalWriter::Open(dir, dirpath, last_sequence + 1, options.wal));
  store->RefreshWalGauges();
  return store;
}

StatusOr<StoreManager::RecoveryStats> StoreManager::Recover(
    core::SignatureServer* server) {
  RecoveryStats stats;
  uint64_t after = 0;
  std::string name;
  StatusOr<SnapshotContents> snapshot =
      LoadNewestSnapshot(dir_, dirpath_, &name, &stats.snapshots_skipped);
  if (snapshot.ok()) {
    LEAKDET_ASSIGN_OR_RETURN(uint64_t bytes,
                             dir_->FileSize(dirpath_ + "/" + name));
    core::SignatureServer::State state;
    state.suspicious = std::move(snapshot->suspicious);
    state.normal = std::move(snapshot->normal);
    state.new_suspicious = snapshot->new_suspicious;
    state.feed_version = snapshot->feed_version;
    LEAKDET_ASSIGN_OR_RETURN(
        state.signatures, match::SignatureSet::Deserialize(snapshot->signatures));
    // Serve-before-replay: Restore() fires the feed observer, so the
    // checkpoint's epoch is live before a single WAL record is reapplied.
    server->Restore(std::move(state));
    stats.snapshot_loaded = true;
    stats.snapshot_version = snapshot->feed_version;
    stats.snapshot_sequence = snapshot->last_sequence;
    after = snapshot->last_sequence;
    NoteCheckpoint(name, after, snapshot->feed_version, bytes);
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  // One pass over the suffix. It must pick up exactly where the checkpoint
  // left off: a first surviving record beyond `after + 1` means
  // acknowledged records were lost to compaction or deletion — refuse to
  // guess. Ingest records are held back until the next publish record,
  // which proves their retrains already ran: they only refill the pools,
  // and that record's epoch becomes the one to install.
  std::vector<core::HttpPacket> held;
  FeedRecord last_publish;
  bool first = true;
  auto apply = [&](FeedRecord& record) -> Status {
    if (first && (record.is_publish() || record.sequence != after + 1)) {
      return Status::Corruption(
          "WAL gap after snapshot: expected sequence " +
          std::to_string(after + 1) + ", found " +
          std::to_string(record.sequence));
    }
    first = false;
    if (!record.is_publish()) {
      held.push_back(std::move(record.packet));
      return Status::OK();
    }
    server->IngestWithoutRetrain(held);
    held.clear();
    last_publish = std::move(record);
    ++stats.epochs_installed;
    return Status::OK();
  };
  LEAKDET_ASSIGN_OR_RETURN(
      stats.replay, ReplayWal(dir_, dirpath_, after, apply, /*repair=*/false));
  if (stats.epochs_installed > 0) {
    LEAKDET_ASSIGN_OR_RETURN(
        match::SignatureSet set,
        match::SignatureSet::Deserialize(last_publish.signatures));
    server->InstallEpoch(last_publish.feed_version,
                         static_cast<size_t>(last_publish.new_suspicious),
                         std::move(set));
  }
  // The records whose publish record the crash lost (if any) re-run their
  // retrains exactly as the first time.
  const uint64_t version = server->feed_version();
  for (const core::HttpPacket& packet : held) server->Ingest(packet);
  stats.records_replayed = held.size();
  stats.epochs_retrained = server->feed_version() - version;

  logged_server_ = server;
  logged_generation_ = server->restore_generation();
  wal_bytes_since_checkpoint_ = stats.replay.applied_bytes;
  RefreshWalGauges();
  return stats;
}

Status StoreManager::WriteCheckpoint(const core::SignatureServer& server,
                                     std::string_view signatures) {
  // Serialized straight from the server's pools: no copy of them is made.
  const std::string params = DescribeBuildParams(server.options());
  SnapshotView snapshot;
  snapshot.feed_version = server.feed_version();
  snapshot.last_sequence = last_sequence();
  snapshot.new_suspicious = server.new_suspicious();
  snapshot.params = params;
  snapshot.signatures = signatures;
  snapshot.suspicious = &server.suspicious_pool();
  snapshot.normal = &server.normal_pool();
  LEAKDET_ASSIGN_OR_RETURN(uint64_t bytes,
                           WriteSnapshotFile(dir_, dirpath_, snapshot));
  NoteCheckpoint(SnapshotFileName(snapshot.feed_version, snapshot.last_sequence),
                 snapshot.last_sequence, snapshot.feed_version, bytes);
  checkpoints_written_->Inc();
  return Status::OK();
}

Status StoreManager::WriteSnapshot(const core::SignatureServer& server) {
  Timed timed(snapshot_write_ns_);
  const std::string signatures = server.Feed();
  // The log describes the server's state only if this store recovered it,
  // or checkpointed it, and nothing Restore()d it since.
  const bool logged = &server == logged_server_ &&
                      server.restore_generation() == logged_generation_;
  const bool has_records = last_sequence() > 0;
  if (logged && has_records) {
    FeedRecord publish;
    publish.type = RecordType::kPublish;
    publish.feed_version = server.feed_version();
    publish.new_suspicious = server.new_suspicious();
    publish.signatures = signatures;
    StatusOr<uint64_t> appended = AppendToWal(publish, /*replicated=*/false);
    if (!appended.ok()) {
      snapshot_errors_->Inc();
      return appended.status();
    }
  }
  // Sync first so a checkpoint never claims records the log could still
  // lose; after this the publish record is durable too.
  Status status = Sync();
  if (status.ok() &&
      (!logged || !has_records || newest_snapshot_bytes_ == 0 ||
       wal_bytes_since_checkpoint_ >= newest_snapshot_bytes_)) {
    status = WriteCheckpoint(server, signatures);
  }
  if (!status.ok()) {
    snapshot_errors_->Inc();
    return status;
  }
  logged_server_ = &server;
  logged_generation_ = server.restore_generation();
  snapshots_written_->Inc();
  snapshot_version_gauge_->Set(static_cast<int64_t>(server.feed_version()));
  return Status::OK();
}

StatusOr<StoreManager::CompactStats> StoreManager::Compact() {
  // What may be removed changes only with the newest checkpoint.
  if (!compact_due_) return CompactStats{};
  StatusOr<CompactStats> stats = CompactDirectory();
  if (!stats.ok()) {
    compact_errors_->Inc();
    return stats;
  }
  compact_due_ = false;
  compactions_->Inc();
  segments_removed_->Inc(stats->segments_removed);
  snapshots_removed_->Inc(stats->snapshots_removed);
  return stats;
}

StatusOr<StoreManager::CompactStats> StoreManager::CompactDirectory() {
  CompactStats stats;
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names, dir_->List(dirpath_));

  // The newest *valid* checkpoint defines what is safely folded away.
  // Without one, nothing may be removed. The one this instance wrote,
  // installed or recovered last is known valid without re-reading it; the
  // disk scan only runs when there is none (e.g. the CLI compact command).
  std::string newest_name = newest_snapshot_name_;
  uint64_t covered = newest_snapshot_covered_;
  if (newest_name.empty()) {
    StatusOr<SnapshotContents> newest =
        LoadNewestSnapshot(dir_, dirpath_, &newest_name);
    if (!newest.ok()) {
      if (newest.status().code() == StatusCode::kNotFound) return stats;
      return newest.status();
    }
    covered = newest->last_sequence;
    newest_snapshot_name_ = newest_name;
    newest_snapshot_covered_ = covered;
    valid_snapshots_.insert(newest_name);
  }

  // Snapshots: keep the `keep_snapshots` newest valid ones; remove older
  // valid ones and anything that fails to parse (write debris). A snapshot
  // digest-verifies at most once per process — files are immutable after
  // their atomic rename, so a verified name stays verified.
  std::vector<std::string> snapshots;
  for (const std::string& name : names) {
    uint64_t version = 0, sequence = 0;
    if (ParseSnapshotFileName(name, &version, &sequence)) {
      snapshots.push_back(name);
    }
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  size_t kept = 0;
  for (const std::string& name : snapshots) {
    bool keep = false;
    if (name == newest_name) {
      keep = true;
    } else if (kept < options_.keep_snapshots) {
      if (valid_snapshots_.count(name) > 0) {
        keep = true;
      } else {
        StatusOr<std::string> text = dir_->Read(dirpath_ + "/" + name);
        keep = text.ok() && ParseSnapshot(*text).ok();
        if (keep) valid_snapshots_.insert(name);
      }
    }
    if (keep) {
      ++kept;
    } else {
      LEAKDET_RETURN_IF_ERROR(dir_->Remove(dirpath_ + "/" + name));
      valid_snapshots_.erase(name);
      ++stats.snapshots_removed;
    }
  }

  // WAL segments: remove each one (oldest first) whose records all have
  // sequence <= covered. Never the active segment, and stop at the first
  // segment that still holds live records — everything after it does too.
  // Closed segments are immutable, and the writer reports the last sequence
  // of each one it closes; only a segment an earlier process closed is read,
  // once, to learn it. After that the decision is in-memory.
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t id = 0;
    if (ParseSegmentFileName(name, &id)) segments.emplace_back(id, name);
  }
  std::sort(segments.begin(), segments.end());
  const std::string active = SegmentFileName(writer_->segment_id());
  for (const auto& [id, name] : segments) {
    if (name == active) break;
    const std::string path = dirpath_ + "/" + name;
    auto cached = segment_last_sequence_.find(id);
    uint64_t last = 0;
    if (cached != segment_last_sequence_.end()) {
      last = cached->second;
    } else {
      LEAKDET_ASSIGN_OR_RETURN(std::string data, dir_->Read(path));
      RecordCursor cursor(data);
      while (true) {
        StatusOr<FeedRecord> record = cursor.Next();
        if (!record.ok()) break;  // clean end (non-active segments are clean)
        last = record->sequence;
      }
      segment_last_sequence_[id] = last;
    }
    if (last > covered) break;  // still live, as is everything after it
    LEAKDET_RETURN_IF_ERROR(dir_->Remove(path));
    segment_last_sequence_.erase(id);
    ++stats.segments_removed;
  }

  if (stats.segments_removed + stats.snapshots_removed > 0) {
    LEAKDET_RETURN_IF_ERROR(dir_->SyncDir(dirpath_));
  }
  return stats;
}

}  // namespace leakdet::store
