#include "gateway/trainer.h"

#include <chrono>
#include <utility>

namespace leakdet::gateway {

namespace {

uint64_t ElapsedNs(Clock* clock, Clock::TimePoint since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock->Now() -
                                                           since)
          .count());
}

}  // namespace

TrainerLoop::TrainerLoop(core::SignatureServer* server,
                         DetectionGateway* gateway, TrainerOptions options)
    : server_(server),
      gateway_(gateway),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()),
      mailbox_(options.queue_capacity == 0 ? 1 : options.queue_capacity) {
  if (options_.forward_normal_every == 0) options_.forward_normal_every = 1;
  obs::Registry* metrics = gateway_->metrics();
  ingested_ = metrics->GetCounter("trainer.ingested");
  drops_ = metrics->GetCounter("trainer.dropped");
  retrains_ = metrics->GetCounter("trainer.retrains");
  wal_appends_ = metrics->GetCounter("trainer.wal_appends");
  wal_errors_ = metrics->GetCounter("trainer.wal_errors");
  snapshots_ = metrics->GetCounter("trainer.snapshots");
  snapshot_errors_ = metrics->GetCounter("trainer.snapshot_errors");
  ncd_pair_hits_ = metrics->GetCounter("trainer.ncd_pair_hits");
  ncd_pairs_computed_ = metrics->GetCounter("trainer.ncd_pairs_computed");
  singleton_compressions_ =
      metrics->GetCounter("trainer.singleton_compressions");
  archive_bytes_ = metrics->GetGauge("trainer.archive_bytes");
  retrain_ns_ = metrics->GetHistogram("trainer.retrain_ns");
  compile_ns_ = metrics->GetHistogram("trainer.compile_ns");
  stage_distance_ns_ = metrics->GetHistogram("trainer.stage_distance_ns");
  stage_cluster_ns_ = metrics->GetHistogram("trainer.stage_cluster_ns");
  stage_siggen_ns_ = metrics->GetHistogram("trainer.stage_siggen_ns");
  // The publication hook: runs on this trainer's thread inside
  // Ingest()/Retrain(), immediately after the feed version advances.
  server_->SetFeedObserver(
      [this](uint64_t version, const match::SignatureSet& set) {
        auto compile_start = clock_->Now();
        auto compiled =
            std::make_shared<const match::CompiledSignatureSet>(set, version);
        compile_ns_->Observe(ElapsedNs(clock_, compile_start));
        std::string feed = set.Serialize();
        {
          std::lock_guard<std::mutex> lock(archive_mu_);
          ArchivedEpoch& epoch = archive_[version];
          archive_bytes_->Add(static_cast<int64_t>(feed.size()) -
                              static_cast<int64_t>(epoch.feed.size()));
          epoch = ArchivedEpoch{std::move(feed), compiled};
        }
        gateway_->Publish(std::move(compiled));
        feeds_published_.fetch_add(1, std::memory_order_relaxed);
      });
}

TrainerLoop::~TrainerLoop() {
  Stop();
  server_->SetFeedObserver(nullptr);
}

Status TrainerLoop::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("trainer already started");
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void TrainerLoop::Stop() {
  if (stopped_.exchange(true)) return;
  mailbox_.Close();
  if (thread_.joinable()) thread_.join();
  // A clean shutdown leaves no unacknowledged tail: whatever the sync
  // policy deferred becomes durable now.
  if (options_.store != nullptr) options_.store->Sync();
}

DetectionGateway::PacketSink TrainerLoop::Sink() {
  return [this](const core::HttpPacket& packet, const Verdict& verdict) {
    Offer(packet, verdict);
  };
}

std::shared_ptr<const match::CompiledSignatureSet> TrainerLoop::SetForVersion(
    uint64_t version) const {
  std::string feed;
  {
    std::lock_guard<std::mutex> lock(archive_mu_);
    auto it = archive_.find(version);
    if (it == archive_.end()) return nullptr;
    if (auto live = it->second.compiled.lock()) return live;
    feed = it->second.feed;
  }
  // The feed is SignatureSet::Serialize output, which always parses back.
  StatusOr<match::SignatureSet> set = match::SignatureSet::Deserialize(feed);
  if (!set.ok()) return nullptr;
  auto rebuilt =
      std::make_shared<const match::CompiledSignatureSet>(std::move(*set),
                                                          version);
  std::lock_guard<std::mutex> lock(archive_mu_);
  // Another caller may have rebuilt it meanwhile; hand out one object.
  ArchivedEpoch& epoch = archive_.at(version);
  if (auto live = epoch.compiled.lock()) return live;
  epoch.compiled = rebuilt;
  return rebuilt;
}

bool TrainerLoop::Offer(const core::HttpPacket& packet,
                        const Verdict& verdict) {
  if (!verdict.sensitive) {
    // Sample clean traffic so the server's normal pool (and its oracle's
    // chance to catch leaks the current signatures miss) stays populated
    // without doubling every packet's work.
    uint64_t tick = normal_tick_.fetch_add(1, std::memory_order_relaxed);
    if (tick % options_.forward_normal_every != 0) return false;
  }
  // The packet is copied only once the mailbox has room (most offers are
  // shed while a retrain runs), and into the slot's reused buffers.
  const bool accepted =
      mailbox_.PushWith(false, [&packet, &verdict](TrainingItem& slot) {
        slot.packet = packet;
        slot.verdict = verdict;
      });
  if (!accepted) {
    drops_->Inc();
    return false;
  }
  return true;
}

void TrainerLoop::Run() {
  // Popped by swap: the slot takes back this item's buffers from the last
  // round, so forwarding a packet allocates and frees nothing. The WAL
  // record is reused too: the packet is swapped in for the append and back.
  TrainingItem item;
  store::FeedRecord record;
  uint64_t appends_unflushed = 0;
  while (mailbox_.Pop(&item)) {
    // Durability before ingestion: a record the server has acted on must
    // already be in the log, or a crash could retrain on traffic recovery
    // cannot reproduce. A record the log refused is therefore skipped.
    bool logged = true;
    if (options_.store != nullptr) {
      record.feed_version = item.verdict.feed_version;
      record.sensitive = item.verdict.sensitive;
      record.shard = item.verdict.shard;
      record.num_matches = item.verdict.num_matches;
      std::swap(record.packet, item.packet);
      logged = options_.store->Append(record).ok();
      std::swap(record.packet, item.packet);
      if (logged) {
        wal_appends_->Inc();
        ++appends_unflushed;
      } else {
        wal_errors_->Inc();
      }
    }
    if (logged) Train(item.packet, &appends_unflushed);
    // Group commit follows the mailbox: when the backlog drains, flush the
    // staged WAL batch so replication (/replog serves only flushed bytes)
    // and failover see every record the trainer has acted on, without a
    // sync per record while a burst is in flight.
    if (options_.store != nullptr && appends_unflushed > 0 &&
        mailbox_.size() == 0) {
      if (options_.store->Sync().ok()) appends_unflushed = 0;
    }
    items_processed_.fetch_add(1, std::memory_order_release);
  }
}

void TrainerLoop::Train(const core::HttpPacket& packet,
                        uint64_t* appends_unflushed) {
  uint64_t version_before = server_->feed_version();
  auto ingest_start = clock_->Now();
  server_->Ingest(packet);
  ingested_->Inc();
  if (server_->feed_version() == version_before) return;
  // The whole Ingest was dominated by the retrain it triggered (the
  // observer has already compiled + published the new epoch).
  retrain_ns_->Observe(ElapsedNs(clock_, ingest_start));
  retrains_->Inc();
  // Accumulate the distance-matrix work of that retrain: pair
  // compressions done vs packet-pair probes the size tables answered.
  const core::DistanceMatrixStats& stats = server_->last_distance_stats();
  ncd_pair_hits_->Inc(stats.ncd_pair_hits);
  ncd_pairs_computed_->Inc(stats.ncd_pairs_computed);
  singleton_compressions_->Inc(stats.singleton_compressions);
  // Stage breakdown of the retrain that just ran, stamped by the
  // pipeline into the stats it returned.
  stage_distance_ns_->Observe(stats.distance_build_ns);
  stage_cluster_ns_->Observe(stats.cluster_ns);
  stage_siggen_ns_->Observe(stats.siggen_ns);
  // Persist the epoch that just published (a publish record in the WAL,
  // plus a checkpoint when one is due), then retire whatever a new
  // checkpoint made redundant.
  if (options_.store == nullptr) return;
  if (options_.store->WriteSnapshot(*server_).ok()) {
    snapshots_->Inc();
    // A failed compaction only leaves files for the next one; the store
    // counts it in store.compact_errors.
    (void)options_.store->Compact();
    // Only a *successful* WriteSnapshot has synced the log (it fsyncs the
    // WAL after logging the publish record). On failure the staged records
    // may still be volatile, so the counter must stay nonzero or the
    // drain-time group commit would skip them and /replog / failover could
    // miss acted-on records.
    *appends_unflushed = 0;
  } else {
    snapshot_errors_->Inc();
  }
}

}  // namespace leakdet::gateway
