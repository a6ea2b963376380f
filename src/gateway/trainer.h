#ifndef LEAKDET_GATEWAY_TRAINER_H_
#define LEAKDET_GATEWAY_TRAINER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/signature_server.h"
#include "gateway/bounded_queue.h"
#include "gateway/gateway.h"
#include "match/compiled_set.h"
#include "obs/metrics.h"
#include "store/store_manager.h"
#include "util/statusor.h"

namespace leakdet::gateway {

struct TrainerOptions {
  /// Bound on the trainer's own mailbox. While a retrain is running the
  /// mailbox absorbs this much backlog; beyond it packets are shed (and
  /// accounted) rather than stalling the detection shards.
  size_t queue_capacity = 8192;
  /// Forward every Nth *non-matching* packet to the SignatureServer (its
  /// normal pool / oracle still sees a sample of clean traffic). Matching
  /// packets are always forwarded. 1 = forward everything.
  size_t forward_normal_every = 1;
  /// Time source for retrain/compile timings. nullptr = Clock::Real().
  Clock* clock = nullptr;
  /// Optional durable store (not owned; must outlive the trainer). When set,
  /// every mailbox item is WAL-appended before ingestion, every published
  /// epoch is persisted (StoreManager::WriteSnapshot: a publish record, and
  /// a checkpoint when one is due), and folded-away segments are compacted.
  /// The caller should StoreManager::Recover() into the server before
  /// Start().
  store::StoreManager* store = nullptr;
};

/// The single training thread behind the gateway: drains (packet, verdict)
/// pairs from its bounded mailbox into the SignatureServer — satisfying the
/// server's external-serialization contract — and, whenever a retrain
/// advances the feed version, compiles the new SignatureSet into a
/// CompiledSignatureSet and publishes it to the gateway. Detection shards
/// therefore never block on retraining: an expensive retrain only delays
/// *training* ingestion, and the mailbox's drop policy bounds even that.
///
/// Every published epoch is archived by version, so replay tooling (the
/// loadgen's --verify pass) can rebuild the exact matcher any verdict was
/// produced under. The archive keeps each epoch's serialized feed (the
/// ~13 KB the feed server ships), not its compiled matcher (MBs): a compiled
/// epoch lives only as long as someone (the gateway, a shard, a verifier)
/// holds it, and SetForVersion deserializes and recompiles a released one
/// on demand. The trainer.archive_bytes gauge is the feeds' total size.
class TrainerLoop {
 public:
  /// `server` and `gateway` must outlive the trainer. Not owned. The trainer
  /// installs itself as the server's feed observer.
  TrainerLoop(core::SignatureServer* server, DetectionGateway* gateway,
              TrainerOptions options);
  ~TrainerLoop();
  TrainerLoop(const TrainerLoop&) = delete;
  TrainerLoop& operator=(const TrainerLoop&) = delete;

  /// Starts the training thread. One-shot, like DetectionGateway::Start.
  Status Start();

  /// Closes the mailbox, drains it, and joins the thread. Idempotent.
  void Stop();

  /// The gateway sink: call set_sink(trainer.Sink()) to wire the gateway's
  /// per-packet output into training. Thread-safe, non-blocking: honors the
  /// mailbox bound by shedding (never backpressures detection shards).
  DetectionGateway::PacketSink Sink();

  /// Thread-safe offer of one packet to the training mailbox. Returns false
  /// if the packet was filtered (normal-traffic sampling) or shed.
  bool Offer(const core::HttpPacket& packet, const Verdict& verdict);

  /// The compiled epoch for `version` (null if never published): the live
  /// object while anyone still holds it, else a fresh compile of the
  /// archived feed, identical to the one first published. Thread-safe; a
  /// rebuild runs outside the archive lock.
  std::shared_ptr<const match::CompiledSignatureSet> SetForVersion(
      uint64_t version) const;

  uint64_t feeds_published() const {
    return feeds_published_.load(std::memory_order_relaxed);
  }
  uint64_t training_drops() const { return drops_->Value(); }

  /// Mailbox items fully handled (WAL append + ingest + any retrain/publish
  /// side effects). The release store in the training loop pairs with this
  /// acquire load, so a caller that observes N here also observes every side
  /// effect of those N items — the cluster control plane spins on this as
  /// its quiescence barrier before touching the leader's store from another
  /// thread.
  uint64_t items_processed() const {
    return items_processed_.load(std::memory_order_acquire);
  }

 private:
  /// One mailbox item: the packet together with the verdict it was matched
  /// under, so the durable log records the full (packet, verdict,
  /// feed-version) tuple, not just the packet.
  struct TrainingItem {
    core::HttpPacket packet;
    Verdict verdict;
  };

  void Run();

  /// Ingests one logged packet and, if that published an epoch, records the
  /// retrain and persists the epoch. Training thread.
  void Train(const core::HttpPacket& packet, uint64_t* appends_unflushed);

  core::SignatureServer* server_;
  DetectionGateway* gateway_;
  TrainerOptions options_;
  Clock* clock_ = nullptr;
  BoundedQueue<TrainingItem> mailbox_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> normal_tick_{0};
  std::atomic<uint64_t> feeds_published_{0};
  std::atomic<uint64_t> items_processed_{0};

  /// One published epoch: its serialized feed, and its compiled matcher for
  /// as long as anyone else holds it.
  struct ArchivedEpoch {
    std::string feed;
    std::weak_ptr<const match::CompiledSignatureSet> compiled;
  };
  mutable std::mutex archive_mu_;
  mutable std::map<uint64_t, ArchivedEpoch> archive_;

  obs::Counter* ingested_ = nullptr;
  obs::Counter* drops_ = nullptr;
  obs::Counter* retrains_ = nullptr;
  obs::Counter* wal_appends_ = nullptr;
  obs::Counter* wal_errors_ = nullptr;
  obs::Counter* snapshots_ = nullptr;
  obs::Counter* snapshot_errors_ = nullptr;
  obs::Counter* ncd_pair_hits_ = nullptr;
  obs::Counter* ncd_pairs_computed_ = nullptr;
  obs::Counter* singleton_compressions_ = nullptr;
  obs::Gauge* archive_bytes_ = nullptr;
  obs::Histogram* retrain_ns_ = nullptr;
  obs::Histogram* compile_ns_ = nullptr;
  // Per-stage retrain breakdown, taken from the DistanceMatrixStats the
  // pipeline stamps (matrix build / clustering / signature generation).
  obs::Histogram* stage_distance_ns_ = nullptr;
  obs::Histogram* stage_cluster_ns_ = nullptr;
  obs::Histogram* stage_siggen_ns_ = nullptr;
};

}  // namespace leakdet::gateway

#endif  // LEAKDET_GATEWAY_TRAINER_H_
