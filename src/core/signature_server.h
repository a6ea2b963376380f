#ifndef LEAKDET_CORE_SIGNATURE_SERVER_H_
#define LEAKDET_CORE_SIGNATURE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/payload_check.h"
#include "core/pipeline.h"

namespace leakdet::core {

/// The server side of Figure 3(a) as an *ongoing* service rather than a
/// one-shot batch: traffic streams in, the payload check files each packet
/// into the suspicious or normal pool, and once enough new suspicious
/// packets accumulate the server retrains and publishes a new feed version.
/// The device side polls `feed_version()` / `signatures()`.
///
/// Threading contract: Ingest()/Retrain()/signatures()/Feed() must be
/// externally serialized (one training thread — see gateway::TrainerLoop).
/// `feed_version()` is safe to read from any thread without synchronization,
/// which lets pollers (io::FeedServer providers, gateway shards) check for a
/// new feed cheaply. The feed *observer* is the publication hook: it runs on
/// the training thread synchronously after the version advances, so whatever
/// it publishes (e.g. a freshly compiled matcher epoch) is never ahead of
/// `feed_version()`.
class SignatureServer {
 public:
  struct Options {
    /// Retrain after this many new suspicious packets since the last build.
    size_t retrain_after = 200;
    /// Cap on the retained suspicious pool (FIFO eviction); bounds memory
    /// and keeps the sample focused on recent traffic. Eviction is
    /// amortized: evicted packets linger as a dead prefix of the pool vector
    /// until the pool is next read or the prefix reaches the cap, so the
    /// vector holds at most twice the cap.
    size_t max_suspicious_pool = 50000;
    /// Cap on the retained normal pool (screening corpus source).
    size_t max_normal_pool = 20000;
    PipelineOptions pipeline;
  };

  /// Everything that defines the server's behavior going forward: the
  /// training pools, the since-last-retrain counter, the published feed.
  /// Captured by persistence (store::StoreManager snapshots) and restored on
  /// recovery so a restarted server is bit-identical to the one that crashed.
  struct State {
    std::vector<HttpPacket> suspicious;
    std::vector<HttpPacket> normal;
    size_t new_suspicious = 0;
    uint64_t feed_version = 0;
    match::SignatureSet signatures;
  };

  /// `oracle` must outlive the server. Not owned.
  SignatureServer(const PayloadCheck* oracle, Options options);

  /// Replaces the server's state wholesale (crash recovery). If the restored
  /// feed version is nonzero the feed observer fires with the restored
  /// signature set, exactly as a retrain would — this is how recovery
  /// republishes the pre-crash serving epoch before any WAL replay. Training
  /// thread only, like Ingest().
  void Restore(State state);

  /// Counts Restore() calls. A persistence layer compares it with the value
  /// it last saw to tell whether the state was replaced behind its back
  /// (store::StoreManager then writes a full checkpoint, since its log no
  /// longer describes the server).
  uint64_t restore_generation() const { return restore_generation_; }

  /// Ingests one observed packet. Returns true if this ingestion triggered
  /// a retrain (the feed version advanced).
  bool Ingest(const HttpPacket& packet);

  /// Files each packet into its pool exactly as Ingest() does, but never
  /// retrains. Crash recovery uses it for the records up to a logged
  /// publish: that epoch's outcome is installed with InstallEpoch() instead
  /// of recomputed. (A retrain changes only the feed, its version and the
  /// counter, all of which the install sets.) Like the retrain it stands
  /// for, it leaves the pools without an evicted prefix.
  void IngestWithoutRetrain(const std::vector<HttpPacket>& packets);

  /// Installs a published epoch without retraining: its version, its
  /// (post-transform) signature set and the since-last-retrain counter as
  /// they were when it was published. The pools are left as they are. Fires
  /// the feed observer like a retrain. Training thread only.
  void InstallEpoch(uint64_t version, size_t new_suspicious,
                    match::SignatureSet signatures);

  /// Forces a retrain now (e.g. operator request). No-op without any
  /// suspicious traffic; returns whether a new feed was produced.
  bool Retrain();

  /// Called synchronously after every successful retrain with the new
  /// version and the signature set it produced. The reference is only valid
  /// for the duration of the call — copy (or compile) what you need.
  using FeedObserver =
      std::function<void(uint64_t version, const match::SignatureSet&)>;

  /// Installs the publication hook (replaces any previous one). Set it
  /// before concurrent ingestion starts.
  void SetFeedObserver(FeedObserver observer) {
    feed_observer_ = std::move(observer);
  }

  /// A rewrite applied to every freshly trained signature set before it is
  /// stored or published (federation's K-anonymity gate hooks in here).
  /// Runs on the training thread between the pipeline and the observer;
  /// what it returns *is* the new feed. Deliberately not applied by
  /// Restore() or InstallEpoch(): checkpoints and publish records capture
  /// post-transform feeds, and re-gating a restored feed against evidence
  /// lost in the crash would corrupt it.
  using FeedTransform =
      std::function<match::SignatureSet(uint64_t version,
                                        match::SignatureSet trained)>;

  /// Installs the feed transform (replaces any previous one). Set it before
  /// ingestion starts, like the observer.
  void SetFeedTransform(FeedTransform transform) {
    feed_transform_ = std::move(transform);
  }

  /// Replaces the training computation itself: when set, Retrain() calls the
  /// backend with the pools and the per-epoch options (feed_version already
  /// stamped) instead of core::RunPipeline. It is a seam for tests and
  /// benchmarks: a fake stands in for the pipeline, or a wrapper times each
  /// retrain around RunPipeline. The backend must be deterministic in its
  /// inputs: on crash recovery the same pools and feed_version are replayed
  /// and the published signatures must reproduce. Runs on the training
  /// thread.
  using TrainingBackend = std::function<StatusOr<PipelineResult>(
      const std::vector<HttpPacket>& suspicious,
      const std::vector<HttpPacket>& normal, const PipelineOptions& options)>;

  /// Installs the training backend (nullptr restores RunPipeline). Set it
  /// before ingestion starts, like the observer.
  void SetTrainingBackend(TrainingBackend backend) {
    training_backend_ = std::move(backend);
  }

  /// Monotonically increasing feed version (0 = no signatures yet).
  /// Safe to call from any thread.
  uint64_t feed_version() const {
    return feed_version_.load(std::memory_order_acquire);
  }

  /// The current signature set (empty before the first retrain).
  const match::SignatureSet& signatures() const { return signatures_; }

  /// Serialized feed for distribution to devices.
  std::string Feed() const { return signatures_.Serialize(); }

  /// Live (not yet evicted) packets per pool.
  size_t suspicious_pool_size() const {
    return suspicious_.size() - suspicious_evicted_;
  }
  size_t normal_pool_size() const { return normal_.size() - normal_evicted_; }

  /// Direct pool access for persistence snapshots: the live packets, oldest
  /// first. Drops the pending evicted prefix first, so the reference stays
  /// valid until the next Ingest()/Restore(). Training thread only.
  const std::vector<HttpPacket>& suspicious_pool() const {
    DropEvicted(&suspicious_, &suspicious_evicted_);
    return suspicious_;
  }
  const std::vector<HttpPacket>& normal_pool() const {
    DropEvicted(&normal_, &normal_evicted_);
    return normal_;
  }
  size_t new_suspicious() const { return new_suspicious_; }
  const Options& options() const { return options_; }

  /// Distance-matrix cache statistics of the most recent successful retrain
  /// (zero-initialized before the first one). Same threading contract as
  /// signatures(): read from the training thread.
  const DistanceMatrixStats& last_distance_stats() const {
    return last_distance_stats_;
  }

 private:
  /// Erases the first `*evicted` packets of `pool`.
  static void DropEvicted(std::vector<HttpPacket>* pool, size_t* evicted);
  /// Files `packet` into the pool the payload check picks; returns whether
  /// it was suspicious (and so advanced the since-last-retrain counter).
  bool FileIntoPool(const HttpPacket& packet);
  /// Appends `packet` to a FIFO pool of at most `cap` live packets.
  static void PushCapped(const HttpPacket& packet, size_t cap,
                         std::vector<HttpPacket>* pool, size_t* evicted);

  const PayloadCheck* oracle_;
  Options options_;
  // Each pool is its vector minus a prefix of evicted packets; the pool
  // accessors drop that prefix (logically const, hence mutable).
  mutable std::vector<HttpPacket> suspicious_;
  mutable std::vector<HttpPacket> normal_;
  mutable size_t suspicious_evicted_ = 0;
  mutable size_t normal_evicted_ = 0;
  size_t new_suspicious_ = 0;
  uint64_t restore_generation_ = 0;
  std::atomic<uint64_t> feed_version_{0};
  match::SignatureSet signatures_;
  DistanceMatrixStats last_distance_stats_;
  FeedObserver feed_observer_;
  FeedTransform feed_transform_;
  TrainingBackend training_backend_;
};

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_SIGNATURE_SERVER_H_
