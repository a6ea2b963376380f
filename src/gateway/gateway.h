#ifndef LEAKDET_GATEWAY_GATEWAY_H_
#define LEAKDET_GATEWAY_GATEWAY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/packet.h"
#include "gateway/bounded_queue.h"
#include "match/compiled_set.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/statusor.h"

namespace leakdet::gateway {

/// What to do when a shard's queue is full (the overload policy of the
/// gateway's bounded-memory guarantee).
enum class OverloadPolicy {
  kBlock,       ///< backpressure: Submit blocks until the shard has room
  kDropNewest,  ///< load shedding: Submit fails fast, the drop is accounted
};

struct GatewayOptions {
  /// Worker shards. Packets are routed by device id, so per-device order is
  /// preserved while distinct devices match in parallel.
  size_t num_shards = 4;
  /// Per-shard queue bound (packets).
  size_t queue_capacity = 1024;
  /// Max packets a worker drains per lock acquisition.
  size_t pop_batch = 64;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Time source for queue-wait and match timings. nullptr = Clock::Real().
  /// The harness injects a testing::VirtualClock here so timing histograms
  /// are deterministic under fault schedules.
  Clock* clock = nullptr;
  /// Metrics destination. nullptr = a gateway-private registry (keeps unit
  /// tests and chaos probe gateways isolated); production binaries pass a
  /// shared obs::Registry so gateway metrics land on the process scrape
  /// surface. The gateway registers a queue-depth collect hook on it, so an
  /// injected registry must not be scraped after the gateway is destroyed.
  obs::Registry* registry = nullptr;
};

/// The matching outcome the gateway reports for one packet.
struct Verdict {
  bool sensitive = false;     ///< any signature matched
  uint64_t feed_version = 0;  ///< matcher epoch the packet was matched under
  uint32_t shard = 0;         ///< shard that processed it
  uint32_t num_matches = 0;   ///< matching signature count
};

/// The concurrent online detection front of Figure 3: N worker shards pull
/// packets from bounded queues, match them against the current compiled
/// signature epoch, and hand every (packet, verdict) pair to a sink — the
/// TrainerLoop forwards suspicious traffic into the SignatureServer from
/// there, closing the retrain loop.
///
/// Hot-swap: epochs are published through a version gate. Each worker caches
/// a shared_ptr to its current epoch and per dequeued *batch* (up to
/// pop_batch packets) does one relaxed atomic load of the published version;
/// only when the gate has moved does it take the epoch mutex to refresh its
/// cache. Steady state therefore costs a single uncontended load per batch —
/// no refcount traffic, no locks — and a swap costs one mutex acquisition
/// per worker. Packets of a drained batch finish on the epoch visible at
/// drain time; the old automaton is freed when the last worker refreshes its
/// cache, RCU-style.
///
/// Match hot path: a batch is processed in three passes — materialize
/// contents (prefetching the next packet's payload), match every packet
/// in one pass over the epoch's dense DFA, then one verdict flush plus one
/// counter update for the whole batch.
///
/// (std::atomic<std::shared_ptr> would express the same idea, but libstdc++
/// implements it with a spinlock bit whose reader unlock is relaxed, which
/// both costs two RMWs per load and trips ThreadSanitizer.)
class DetectionGateway {
 public:
  /// Called on a worker thread for every processed packet. Must be
  /// thread-safe; it is invoked concurrently from all shards.
  using PacketSink =
      std::function<void(const core::HttpPacket&, const Verdict&)>;

  explicit DetectionGateway(GatewayOptions options);
  ~DetectionGateway();
  DetectionGateway(const DetectionGateway&) = delete;
  DetectionGateway& operator=(const DetectionGateway&) = delete;

  /// Installs the per-packet sink. Must be called before Start().
  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Spawns the worker threads. One-shot: a stopped gateway is not
  /// restartable (make a new one).
  Status Start();

  /// Closes every queue, lets workers drain the backlog, and joins them.
  /// After Stop() returns, every accepted packet has produced a verdict.
  /// Idempotent.
  void Stop();

  /// Routes `packet` to its device's shard. Returns true if the packet was
  /// accepted (it *will* be processed), false if it was shed under
  /// kDropNewest overload or after Stop(). With kBlock this waits for queue
  /// room and only returns false once the gateway is stopping.
  ///
  /// The packet is copy-assigned into the shard ring's slot under the queue
  /// lock; the caller keeps its own. Slots keep their buffers across packets
  /// (workers swap finished packets back in), so once every slot has held a
  /// packet as large as this one the copy is a memcpy and Submit allocates
  /// nothing. A refused packet is not copied.
  bool Submit(uint64_t device_id, const core::HttpPacket& packet);

  /// Publishes a new compiled matcher epoch. Rejects (returns false) null
  /// sets, version 0 (the "no feed yet" sentinel), and versions not strictly
  /// newer than the installed one, so late publishers can never roll the
  /// gateway back to a stale feed.
  bool Publish(std::shared_ptr<const match::CompiledSignatureSet> set);

  /// The currently installed epoch (null before the first Publish).
  std::shared_ptr<const match::CompiledSignatureSet> current_set() const {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    return compiled_;
  }

  /// Version of the installed epoch (0 before the first Publish).
  uint64_t current_version() const {
    return compiled_version_.load(std::memory_order_acquire);
  }

  size_t shard_of(uint64_t device_id) const;
  size_t num_shards() const { return shards_.size(); }

  /// The gateway's shape after construction-time normalization (zero
  /// shards/capacity/batch raised to 1). A caller building a sibling
  /// gateway of the same shape copies this and resets `registry`.
  const GatewayOptions& options() const { return options_; }

  /// The gateway's metrics registry (counters: gateway.submitted / dropped /
  /// processed / matched / swaps / swap_rejected, per-shard
  /// gateway.shard<i>.*; histograms: gateway.queue_wait_ns /
  /// gateway.match_ns / gateway.ingest_ns / gateway.verdict_ns; gauges:
  /// gateway.epoch_version, per-shard queue_depth refreshed at scrape time).
  /// The injected registry if GatewayOptions.registry was set, else the
  /// gateway-owned one (valid for the gateway's lifetime).
  obs::Registry* metrics() { return metrics_; }

  /// Nanoseconds of this clock's time since the last successful Publish
  /// (staleness of the serving epoch). 0 before the first publish.
  uint64_t epoch_age_ns() const;

  // Convenience totals (sums over shards where applicable).
  uint64_t submitted() const { return submitted_->Value(); }
  uint64_t dropped() const { return dropped_->Value(); }
  uint64_t processed() const { return processed_->Value(); }
  uint64_t matched() const { return matched_->Value(); }
  uint64_t swaps() const { return swaps_->Value(); }

 private:
  struct Item {
    core::HttpPacket packet;
    Clock::TimePoint enqueued;
  };
  struct Shard {
    explicit Shard(size_t capacity) : queue(capacity) {}
    BoundedQueue<Item> queue;
    obs::Counter* enqueued = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* processed = nullptr;
    obs::Counter* matched = nullptr;
    obs::Gauge* queue_depth = nullptr;  ///< refreshed by the collect hook
  };

  void WorkerLoop(size_t shard_index);

  GatewayOptions options_;
  Clock* clock_ = nullptr;
  // Private registry unless one was injected; `metrics_` always points at
  // the live one (declaration order matters: owned before the pointer).
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  // The published epoch. `compiled_` is guarded by `epoch_mu_`;
  // `compiled_version_` is the lock-free gate workers poll to learn that the
  // pointer changed (store-release under the mutex, load-relaxed on the hot
  // path).
  mutable std::mutex epoch_mu_;
  std::shared_ptr<const match::CompiledSignatureSet> compiled_;
  std::atomic<uint64_t> compiled_version_{0};
  PacketSink sink_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  obs::Counter* submitted_ = nullptr;
  obs::Counter* dropped_ = nullptr;
  obs::Counter* processed_ = nullptr;
  obs::Counter* matched_ = nullptr;
  obs::Counter* swaps_ = nullptr;
  obs::Counter* swap_rejected_ = nullptr;
  obs::Histogram* queue_wait_ns_ = nullptr;
  obs::Histogram* match_ns_ = nullptr;
  /// Submit() wall time (incl. backpressure).
  obs::Histogram* ingest_ns_ = nullptr;
  obs::Histogram* verdict_ns_ = nullptr;  ///< enqueue → sink-done per packet
  obs::Gauge* epoch_version_gauge_ = nullptr;
  /// ingest_ns/verdict_ns are sampled 1-in-kLatencySampleEvery: the extra
  /// clock read per observation is measurable at full ingest rate (clock
  /// reads are a syscall on some hosts), and a sampled latency histogram
  /// loses nothing for monitoring. queue_wait_ns/match_ns reuse timestamps
  /// the worker already takes, so they stay exhaustive.
  static constexpr uint64_t kLatencySampleEvery = 16;
  std::atomic<uint64_t> ingest_sample_{0};
  /// clock_->Now() of the last successful Publish, as ns since the clock's
  /// epoch; -1 before the first publish. Atomic so /statusz renderers on the
  /// admin thread can compute epoch age without touching epoch_mu_.
  std::atomic<int64_t> last_publish_ns_{-1};
};

}  // namespace leakdet::gateway

#endif  // LEAKDET_GATEWAY_GATEWAY_H_
