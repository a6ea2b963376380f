#include "core/signature_server.h"

namespace leakdet::core {

SignatureServer::SignatureServer(const PayloadCheck* oracle, Options options)
    : oracle_(oracle), options_(options) {}

void SignatureServer::DropEvicted(std::vector<HttpPacket>* pool,
                                  size_t* evicted) {
  if (*evicted == 0) return;
  pool->erase(pool->begin(),
              pool->begin() + static_cast<std::ptrdiff_t>(*evicted));
  *evicted = 0;
}

void SignatureServer::PushCapped(const HttpPacket& packet, size_t cap,
                                 std::vector<HttpPacket>* pool,
                                 size_t* evicted) {
  pool->push_back(packet);
  if (pool->size() - *evicted > cap) *evicted = pool->size() - cap;
  // One erase per `cap` evictions keeps eviction O(1) amortized per packet
  // and the vector under twice the cap.
  if (*evicted >= cap) DropEvicted(pool, evicted);
}

void SignatureServer::Restore(State state) {
  suspicious_ = std::move(state.suspicious);
  normal_ = std::move(state.normal);
  suspicious_evicted_ = 0;
  normal_evicted_ = 0;
  new_suspicious_ = state.new_suspicious;
  signatures_ = std::move(state.signatures);
  last_distance_stats_ = DistanceMatrixStats{};
  ++restore_generation_;
  feed_version_.store(state.feed_version, std::memory_order_release);
  if (state.feed_version != 0 && feed_observer_) {
    feed_observer_(state.feed_version, signatures_);
  }
}

bool SignatureServer::FileIntoPool(const HttpPacket& packet) {
  if (oracle_->IsSensitive(packet)) {
    PushCapped(packet, options_.max_suspicious_pool, &suspicious_,
               &suspicious_evicted_);
    ++new_suspicious_;
    return true;
  }
  PushCapped(packet, options_.max_normal_pool, &normal_, &normal_evicted_);
  return false;
}

void SignatureServer::IngestWithoutRetrain(
    const std::vector<HttpPacket>& packets) {
  for (const HttpPacket& packet : packets) FileIntoPool(packet);
  // A retrain reads the pools, which drops their evicted prefix; without
  // this a long recovery would hold up to twice the cap per pool.
  DropEvicted(&suspicious_, &suspicious_evicted_);
  DropEvicted(&normal_, &normal_evicted_);
}

bool SignatureServer::Ingest(const HttpPacket& packet) {
  if (FileIntoPool(packet) && new_suspicious_ >= options_.retrain_after) {
    return Retrain();
  }
  return false;
}

void SignatureServer::InstallEpoch(uint64_t version, size_t new_suspicious,
                                   match::SignatureSet signatures) {
  signatures_ = std::move(signatures);
  new_suspicious_ = new_suspicious;
  last_distance_stats_ = DistanceMatrixStats{};
  feed_version_.store(version, std::memory_order_release);
  if (feed_observer_) feed_observer_(version, signatures_);
}

bool SignatureServer::Retrain() {
  if (suspicious_pool_size() == 0) return false;
  PipelineOptions options = options_.pipeline;
  // Vary the sampling stream per feed version so successive retrains see
  // fresh samples (still deterministic overall). The pipeline derives the
  // stream via MixSeed(seed, feed_version); the old additive
  // `seed + version * 0x9E37` produced closely correlated xoshiro states.
  uint64_t version = feed_version_.load(std::memory_order_relaxed);
  options.feed_version = version;
  StatusOr<PipelineResult> result =
      training_backend_ != nullptr
          ? training_backend_(suspicious_pool(), normal_pool(), options)
          : RunPipeline(suspicious_pool(), normal_pool(), options);
  if (!result.ok()) return false;
  if (feed_transform_) {
    signatures_ = feed_transform_(version + 1, std::move(result->signatures));
  } else {
    signatures_ = std::move(result->signatures);
  }
  last_distance_stats_ = result->distance_stats;
  feed_version_.store(version + 1, std::memory_order_release);
  new_suspicious_ = 0;
  if (feed_observer_) feed_observer_(version + 1, signatures_);
  return true;
}

}  // namespace leakdet::core
