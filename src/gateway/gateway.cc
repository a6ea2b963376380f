#include "gateway/gateway.h"

#include <string>

#include "net/host.h"
#include "util/rng.h"

namespace leakdet::gateway {

DetectionGateway::DetectionGateway(GatewayOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()),
      owned_metrics_(options.registry != nullptr
                         ? nullptr
                         : std::make_unique<obs::Registry>()),
      metrics_(options.registry != nullptr ? options.registry
                                           : owned_metrics_.get()) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.pop_batch == 0) options_.pop_batch = 1;
  submitted_ = metrics_->GetCounter("gateway.submitted");
  dropped_ = metrics_->GetCounter("gateway.dropped");
  processed_ = metrics_->GetCounter("gateway.processed");
  matched_ = metrics_->GetCounter("gateway.matched");
  swaps_ = metrics_->GetCounter("gateway.swaps");
  swap_rejected_ = metrics_->GetCounter("gateway.swap_rejected");
  queue_wait_ns_ = metrics_->GetHistogram("gateway.queue_wait_ns");
  match_ns_ = metrics_->GetHistogram("gateway.match_ns");
  ingest_ns_ = metrics_->GetHistogram("gateway.ingest_ns");
  verdict_ns_ = metrics_->GetHistogram("gateway.verdict_ns");
  epoch_version_gauge_ = metrics_->GetGauge("gateway.epoch_version");
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity);
    std::string prefix = "gateway.shard" + std::to_string(i) + ".";
    shard->enqueued = metrics_->GetCounter(prefix + "enqueued");
    shard->dropped = metrics_->GetCounter(prefix + "dropped");
    shard->processed = metrics_->GetCounter(prefix + "processed");
    shard->matched = metrics_->GetCounter(prefix + "matched");
    shard->queue_depth = metrics_->GetGauge(prefix + "queue_depth");
    shards_.push_back(std::move(shard));
  }
  // Queue occupancy is refreshed at scrape time rather than maintained on
  // the hot path. The hook captures `this`, which is why an injected
  // registry must not outlive the gateway's scrapes (see GatewayOptions).
  metrics_->OnCollect([this] {
    for (auto& shard : shards_) {
      shard->queue_depth->Set(static_cast<int64_t>(shard->queue.size()));
    }
  });
}

DetectionGateway::~DetectionGateway() { Stop(); }

Status DetectionGateway::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("gateway already started");
  }
  workers_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

void DetectionGateway::Stop() {
  if (stopped_.exchange(true)) return;
  for (auto& shard : shards_) shard->queue.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

size_t DetectionGateway::shard_of(uint64_t device_id) const {
  return static_cast<size_t>(Mix64(device_id) % shards_.size());
}

uint64_t DetectionGateway::epoch_age_ns() const {
  int64_t published = last_publish_ns_.load(std::memory_order_relaxed);
  if (published < 0) return 0;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    clock_->Now().time_since_epoch())
                    .count();
  return now > published ? static_cast<uint64_t>(now - published) : 0;
}

bool DetectionGateway::Submit(uint64_t device_id,
                              const core::HttpPacket& packet) {
  Shard& shard = *shards_[shard_of(device_id)];
  // Ingest wall time includes backpressure: under kBlock a full shard makes
  // this timer the queue-wait signal callers actually feel. Sampled, and the
  // start timestamp is the enqueue time the slot carries anyway, so the
  // common case adds no clock read.
  const Clock::TimePoint ingest_start = clock_->Now();
  const bool sample_ingest =
      ingest_sample_.fetch_add(1, std::memory_order_relaxed) %
          kLatencySampleEvery ==
      0;
  // Copy-assigned into the slot: its strings keep the capacity of the
  // packets that held it before, so past warm-up the copy allocates nothing.
  auto fill = [&packet, ingest_start](Item& slot) {
    slot.packet = packet;
    slot.enqueued = ingest_start;
  };
  const bool accepted = shard.queue.PushWith(
      options_.overload == OverloadPolicy::kBlock, fill);
  if (accepted) {
    submitted_->Inc();
    shard.enqueued->Inc();
  } else {
    dropped_->Inc();
    shard.dropped->Inc();
  }
  if (sample_ingest) {
    ingest_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_->Now() -
                                                             ingest_start)
            .count()));
  }
  return accepted;
}

bool DetectionGateway::Publish(
    std::shared_ptr<const match::CompiledSignatureSet> set) {
  // Version 0 is the "no feed yet" sentinel the version gate starts at; a
  // version-0 epoch could never be distinguished from it.
  if (!set || set->version() == 0) return false;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (!compiled_ || set->version() > compiled_->version()) {
      uint64_t version = set->version();
      compiled_ = std::move(set);
      compiled_version_.store(version, std::memory_order_release);
      swaps_->Inc();
      epoch_version_gauge_->Set(static_cast<int64_t>(version));
      last_publish_ns_.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              clock_->Now().time_since_epoch())
              .count(),
          std::memory_order_relaxed);
      return true;
    }
  }
  swap_rejected_->Inc();
  return false;
}

void DetectionGateway::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  match::MatchScratch scratch;
  // This worker's cached matcher epoch; refreshed only when the published
  // version gate moves, so drained batches finish on the epoch they saw.
  std::shared_ptr<const match::CompiledSignatureSet> set;
  uint64_t set_version = 0;
  uint64_t verdict_sample = 0;  // per-worker 1-in-N latency sampling cursor
  // The worker's half of the swap pop: PopBatch trades these slots for the
  // queued ones, handing the finished packets' buffers back to the ring.
  std::vector<Item> batch(options_.pop_batch);
  // Per-batch scratch, sized once and reused so the steady state allocates
  // nothing (shrinking a vector of strings would free their buffers).
  std::vector<std::string> contents(batch.size());
  std::vector<std::string> domains(batch.size());
  std::vector<Verdict> verdicts(batch.size());
  while (true) {
    const size_t n = shard.queue.PopBatch(batch.data(), batch.size());
    if (n == 0) return;
    auto dequeued = clock_->Now();

    // One relaxed load of the version gate per *batch* (amortized epoch
    // pointer load). Take the epoch mutex only when a Publish() moved it.
    if (compiled_version_.load(std::memory_order_relaxed) != set_version) {
      std::lock_guard<std::mutex> lock(epoch_mu_);
      set = compiled_;
      set_version = set ? set->version() : 0;
    }

    // Pass 1: materialize contents and host domains, prefetching the next
    // packet's payload while the current one is being assembled, and record
    // queue wait (reuses the batch's dequeue timestamp — no extra clock
    // reads).
    for (size_t j = 0; j < n; ++j) {
      if (j + 1 < n) {
        const core::HttpPacket& next = batch[j + 1].packet;
        __builtin_prefetch(next.request_line.data());
        __builtin_prefetch(next.body.data());
      }
      const Item& item = batch[j];
      queue_wait_ns_->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dequeued -
                                                               item.enqueued)
              .count()));
      core::AppendPacketContent(item.packet, &contents[j]);
      net::RegistrableDomainInto(item.packet.destination.host, &domains[j]);
    }

    // Pass 2: match the batch. Counter deltas accumulate in locals and land
    // on the shared atomics once per batch (pass 3).
    uint64_t matched_in_batch = 0;
    auto match_start = clock_->Now();
    for (size_t j = 0; j < n; ++j) {
      Verdict& verdict = verdicts[j];
      verdict = Verdict{};
      verdict.shard = static_cast<uint32_t>(shard_index);
      if (set) {
        verdict.feed_version = set->version();
        verdict.num_matches = static_cast<uint32_t>(
            set->MatchInto(contents[j], domains[j], &scratch));
        verdict.sensitive = verdict.num_matches > 0;
      }
      if (verdict.sensitive) ++matched_in_batch;
    }
    // Whole-batch match time (the per-packet figure is this over n; two
    // clock reads per batch instead of two per packet).
    match_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_->Now() -
                                                             match_start)
            .count()));

    // Pass 3: one verdict flush, then one metrics update for the batch.
    for (size_t j = 0; j < n; ++j) {
      if (sink_) sink_(batch[j].packet, verdicts[j]);
      // End-to-end verdict latency: enqueue → sink done. This is the number
      // an operator alerts on — it folds queue wait, matching, and sink
      // cost into the latency a device's packet actually experienced.
      // Sampled (see kLatencySampleEvery): the clock read it needs is the
      // only one this loop doesn't already take.
      if (++verdict_sample % kLatencySampleEvery == 0) {
        verdict_ns_->Observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock_->Now() - batch[j].enqueued)
                .count()));
      }
    }
    processed_->Inc(n);
    shard.processed->Inc(n);
    if (matched_in_batch != 0) {
      matched_->Inc(matched_in_batch);
      shard.matched->Inc(matched_in_batch);
    }
  }
}

}  // namespace leakdet::gateway
