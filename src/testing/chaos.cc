#include "testing/chaos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "http/response.h"
#include "http/server.h"
#include "io/feed_server.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "store/store_manager.h"
#include "testing/chaos_util.h"
#include "testing/packet_gen.h"
#include "testing/scripted_conn.h"
#include "testing/scripted_file.h"
#include "util/rng.h"

namespace leakdet::testing {

std::string ChaosResult::Summary() const {
  std::ostringstream out;
  out << "epochs=" << epochs << " ingested=" << ingested
      << " accepted=" << accepted << " delivered=" << delivered
      << " dropped=" << dropped << " in_flight=" << in_flight << "\n"
      << "verdicts_checked=" << verdicts_checked
      << " oracle_mismatches=" << oracle_mismatches
      << " epoch_mismatches=" << epoch_mismatches
      << " conservation_violations=" << conservation_violations << "\n"
      << "swaps=" << swaps << " trainer_restarts=" << trainer_restarts
      << " training_packets=" << training_packets
      << " training_drops=" << training_drops
      << " torn_epochs=" << torn_epochs
      << " barrier_timeouts=" << barrier_timeouts << "\n"
      << "feed_fetches=" << feed_fetches << " ok=" << feed_fetch_ok
      << " errors=" << feed_fetch_errors
      << " corruptions_detected=" << feed_corruptions_detected
      << " integrity_violations=" << feed_integrity_violations << "\n"
      << "admin_fetches=" << admin_fetches << " ok=" << admin_fetch_ok
      << " errors=" << admin_fetch_errors
      << " statusz_checks=" << statusz_checks
      << " statusz_mismatches=" << statusz_mismatches << "\n"
      << "overflow_probes=" << overflow_probes
      << " overflow_drop_mismatches=" << overflow_drop_mismatches << "\n"
      << "digest=" << std::hex << digest << std::dec
      << " verdict=" << (ok() ? "OK" : "FAILED");
  return out.str();
}

ChaosResult RunChaos(const ChaosOptions& options) {
  ChaosResult result;
  auto log = [&](const std::string& message) {
    if (options.log) options.log(message);
  };
  Rng rng(options.seed);
  const FaultProfile& profile = options.script.profile();

  // The instrumented handset whose identifiers make ground truth: training
  // packets embed these tokens, the PayloadCheck oracle knows them.
  std::vector<core::DeviceTokens> devices(2);
  for (core::DeviceTokens& device : devices) {
    device.android_id = rng.RandomHex(16);
    device.imei = rng.RandomDigits(15);
    device.imsi = rng.RandomDigits(15);
    device.sim_serial = rng.RandomDigits(19);
    device.carrier = "NTT DOCOMO";
  }
  std::vector<std::string> tokens;
  for (const core::DeviceTokens& device : devices) {
    tokens.push_back(device.android_id);
    tokens.push_back(device.imei);
  }
  core::PayloadCheck payload_check(devices);

  core::SignatureServer::Options server_options;
  server_options.retrain_after =
      options.retrain_after == 0 ? 1 : options.retrain_after;
  server_options.pipeline.sample_size = 16;
  server_options.pipeline.normal_corpus_size = 64;
  server_options.pipeline.num_threads = 1;  // deterministic generation
  core::SignatureServer server(&payload_check, server_options);

  // One registry for the whole serving stack, so the admin plane scrapes
  // gateway, trainer, store, and feed metrics from a single place. Declared
  // before every component that registers into it (destroyed after them).
  obs::Registry registry;

  // Durable store on a fault-free in-memory Dir: the trainer WAL-appends
  // every mailbox item and snapshots every epoch, and /statusz must agree
  // with the live WAL watermarks it mirrors into the registry's gauges.
  ScriptedDir store_dir(options.seed);
  std::unique_ptr<store::StoreManager> store;
  {
    store::StoreOptions store_options;
    store_options.registry = &registry;
    auto opened =
        store::StoreManager::Open(&store_dir, "chaos-store", store_options);
    if (!opened.ok()) {
      ++result.barrier_timeouts;
      return result;
    }
    store = std::move(*opened);
  }

  gateway::GatewayOptions gateway_options;
  gateway_options.registry = &registry;
  gateway_options.num_shards = options.shards == 0 ? 1 : options.shards;
  gateway_options.queue_capacity =
      options.queue_capacity == 0 ? 1 : options.queue_capacity;
  gateway_options.pop_batch = 16;
  // kBlock is what makes the run replayable: backpressure instead of
  // timing-dependent drops. kDropNewest accounting gets its own probes.
  gateway_options.overload = gateway::OverloadPolicy::kBlock;
  gateway::DetectionGateway gateway(gateway_options);

  const size_t num_shards = gateway.num_shards();
  std::mutex records_mu;
  std::vector<std::vector<VerdictRecord>> shard_records(num_shards);
  std::atomic<uint64_t> delivered{0};
  gateway.set_sink([&](const core::HttpPacket& packet,
                       const gateway::Verdict& verdict) {
    {
      std::lock_guard<std::mutex> lock(records_mu);
      shard_records[verdict.shard].push_back({packet.app_id, verdict});
    }
    delivered.fetch_add(1, std::memory_order_release);
  });
  if (!gateway.Start().ok()) {
    ++result.barrier_timeouts;
    return result;
  }

  gateway::TrainerOptions trainer_options;
  trainer_options.queue_capacity = 4096;
  trainer_options.store = store.get();
  auto trainer =
      std::make_unique<gateway::TrainerLoop>(&server, &gateway,
                                             trainer_options);
  if (!trainer->Start().ok()) {
    ++result.barrier_timeouts;
    return result;
  }

  // Feed side: a FeedServer on scripted connections, serving a snapshot the
  // main thread refreshes at each publish barrier (the SignatureServer
  // itself is only safe on the training thread).
  std::mutex feed_mu;
  uint64_t feed_version = 0;
  std::string feed_payload;
  io::FeedServerOptions feed_options;
  feed_options.request_deadline_ms = 2000;
  io::FeedServer feed_server(
      [&]() {
        std::lock_guard<std::mutex> lock(feed_mu);
        return std::make_pair(feed_version, feed_payload);
      },
      feed_options);
  auto listener = std::make_unique<ScriptedListener>(Clock::Real(),
                                                     &options.script);
  ScriptedListener* listener_ptr = listener.get();
  if (!feed_server.Start(std::move(listener)).ok()) {
    ++result.barrier_timeouts;
    return result;
  }

  // Admin plane on its own scripted listener: the same fault schedule that
  // batters the feed path covers /metrics and /statusz. The status sections
  // only read atomics/gauges, per AdminServer's thread-safety contract.
  obs::AdminServerOptions admin_options;
  admin_options.registry = &registry;
  obs::AdminServer admin(admin_options);
  admin.AddStatusSection("gateway", [&gateway] {
    std::ostringstream out;
    out << "epoch_version: " << gateway.current_version() << "\n"
        << "epoch_age_ns: " << gateway.epoch_age_ns() << "\n";
    return out.str();
  });
  obs::Gauge* wal_last_gauge = registry.GetGauge("store.wal_last_sequence");
  admin.AddStatusSection("store", [&registry, wal_last_gauge] {
    std::ostringstream out;
    out << "wal_last_sequence: " << wal_last_gauge->Value() << "\n"
        << "wal_durable_sequence: "
        << registry.GetGauge("store.wal_durable_sequence")->Value() << "\n"
        << "snapshot_version: "
        << registry.GetGauge("store.snapshot_version")->Value() << "\n";
    return out.str();
  });
  auto admin_listener = std::make_unique<ScriptedListener>(Clock::Real(),
                                                           &options.script);
  ScriptedListener* admin_listener_ptr = admin_listener.get();
  if (!admin.Start(std::move(admin_listener)).ok()) {
    ++result.barrier_timeouts;
    return result;
  }

  // Expected verdict per trace index, from the Detector oracle built at each
  // epoch's publish barrier.
  std::vector<uint8_t> expected_sensitive;
  std::vector<uint64_t> expected_epoch;
  uint64_t cumulative_accepted = 0;
  uint32_t trace_index = 0;
  bool aborted = false;

  for (size_t epoch = 1; epoch <= options.epochs && !aborted; ++epoch) {
    // ---- Phase 1: train until this epoch publishes. -------------------
    const bool kill_trainer = profile.trainer_kill_every > 0 &&
                              epoch % profile.trainer_kill_every == 0;
    const size_t sensitive_needed = server_options.retrain_after;
    const size_t kill_at = sensitive_needed / 2;
    for (size_t i = 0; i < sensitive_needed; ++i) {
      if (kill_trainer && i == kill_at) {
        // Chaos: tear the training loop down mid-epoch (Stop drains the
        // mailbox, so ingestion stays deterministic) and stand up a fresh
        // one. The gateway must keep serving the last published epoch.
        trainer->Stop();
        trainer.reset();
        trainer = std::make_unique<gateway::TrainerLoop>(&server, &gateway,
                                                         trainer_options);
        if (!trainer->Start().ok()) {
          aborted = true;
          break;
        }
        ++result.trainer_restarts;
      }
      core::HttpPacket packet = GeneratePacket(&rng, tokens, 1.0);
      gateway::Verdict verdict;
      verdict.sensitive = true;
      trainer->Offer(packet, verdict);
      ++result.training_packets;
      if (i % 2 == 1) {
        core::HttpPacket normal = GeneratePacket(&rng, {}, 0.0);
        trainer->Offer(normal, gateway::Verdict{});
        ++result.training_packets;
      }
    }
    if (aborted) break;
    if (!WaitUntil([&] { return gateway.current_version() >= epoch; })) {
      log("epoch " + std::to_string(epoch) + ": publish barrier timed out");
      ++result.barrier_timeouts;
      break;
    }

    // ---- Publish barrier: snapshot the epoch, build the oracle. -------
    auto compiled = gateway.current_set();
    if (!compiled || compiled->version() != epoch ||
        gateway.current_version() != compiled->version()) {
      ++result.torn_epochs;
    }
    if (!compiled) {
      ++result.barrier_timeouts;
      break;
    }
    core::Detector oracle(compiled->set(), /*use_host_scope=*/true);
    {
      std::lock_guard<std::mutex> lock(feed_mu);
      feed_version = compiled->version();
      feed_payload = compiled->set().Serialize();
    }

    // ---- Phase 2: detection batch, verified against the oracle. -------
    // The publish happened-before our acquire read of current_version(),
    // and the queue mutex carries that edge to the workers: every packet
    // below is matched under exactly this epoch.
    for (size_t i = 0; i < options.packets_per_epoch; ++i) {
      core::HttpPacket packet =
          GeneratePacket(&rng, tokens, options.p_sensitive);
      packet.app_id = trace_index;
      expected_sensitive.push_back(oracle.IsSensitive(packet) ? 1 : 0);
      expected_epoch.push_back(epoch);
      uint64_t device_id = rng.UniformInt(64);
      ++result.ingested;
      if (gateway.Submit(device_id, packet)) {
        ++result.accepted;
        ++cumulative_accepted;
      }
      ++trace_index;
    }
    if (!WaitUntil([&] {
          return delivered.load(std::memory_order_acquire) >=
                 cumulative_accepted;
        })) {
      log("epoch " + std::to_string(epoch) + ": delivery barrier timed out");
      ++result.barrier_timeouts;
      break;
    }

    // ---- Phase 3: feed fetches over scripted (faulty) connections. ----
    for (size_t i = 0; i < options.feed_fetches_per_epoch; ++i) {
      std::unique_ptr<ScriptedStream> client = listener_ptr->Connect();
      (void)client->SetReadTimeout(5000);
      ++result.feed_fetches;
      StatusOr<io::FetchedFeed> fetched = io::FetchFeedFrom(client.get());
      if (fetched.ok()) {
        std::lock_guard<std::mutex> lock(feed_mu);
        if (fetched->version == feed_version &&
            fetched->payload == feed_payload) {
          ++result.feed_fetch_ok;
        } else {
          // A fetch that "succeeded" with a payload that is not the one the
          // provider served means the digest header failed its one job.
          ++result.feed_integrity_violations;
        }
      } else {
        ++result.feed_fetch_errors;
        if (fetched.status().code() == StatusCode::kCorruption) {
          ++result.feed_corruptions_detected;
        }
      }
    }

    // ---- Phase 3.5: admin plane. Wire fetches exercise the fault
    // schedule (their outcomes are interleaving-dependent — counted, not
    // digested); the consistency check runs transport-free via Respond()
    // so a scripted bit flip can never fake a /statusz mismatch.
    for (const char* admin_path : {"/healthz", "/metrics", "/statusz"}) {
      std::unique_ptr<ScriptedStream> admin_client =
          admin_listener_ptr->Connect();
      (void)admin_client->SetReadTimeout(5000);
      ++result.admin_fetches;
      StatusOr<http::HttpResponse> fetched =
          http::Get(admin_client.get(), admin_path);
      if (fetched.ok() && fetched->status_code() == 200) {
        ++result.admin_fetch_ok;
      } else {
        ++result.admin_fetch_errors;
      }
    }
    {
      // Trailing training appends may still be draining, so the WAL
      // watermark is checked by bracketing; the epoch is quiescent between
      // the publish barrier and the next batch, so it must match exactly.
      const int64_t wal_before = wal_last_gauge->Value();
      http::HttpResponse statusz = admin.Respond("GET", "/statusz");
      const int64_t wal_after = wal_last_gauge->Value();
      ++result.statusz_checks;
      std::optional<uint64_t> statusz_version =
          StatuszValue(statusz.body(), "epoch_version");
      std::optional<uint64_t> statusz_wal =
          StatuszValue(statusz.body(), "wal_last_sequence");
      if (statusz.status_code() != 200 || !statusz_version ||
          *statusz_version != epoch || !statusz_wal ||
          *statusz_wal < static_cast<uint64_t>(wal_before) ||
          *statusz_wal > static_cast<uint64_t>(wal_after)) {
        ++result.statusz_mismatches;
      }
    }

    // ---- Phase 4: kDropNewest exact-accounting probe. -----------------
    if (profile.burst_multiplier > 0) {
      ++result.overflow_probes;
      gateway::GatewayOptions probe_options;
      probe_options.num_shards = 1;
      probe_options.queue_capacity = 32;
      probe_options.overload = gateway::OverloadPolicy::kDropNewest;
      gateway::DetectionGateway probe(probe_options);
      probe.Publish(compiled);
      // Workers are not started yet, so acceptance is a pure function of
      // queue occupancy: exactly `capacity` accepted, the rest dropped.
      const size_t burst =
          static_cast<size_t>(profile.burst_multiplier) *
          probe_options.queue_capacity;
      uint64_t probe_accepted = 0;
      for (size_t i = 0; i < burst; ++i) {
        core::HttpPacket packet = GeneratePacket(&rng, tokens, 0.5);
        if (probe.Submit(/*device_id=*/0, packet)) {
          ++probe_accepted;
        }
      }
      const uint64_t expected_accepted =
          std::min<uint64_t>(burst, probe_options.queue_capacity);
      if (probe_accepted != expected_accepted ||
          probe.dropped() != burst - expected_accepted ||
          probe.submitted() != expected_accepted) {
        ++result.overflow_drop_mismatches;
      }
      if (!probe.Start().ok()) ++result.overflow_drop_mismatches;
      probe.Stop();
      if (probe.processed() != probe_accepted ||
          probe.submitted() + probe.dropped() != burst) {
        ++result.conservation_violations;
      }
    }

    ++result.epochs;
    log("epoch " + std::to_string(epoch) + " done: accepted=" +
        std::to_string(cumulative_accepted));
  }

  // ---- Final drain + verification. ------------------------------------
  feed_server.Stop();
  admin.Stop();
  trainer->Stop();
  result.training_drops = trainer->training_drops();
  gateway.Stop();  // every accepted packet has a verdict after this
  (void)store->Sync();

  // Fully quiesced now, so /statusz (Respond() stays usable after Stop())
  // must agree with the store and gateway exactly, not just by bracketing.
  {
    http::HttpResponse statusz = admin.Respond("GET", "/statusz");
    ++result.statusz_checks;
    std::optional<uint64_t> statusz_version =
        StatuszValue(statusz.body(), "epoch_version");
    std::optional<uint64_t> statusz_wal =
        StatuszValue(statusz.body(), "wal_last_sequence");
    if (!statusz_version || *statusz_version != gateway.current_version() ||
        !statusz_wal || *statusz_wal != store->last_sequence()) {
      ++result.statusz_mismatches;
    }
  }

  result.swaps = gateway.swaps();
  result.dropped += gateway.dropped();
  {
    std::lock_guard<std::mutex> lock(records_mu);
    uint64_t recorded = 0;
    for (const auto& records : shard_records) recorded += records.size();
    result.delivered = recorded;
  }
  result.in_flight = result.accepted - result.delivered;
  if (result.accepted + result.dropped != result.ingested ||
      result.delivered != gateway.processed()) {
    ++result.conservation_violations;
  }

  Fnv1a digest;
  {
    std::lock_guard<std::mutex> lock(records_mu);
    for (size_t shard = 0; shard < shard_records.size(); ++shard) {
      digest.Mix(0x5A5A0000ULL + shard);
      for (const VerdictRecord& record : shard_records[shard]) {
        const uint32_t index = record.trace_index;
        if (index < expected_sensitive.size()) {
          ++result.verdicts_checked;
          if (record.verdict.sensitive != (expected_sensitive[index] != 0)) {
            ++result.oracle_mismatches;
          }
          if (record.verdict.feed_version != expected_epoch[index]) {
            ++result.epoch_mismatches;
          }
        } else {
          ++result.oracle_mismatches;  // verdict for a packet never sent
        }
        digest.Mix(index);
        digest.Mix(record.verdict.feed_version);
        digest.Mix(record.verdict.sensitive ? 1 : 0);
        digest.Mix(record.verdict.num_matches);
      }
    }
  }
  digest.Mix(result.epochs);
  digest.Mix(result.ingested);
  digest.Mix(result.accepted);
  digest.Mix(result.dropped);
  digest.Mix(result.delivered);
  digest.Mix(result.verdicts_checked);
  digest.Mix(result.oracle_mismatches);
  digest.Mix(result.epoch_mismatches);
  digest.Mix(result.swaps);
  digest.Mix(result.trainer_restarts);
  digest.Mix(result.training_packets);
  digest.Mix(result.overflow_probes);
  digest.Mix(result.overflow_drop_mismatches);
  result.digest = digest.hash;
  return result;
}

}  // namespace leakdet::testing
