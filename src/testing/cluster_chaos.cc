#include "testing/cluster_chaos.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "core/detector.h"
#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "http/response.h"
#include "match/signature.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "testing/chaos_util.h"
#include "testing/packet_gen.h"
#include "testing/scripted_conn.h"
#include "util/rng.h"

namespace leakdet::testing {

std::string ClusterChaosResult::Summary() const {
  std::ostringstream out;
  out << "epochs=" << epochs << " ingested=" << ingested
      << " accepted=" << accepted << " delivered=" << delivered
      << " dropped=" << dropped << " in_flight=" << in_flight << "\n"
      << "verdicts_checked=" << verdicts_checked
      << " oracle_mismatches=" << oracle_mismatches
      << " epoch_mismatches=" << epoch_mismatches
      << " conservation_violations=" << conservation_violations
      << " barrier_timeouts=" << barrier_timeouts << "\n"
      << "feed_divergences=" << feed_divergences
      << " promote_divergences=" << promote_divergences
      << " convergence=" << convergence_checks << "/"
      << convergence_failures << " split_epoch_windows="
      << split_epoch_windows << "\n"
      << "replicated=" << records_replicated << " epochs_applied="
      << epochs_applied << " snapshots_installed=" << snapshots_installed
      << " sync_corruptions=" << sync_corruptions
      << " sync_failures=" << sync_failures << "\n"
      << "failovers=" << failovers << " failover_failures="
      << failover_failures << " kills=" << node_kills << " restarts="
      << node_restarts << " partitions=" << partitions << " heals=" << heals
      << "\n"
      << "training_packets=" << training_packets
      << " training_drops=" << training_drops
      << " statusz_checks=" << statusz_checks
      << " statusz_mismatches=" << statusz_mismatches << "\n"
      << "digest=" << std::hex << digest << std::dec
      << " verdict=" << (ok() ? "OK" : "FAILED");
  return out.str();
}

ClusterChaosResult RunClusterChaos(const ClusterChaosOptions& options) {
  ClusterChaosResult result;
  auto log = [&](const std::string& message) {
    if (options.log) options.log(message);
  };
  Rng rng(options.seed);
  const size_t num_nodes = options.nodes < 2 ? 2 : options.nodes;
  const size_t num_shards = options.shards == 0 ? 1 : options.shards;
  result.kill_requested = options.kill_leader_at_epoch > 0 &&
                          options.kill_leader_at_epoch <= options.epochs;
  result.partition_requested =
      options.partition_follower_at_epoch > 0 &&
      options.partition_follower_at_epoch <= options.epochs;

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

  // The shadow oracle: a never-crashed single-node trainer on this thread,
  // fed the identical training stream the cluster's leader receives. Every
  // feed it publishes is archived by version; cluster nodes must only ever
  // serve byte-identical copies of these.
  core::SignatureServer shadow(&payload_check, server_options);
  std::map<uint64_t, match::SignatureSet> archive;
  std::map<uint64_t, std::string> archive_bytes;
  shadow.SetFeedObserver(
      [&](uint64_t version, const match::SignatureSet& set) {
        archive.emplace(version, set);
        archive_bytes[version] = set.Serialize();
      });
  std::map<uint64_t, std::unique_ptr<core::Detector>> oracles;
  auto oracle_for = [&](uint64_t version) -> core::Detector* {
    auto it = oracles.find(version);
    if (it != oracles.end()) return it->second.get();
    match::SignatureSet set;  // version 0: nothing published yet
    auto archived = archive.find(version);
    if (archived != archive.end()) {
      set = archived->second;
    } else if (version != 0) {
      // A node is serving an epoch the shadow never produced — that is a
      // feed divergence in itself; the empty oracle will also flag verdicts.
      ++result.feed_divergences;
    }
    return oracles
        .emplace(version, std::make_unique<core::Detector>(
                              std::move(set), /*use_host_scope=*/true))
        .first->second.get();
  };

  // Per-slot scripted infrastructure. Disks are seeded per slot so crash
  // damage replays; the replication listeners share one fault script (the
  // control thread drives all replication I/O sequentially, so connection
  // ids — and therefore fault plans — are deterministic).
  std::vector<std::unique_ptr<ScriptedDir>> dirs;
  for (size_t i = 0; i < num_nodes; ++i) {
    dirs.push_back(std::make_unique<ScriptedDir>(
        options.seed * 1000003 + i, options.store_faults));
  }
  std::vector<ScriptedListener*> listeners(num_nodes, nullptr);

  // Delivery ledger: per-(slot, shard) verdict streams. Shard workers drain
  // FIFO, so each stream's order is the submission order — digestable.
  std::mutex records_mu;
  std::vector<std::vector<std::vector<VerdictRecord>>> records(
      num_nodes, std::vector<std::vector<VerdictRecord>>(num_shards));
  std::atomic<uint64_t> delivered{0};

  obs::Registry cluster_registry;
  cluster::ClusterOptions cluster_options;
  cluster_options.heartbeat_miss_threshold = options.heartbeat_miss_threshold;
  cluster_options.max_sync_retries = options.max_sync_retries;
  cluster_options.registry = &cluster_registry;
  cluster::Cluster cluster(cluster_options);

  std::map<std::string, size_t> slot_of;
  for (size_t i = 0; i < num_nodes; ++i) {
    const std::string id = "node-" + std::to_string(i);
    slot_of[id] = i;
    auto factory = [&, i,
                    id]() -> StatusOr<std::unique_ptr<cluster::ClusterNode>> {
      cluster::NodeOptions node_options;
      node_options.node_id = id;
      node_options.dir = dirs[i].get();
      node_options.data_dir = "node";
      node_options.oracle = &payload_check;
      node_options.server = server_options;
      node_options.gateway.num_shards = num_shards;
      node_options.gateway.queue_capacity =
          options.queue_capacity == 0 ? 1 : options.queue_capacity;
      node_options.gateway.pop_batch = 16;
      // kBlock keeps the run replayable: backpressure, never timing drops.
      node_options.gateway.overload = gateway::OverloadPolicy::kBlock;
      node_options.trainer.queue_capacity = 4096;
      node_options.feed.request_deadline_ms = 2000;
      node_options.replog_batch_limit = options.replog_batch_limit;
      // The chaos harness feeds the leader's trainer an explicit seeded
      // stream; detection traffic must not perturb the differential oracle.
      node_options.train_from_gateway = false;
      node_options.sink = [&records, &records_mu, &delivered, i, num_shards](
                              const core::HttpPacket& packet,
                              const gateway::Verdict& verdict) {
        {
          std::lock_guard<std::mutex> lock(records_mu);
          records[i][verdict.shard % num_shards].push_back(
              {packet.app_id, verdict});
        }
        delivered.fetch_add(1, std::memory_order_release);
      };
      LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<cluster::ClusterNode> node,
                               cluster::ClusterNode::Start(
                                   std::move(node_options)));
      auto listener = std::make_unique<ScriptedListener>(Clock::Real(),
                                                         &options.script);
      listeners[i] = listener.get();
      LEAKDET_RETURN_IF_ERROR(node->ServeReplication(std::move(listener)));
      return node;
    };
    auto connect = [&listeners,
                    i]() -> StatusOr<std::unique_ptr<net::Stream>> {
      std::unique_ptr<ScriptedStream> stream = listeners[i]->Connect();
      (void)stream->SetReadTimeout(5000);
      return StatusOr<std::unique_ptr<net::Stream>>(std::move(stream));
    };
    cluster.AddNode(id, std::move(factory), std::move(connect));
  }
  if (!cluster.Start(/*leader_index=*/0).ok()) {
    ++result.barrier_timeouts;
    return result;
  }

  // Admin plane: cluster membership/epoch-skew on /statusz, checked
  // transport-free via Respond() so a scripted fault can't fake a mismatch.
  obs::AdminServerOptions admin_options;
  admin_options.registry = &cluster_registry;
  obs::AdminServer admin(admin_options);
  cluster.AddStatusTo(&admin);

  // Expected verdict per trace index, fixed at submit time from the serving
  // node's epoch and the shadow archive's Detector for that version.
  std::vector<uint8_t> expected_sensitive;
  std::vector<uint64_t> expected_epoch;
  uint64_t cumulative_accepted = 0;
  uint32_t trace_index = 0;

  // Training-drop ledger across leader incarnations (a failover replaces
  // the TrainerLoop object, whose counter starts at zero).
  gateway::TrainerLoop* current_trainer = nullptr;
  uint64_t offers_to_trainer = 0;
  uint64_t drops_prev_incarnations = 0;
  uint64_t current_trainer_drops = 0;

  size_t killed_slot = num_nodes;  // num_nodes = no kill pending
  size_t restart_at_epoch = 0;
  size_t partitioned_slot = num_nodes;
  bool partition_active = false;
  bool aborted = false;

  for (size_t epoch = 1; epoch <= options.epochs && !aborted; ++epoch) {
    // ---- Scheduled restart: the killed slot rejoins as a follower. ------
    if (killed_slot < num_nodes && restart_at_epoch == epoch) {
      if (cluster.RestartNode(killed_slot).ok()) {
        ++result.node_restarts;
        log("epoch " + std::to_string(epoch) + ": node-" +
            std::to_string(killed_slot) + " restarted");
      } else {
        ++result.failover_failures;
      }
      restart_at_epoch = 0;
    }

    const size_t leader = cluster.leader_index();
    cluster::ClusterNode* leader_node = cluster.node(leader);
    if (leader_node == nullptr || !cluster.alive(leader)) {
      ++result.barrier_timeouts;  // driver invariant broken — fatal
      break;
    }
    gateway::TrainerLoop* trainer = leader_node->trainer();
    if (trainer == nullptr) {
      ++result.barrier_timeouts;
      break;
    }
    if (trainer != current_trainer) {
      if (current_trainer != nullptr) {
        drops_prev_incarnations += current_trainer_drops;
      }
      current_trainer = trainer;
      current_trainer_drops = 0;
      offers_to_trainer = 0;
    }

    // ---- Phase 1: train the leader; the shadow ingests the same stream
    // in the same order (the trainer's mailbox is FIFO). ------------------
    const size_t sensitive_needed = server_options.retrain_after;
    for (size_t i = 0; i < sensitive_needed; ++i) {
      core::HttpPacket packet = GeneratePacket(&rng, tokens, 1.0);
      gateway::Verdict verdict;
      verdict.sensitive = true;
      if (trainer->Offer(packet, verdict)) {
        ++offers_to_trainer;
        shadow.Ingest(packet);
      }
      ++result.training_packets;
      if (i % 2 == 1) {
        core::HttpPacket normal = GeneratePacket(&rng, {}, 0.0);
        if (trainer->Offer(normal, gateway::Verdict{})) {
          ++offers_to_trainer;
          shadow.Ingest(normal);
        }
        ++result.training_packets;
      }
    }
    const uint64_t target_version = shadow.feed_version();

    // ---- Publish barrier. items_processed()'s release/acquire pairing is
    // what makes the leader's store safe to touch from this thread below.
    const uint64_t quiesce_target = offers_to_trainer;
    if (!WaitUntil([&] {
          return trainer->items_processed() >= quiesce_target &&
                 leader_node->epoch_version() >= target_version;
        })) {
      log("epoch " + std::to_string(epoch) + ": publish barrier timed out");
      ++result.barrier_timeouts;
      break;
    }
    current_trainer_drops = trainer->training_drops();
    // Quiesced: flush the leader's log so /replog serves every record.
    (void)leader_node->store().Sync();

    // ---- Differential feed check: leader vs shadow, byte-for-byte. ------
    {
      auto compiled = leader_node->gateway().current_set();
      if (compiled == nullptr || compiled->version() != target_version ||
          compiled->set().Serialize() != archive_bytes[target_version]) {
        ++result.feed_divergences;
      }
    }

    // ---- Scheduled partition: sever one follower before replication, so
    // it serves this epoch's detection traffic on its stale feed. ---------
    if (epoch == options.partition_follower_at_epoch && !partition_active) {
      for (size_t i = 0; i < num_nodes; ++i) {
        if (i != leader && cluster.alive(i)) {
          partitioned_slot = i;
          break;
        }
      }
      if (partitioned_slot < num_nodes) {
        cluster.SetReachable(partitioned_slot, leader, false);
        partition_active = true;
        ++result.partitions;
        log("epoch " + std::to_string(epoch) + ": partitioned node-" +
            std::to_string(partitioned_slot));
      }
    }

    // ---- Phase 2: replication round + convergence checks. ---------------
    cluster::Cluster::SyncStats sync = cluster.SyncFollowers();
    result.records_replicated += sync.records_replicated;
    result.epochs_applied += sync.epochs_applied;
    result.snapshots_installed += sync.snapshots_installed;
    result.sync_corruptions += sync.corruptions_detected;
    result.sync_failures += sync.failures;
    const uint64_t leader_wal = leader_node->wal_last_sequence();
    for (size_t i = 0; i < num_nodes; ++i) {
      if (i == leader || !cluster.alive(i)) continue;
      cluster::ClusterNode* follower = cluster.node(i);
      if (partition_active && i == partitioned_slot) {
        // The split-epoch window: it must still be serving, just stale.
        if (follower->epoch_version() < target_version) {
          ++result.split_epoch_windows;
        }
        continue;
      }
      ++result.convergence_checks;
      if (follower->epoch_version() != target_version ||
          follower->wal_last_sequence() != leader_wal) {
        ++result.convergence_failures;
      }
    }

    // ---- Phase 3: ring-routed detection batch, verified per-node against
    // the Detector oracle for the exact epoch that node is serving. -------
    for (size_t i = 0; i < options.packets_per_epoch; ++i) {
      core::HttpPacket packet =
          GeneratePacket(&rng, tokens, options.p_sensitive);
      packet.app_id = trace_index;
      const uint64_t device_id =
          rng.UniformInt(options.devices == 0 ? 1 : options.devices);
      const std::string route = cluster.RouteFor(device_id);
      auto slot_it = slot_of.find(route);
      if (slot_it == slot_of.end()) {
        ++result.conservation_violations;  // empty ring mid-run — fatal
        aborted = true;
        break;
      }
      cluster::ClusterNode* target = cluster.node(slot_it->second);
      const uint64_t serving_version =
          target != nullptr ? target->epoch_version() : 0;
      expected_sensitive.push_back(
          oracle_for(serving_version)->IsSensitive(packet) ? 1 : 0);
      expected_epoch.push_back(serving_version);
      ++result.ingested;
      if (cluster.Submit(device_id, packet)) {
        ++result.accepted;
        ++cumulative_accepted;
      }
      ++trace_index;
    }
    if (aborted) break;
    if (!WaitUntil([&] {
          return delivered.load(std::memory_order_acquire) >=
                 cumulative_accepted;
        })) {
      log("epoch " + std::to_string(epoch) + ": delivery barrier timed out");
      ++result.barrier_timeouts;
      break;
    }

    // ---- Phase 4: /statusz vs live cluster state (transport-free). ------
    {
      http::HttpResponse statusz = admin.Respond("GET", "/statusz");
      ++result.statusz_checks;
      std::optional<uint64_t> members =
          StatuszValue(statusz.body(), "members");
      std::optional<uint64_t> alive = StatuszValue(statusz.body(), "alive");
      const std::string leader_line = "leader: node-" + std::to_string(leader);
      const bool leader_listed =
          statusz.body().find(leader_line) != std::string::npos;
      obs::Gauge* leader_epoch_gauge = cluster_registry.GetGauge(
          "cluster.epoch_version", {{"node", "node-" + std::to_string(leader)}});
      if (statusz.status_code() != 200 || !members || *members != num_nodes ||
          !alive || *alive != cluster.num_alive() || !leader_listed ||
          leader_epoch_gauge->Value() !=
              static_cast<int64_t>(target_version)) {
        ++result.statusz_mismatches;
      }
    }

    // ---- Phase 5: heartbeat round. A live leader must never be deposed —
    // the partitioned follower alone cannot split the brain. --------------
    cluster.PollHeartbeats();
    if (cluster.MaybeFailover()) ++result.failover_failures;

    // ---- Scheduled heal: the split window closes; next epoch's
    // replication round must re-converge the stale follower. --------------
    if (partition_active && epoch == options.partition_follower_at_epoch) {
      cluster.SetReachable(partitioned_slot, leader, true);
      partition_active = false;
      ++result.heals;
      log("epoch " + std::to_string(epoch) + ": healed node-" +
          std::to_string(partitioned_slot));
    }

    // ---- Scheduled kill: graceful drain (conservation must survive via
    // the retired ledger), then the disk crashes, then a follower must win
    // the election and serve the shadow's exact feed from its own WAL. ----
    if (epoch == options.kill_leader_at_epoch && killed_slot == num_nodes) {
      drops_prev_incarnations += trainer->training_drops();
      current_trainer = nullptr;
      current_trainer_drops = 0;
      killed_slot = leader;
      if (!cluster.KillLeader().ok()) {
        ++result.failover_failures;
        break;
      }
      ++result.node_kills;
      dirs[killed_slot]->Crash();
      for (size_t round = 0; round < options.heartbeat_miss_threshold;
           ++round) {
        cluster.PollHeartbeats();
      }
      if (!cluster.MaybeFailover()) {
        ++result.failover_failures;
        break;
      }
      cluster::ClusterNode* promoted = cluster.node(cluster.leader_index());
      auto compiled =
          promoted != nullptr ? promoted->gateway().current_set() : nullptr;
      if (compiled == nullptr ||
          compiled->version() != shadow.feed_version() ||
          compiled->set().Serialize() !=
              archive_bytes[shadow.feed_version()]) {
        ++result.promote_divergences;
      }
      restart_at_epoch = epoch + (options.restart_killed_after == 0
                                      ? 1
                                      : options.restart_killed_after);
      log("epoch " + std::to_string(epoch) + ": killed node-" +
          std::to_string(killed_slot) + ", leader is now node-" +
          std::to_string(cluster.leader_index()));
    }

    ++result.epochs;
    log("epoch " + std::to_string(epoch) + " done: accepted=" +
        std::to_string(cumulative_accepted));
  }

  // A restart still pending when the loop ends happens now, so the ledger
  // (and the reopen path) is exercised even by short schedules.
  if (killed_slot < num_nodes && restart_at_epoch != 0) {
    if (cluster.RestartNode(killed_slot).ok()) ++result.node_restarts;
  }

  // ---- Final drain + verification. ------------------------------------
  cluster.Shutdown();
  if (current_trainer != nullptr) {
    drops_prev_incarnations += current_trainer->training_drops();
  }
  result.training_drops = drops_prev_incarnations;
  result.failovers = cluster.failovers();

  cluster::Cluster::Totals totals = cluster.GatewayTotals();
  result.dropped = totals.dropped;
  {
    std::lock_guard<std::mutex> lock(records_mu);
    uint64_t recorded = 0;
    for (const auto& node_records : records) {
      for (const auto& shard_records : node_records) {
        recorded += shard_records.size();
      }
    }
    result.delivered = recorded;
  }
  result.in_flight = result.accepted - result.delivered;
  // Exact conservation across every incarnation: what the driver got into a
  // gateway equals what the gateways admit to, and every admitted packet
  // came back out as exactly one verdict.
  if (result.accepted != totals.submitted ||
      result.delivered != totals.processed ||
      result.accepted + result.dropped >
          result.ingested + totals.dropped) {
    ++result.conservation_violations;
  }

  Fnv1a digest;
  {
    std::lock_guard<std::mutex> lock(records_mu);
    for (size_t slot = 0; slot < records.size(); ++slot) {
      for (size_t shard = 0; shard < records[slot].size(); ++shard) {
        digest.Mix(0xC1A50000ULL + slot * 1024 + shard);
        for (const VerdictRecord& record : records[slot][shard]) {
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
  }
  digest.Mix(result.epochs);
  digest.Mix(result.ingested);
  digest.Mix(result.accepted);
  digest.Mix(result.dropped);
  digest.Mix(result.delivered);
  digest.Mix(result.verdicts_checked);
  digest.Mix(result.oracle_mismatches);
  digest.Mix(result.epoch_mismatches);
  digest.Mix(result.feed_divergences);
  digest.Mix(result.promote_divergences);
  digest.Mix(result.split_epoch_windows);
  digest.Mix(result.records_replicated);
  digest.Mix(result.failovers);
  digest.Mix(result.node_kills);
  digest.Mix(result.node_restarts);
  digest.Mix(result.partitions);
  digest.Mix(result.heals);
  digest.Mix(result.training_packets);
  result.digest = digest.hash;
  return result;
}

}  // namespace leakdet::testing
