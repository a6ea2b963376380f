// Real-socket gateway cluster: stands up N ClusterNodes on the local
// filesystem with TCP replication endpoints on 127.0.0.1, routes seeded
// detection traffic across the ring, replicates the leader's WAL to every
// follower each epoch, and (optionally) hard-kills the leader mid-run to
// demonstrate a live failover from replicated local state.
//
// Unlike leakdet_cluster_chaos (scripted transport + disks, differential
// oracle), this tool runs the production wiring: real sockets, the real
// filesystem under --data-dir, and leaders training from the traffic they
// serve (train_from_gateway). Data directories survive the run — rerunning
// with the same --data-dir recovers each node from its snapshot + WAL.
//
// Examples:
//   leakdet_cluster --data-dir=/tmp/leakdet-cluster
//   leakdet_cluster --data-dir=/tmp/lc --nodes=5 --epochs=6 --kill-at=3
//   leakdet_cluster --data-dir=/tmp/lc --admin-port=8080

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "core/payload_check.h"
#include "net/tcp.h"
#include "obs/admin_server.h"
#include "store/file.h"
#include "testing/packet_gen.h"
#include "util/rng.h"

namespace {

struct Flags {
  std::string data_dir = "leakdet-cluster-data";
  size_t nodes = 3;
  size_t shards = 2;
  size_t epochs = 4;
  size_t packets = 120;
  size_t retrain = 16;
  uint64_t devices = 64;
  uint64_t seed = 1;
  double p_sensitive = 0.35;
  size_t kill_at = 0;  // 0 = never kill the leader
  long admin_port = -1;
  bool verbose = false;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: leakdet_cluster [--data-dir=DIR] [--nodes=N] [--shards=N]\n"
      "  [--epochs=N] [--packets=N] [--retrain=N] [--devices=N] [--seed=N]\n"
      "  [--p-sensitive=P] [--kill-at=EPOCH] [--admin-port=N] [-v]\n");
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "-v" || arg == "--verbose") {
      flags->verbose = true;
    } else if (ParseFlag(arg, "data-dir", &value)) {
      flags->data_dir = value;
    } else if (ParseFlag(arg, "nodes", &value)) {
      flags->nodes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "shards", &value)) {
      flags->shards = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "epochs", &value)) {
      flags->epochs = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "packets", &value)) {
      flags->packets = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "retrain", &value)) {
      flags->retrain = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "devices", &value)) {
      flags->devices = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seed", &value)) {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "p-sensitive", &value)) {
      flags->p_sensitive = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "kill-at", &value)) {
      flags->kill_at = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "admin-port", &value)) {
      flags->admin_port = std::strtol(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->nodes < 2) flags->nodes = 2;
  if (flags->epochs == 0) flags->epochs = 1;
  if (flags->seed == 0) flags->seed = 1;
  return true;
}

bool EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  std::fprintf(stderr, "mkdir %s: %s\n", path.c_str(), std::strerror(errno));
  return false;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  if (!EnsureDir(flags.data_dir)) return 2;

  // Seeded device fleet: the oracle every node carries (so any follower can
  // be promoted into a trainer) and the token pool traffic leaks from.
  leakdet::Rng rng(flags.seed);
  std::vector<leakdet::core::DeviceTokens> fleet(2);
  for (auto& device : fleet) {
    device.android_id = rng.RandomHex(16);
    device.imei = rng.RandomDigits(15);
    device.imsi = rng.RandomDigits(15);
    device.sim_serial = rng.RandomDigits(19);
    device.carrier = "NTT DOCOMO";
  }
  auto oracle = std::make_unique<leakdet::core::PayloadCheck>(fleet);
  std::vector<std::string> tokens;
  for (const auto& device : fleet) {
    tokens.push_back(device.android_id);
    tokens.push_back(device.imei);
  }

  // Each node's replication endpoint binds an ephemeral loopback port; the
  // holder is refreshed by the factory so a restarted node's new port is
  // what peers dial.
  auto ports = std::make_shared<std::vector<std::atomic<uint16_t>>>(
      flags.nodes);
  std::atomic<uint64_t> delivered{0};

  leakdet::cluster::ClusterOptions cluster_options;
  leakdet::cluster::Cluster cluster(cluster_options);
  for (size_t i = 0; i < flags.nodes; ++i) {
    const std::string id = "node-" + std::to_string(i);
    const std::string node_dir = flags.data_dir + "/" + id;
    if (!EnsureDir(node_dir)) return 2;
    auto factory = [&, i, id, node_dir]()
        -> leakdet::StatusOr<
            std::unique_ptr<leakdet::cluster::ClusterNode>> {
      leakdet::cluster::NodeOptions options;
      options.node_id = id;
      options.dir = leakdet::store::Dir::Real();
      options.data_dir = node_dir;
      options.oracle = oracle.get();
      options.server.retrain_after = flags.retrain;
      options.server.pipeline.sample_size = 16;
      options.server.pipeline.normal_corpus_size = 64;
      options.server.pipeline.num_threads = 1;
      options.gateway.num_shards = flags.shards;
      options.gateway.queue_capacity = 256;
      options.sink = [&delivered](const leakdet::core::HttpPacket&,
                                  const leakdet::gateway::Verdict&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      };
      LEAKDET_ASSIGN_OR_RETURN(auto node, leakdet::cluster::ClusterNode::Start(
                                              std::move(options)));
      LEAKDET_RETURN_IF_ERROR(node->ServeReplication(0));
      (*ports)[i].store(node->replication_port());
      return node;
    };
    auto connect = [ports, i]()
        -> leakdet::StatusOr<std::unique_ptr<leakdet::net::Stream>> {
      LEAKDET_ASSIGN_OR_RETURN(
          leakdet::net::TcpConnection conn,
          leakdet::net::TcpConnectLoopback((*ports)[i].load()));
      (void)conn.SetReadTimeout(5000);
      return std::unique_ptr<leakdet::net::Stream>(
          std::make_unique<leakdet::net::TcpConnection>(std::move(conn)));
    };
    cluster.AddNode(id, std::move(factory), std::move(connect));
  }

  leakdet::Status started = cluster.Start(0);
  if (!started.ok()) {
    std::fprintf(stderr, "cluster start: %s\n", started.ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < flags.nodes; ++i) {
    std::printf("node-%zu replication at 127.0.0.1:%u\n", i,
                (*ports)[i].load());
  }

  leakdet::obs::AdminServer admin;
  cluster.AddStatusTo(&admin);
  if (flags.admin_port >= 0) {
    leakdet::Status admin_started =
        admin.Start(static_cast<uint16_t>(flags.admin_port));
    if (!admin_started.ok()) {
      std::fprintf(stderr, "admin server: %s\n",
                   admin_started.ToString().c_str());
      return 1;
    }
    std::printf("admin plane at http://127.0.0.1:%u/statusz\n", admin.port());
  }

  uint64_t submitted = 0;
  bool failed = false;
  for (size_t epoch = 1; epoch <= flags.epochs; ++epoch) {
    // Route one seeded batch across the ring; the leader trains from the
    // sensitive verdicts it serves (production wiring).
    for (size_t p = 0; p < flags.packets; ++p) {
      leakdet::core::HttpPacket packet =
          leakdet::testing::GeneratePacket(&rng, tokens, flags.p_sensitive);
      const uint64_t device = rng.UniformInt(flags.devices);
      if (cluster.Submit(device, packet)) ++submitted;
    }
    // Let the batch drain before replicating, so this epoch's training is
    // on disk for the followers to mirror.
    if (!WaitFor([&] { return delivered.load() >= submitted; }, 30000)) {
      std::fprintf(stderr, "epoch %zu: delivery stalled (%llu/%llu)\n", epoch,
                   static_cast<unsigned long long>(delivered.load()),
                   static_cast<unsigned long long>(submitted));
      failed = true;
      break;
    }
    leakdet::cluster::Cluster::SyncStats stats = cluster.SyncFollowers();
    cluster.PollHeartbeats();
    if (flags.verbose) {
      std::fprintf(stderr,
                   "[epoch %zu] synced=%zu records=%llu epochs_applied=%llu "
                   "failures=%zu\n",
                   epoch, stats.followers_synced,
                   static_cast<unsigned long long>(stats.records_replicated),
                   static_cast<unsigned long long>(stats.epochs_applied),
                   stats.failures);
    }
    if (stats.failures > 0) {
      std::fprintf(stderr, "epoch %zu: %zu replication rounds failed\n", epoch,
                   stats.failures);
      failed = true;
    }

    if (flags.kill_at != 0 && epoch == flags.kill_at) {
      const size_t old_leader = cluster.leader_index();
      std::printf("epoch %zu: killing leader node-%zu\n", epoch, old_leader);
      leakdet::Status killed = cluster.KillLeader();
      if (!killed.ok()) {
        std::fprintf(stderr, "kill: %s\n", killed.ToString().c_str());
        failed = true;
        break;
      }
      // Followers notice the silence, then the deterministic election runs.
      bool promoted = false;
      for (size_t round = 0; round < 2 * cluster_options.heartbeat_miss_threshold;
           ++round) {
        cluster.PollHeartbeats();
        if (cluster.MaybeFailover()) {
          promoted = true;
          break;
        }
      }
      if (!promoted) {
        std::fprintf(stderr, "epoch %zu: failover never fired\n", epoch);
        failed = true;
        break;
      }
      std::printf("epoch %zu: node-%zu promoted from its replicated WAL\n",
                  epoch, cluster.leader_index());
      leakdet::Status restarted = cluster.RestartNode(old_leader);
      if (!restarted.ok()) {
        std::fprintf(stderr, "restart: %s\n", restarted.ToString().c_str());
        failed = true;
        break;
      }
      std::printf("epoch %zu: node-%zu rejoined as a follower\n", epoch,
                  old_leader);
    }
  }

  std::printf("%s", cluster.StatusReport().c_str());
  cluster.Shutdown();

  leakdet::cluster::Cluster::Totals totals = cluster.GatewayTotals();
  std::printf(
      "submitted=%llu accepted=%llu dropped=%llu processed=%llu "
      "delivered=%llu failovers=%llu\n",
      static_cast<unsigned long long>(totals.submitted),
      static_cast<unsigned long long>(totals.accepted),
      static_cast<unsigned long long>(totals.dropped),
      static_cast<unsigned long long>(totals.processed),
      static_cast<unsigned long long>(delivered.load()),
      static_cast<unsigned long long>(cluster.failovers()));
  if (totals.processed != totals.accepted) {
    std::fprintf(stderr, "FAIL: accepted packets were lost in flight\n");
    failed = true;
  }
  if (failed) return 1;
  std::printf("PASS\n");
  return 0;
}
