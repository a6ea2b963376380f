#ifndef LEAKDET_CLUSTER_NODE_H_
#define LEAKDET_CLUSTER_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "io/feed_server.h"
#include "net/stream.h"
#include "obs/metrics.h"
#include "store/file.h"
#include "store/store_manager.h"
#include "util/statusor.h"

namespace leakdet::cluster {

struct NodeOptions {
  /// Cluster-unique id ("node-0", ...); also this node's HashRing key.
  std::string node_id;
  /// Filesystem seam and this node's data directory within it. `dir` is not
  /// owned and must outlive the node. Chaos gives each node its own
  /// ScriptedDir so crash faults stay node-local and deterministic.
  store::Dir* dir = nullptr;
  std::string data_dir = "node";
  /// Ground-truth oracle for training (leaders only, but every node carries
  /// it so any node can be promoted). Not owned.
  const core::PayloadCheck* oracle = nullptr;
  core::SignatureServer::Options server;
  /// Gateway/trainer/store tunables. Their registry fields are overridden
  /// with the node's private registry (see ClusterNode::registry());
  /// trainer.store is wired to the node's own StoreManager on promotion.
  gateway::GatewayOptions gateway;
  gateway::TrainerOptions trainer;
  store::StoreOptions store;
  /// Options for the node's replication FeedServer (clock injection).
  io::FeedServerOptions feed;
  /// Per-response record cap on /replog (followers loop until drained).
  size_t replog_batch_limit = 2048;
  /// Chain the gateway's per-verdict output into the leader's trainer
  /// (production behavior: the node trains on what it serves). The chaos
  /// harness turns this off and feeds the trainer an explicit, seeded
  /// training stream instead, so detection traffic cannot perturb the
  /// differential oracle.
  bool train_from_gateway = true;
  /// External per-verdict sink (the chaos runner's delivery ledger, a
  /// production exporter). Runs on gateway worker threads; must be
  /// thread-safe. The node chains it in front of its own training hook.
  gateway::DetectionGateway::PacketSink sink;
};

/// One gateway process of the cluster: a full detection stack (gateway +
/// durable store + replication endpoint) that is always serving, plus the
/// training stack (SignatureServer + TrainerLoop) that exists only while
/// this node is the leader.
///
/// Lifecycle:
///  - Start() opens (or reopens, repairing any torn WAL tail) the data
///    directory, republishes the newest epoch its disk holds (the newest
///    snapshot's, or a publish record the WAL logged after it) so the node
///    serves *something* before any network round-trip, and starts the
///    detection gateway.
///  - A follower calls SyncWithLeader() each round: it mirrors the leader's
///    WAL suffix into its own log (AppendReplicated keeps the leader's
///    sequences), installs the leader's epoch from /feed, and adopts the
///    leader's newest snapshot once its local log covers it.
///  - Promote() turns a follower into the leader *from its own durable
///    state*: sync, then StoreManager::Recover — newest snapshot restores
///    the serving epoch, the replicated publish records install the epochs
///    the leader logged after it, and the rest of the WAL suffix replays
///    through the training path re-running only the retrains the dead
///    leader never shipped — then the trainer thread starts. No network
///    required: everything a promotion needs was replicated ahead of time.
///
/// Threading: Start/Promote/StopServing/SyncWithLeader are control-plane
/// calls, externally serialized by the owning Cluster. The gateway's worker
/// threads and the replication server thread run concurrently with them by
/// design; everything they touch is atomic, mutex-guarded, or immutable.
class ClusterNode {
 public:
  enum class Role { kFollower, kLeader };

  using ConnectFn =
      std::function<StatusOr<std::unique_ptr<net::Stream>>()>;

  /// Opens the store, republishes local state, starts the gateway.
  static StatusOr<std::unique_ptr<ClusterNode>> Start(NodeOptions options);

  ~ClusterNode();
  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Starts the replication endpoint (GET /version, /feed, /replog?after=N,
  /// /snapshot) on an injected listener (chaos: ScriptedListener) or a
  /// loopback TCP port (deployment).
  Status ServeReplication(std::unique_ptr<net::Listener> listener);
  Status ServeReplication(uint16_t port);
  uint16_t replication_port() const;

  /// Follower -> leader, from local durable state only (see class comment).
  /// Idempotent on an already-leading node.
  Status Promote();

  /// One follower replication round against the current leader. `connect`
  /// opens a fresh stream to the leader's replication endpoint (each HTTP
  /// exchange consumes one connection). Any transport damage surfaces as
  /// Corruption — the X-Feed-Digest plus the WAL batch's own CRC framing —
  /// and leaves the node's state exactly as it was before the damaged step.
  struct SyncResult {
    uint64_t leader_feed_version = 0;
    uint64_t records_applied = 0;  ///< ingest records (publish ones ride along)
    bool epoch_applied = false;
    bool snapshot_installed = false;
  };
  StatusOr<SyncResult> SyncWithLeader(const ConnectFn& connect);

  /// Drains and stops everything (replication endpoint, gateway workers,
  /// trainer thread), syncing the store on the way down. After this the
  /// node only answers state accessors. Idempotent.
  void StopServing();

  /// Routes one packet into this node's detection gateway.
  bool Submit(uint64_t device_id, const core::HttpPacket& packet) {
    return gateway_.Submit(device_id, packet);
  }

  Role role() const { return role_; }
  bool serving() const { return serving_; }
  const std::string& id() const { return options_.node_id; }

  /// Serving feed epoch (0 = none yet). Any thread.
  uint64_t epoch_version() const { return gateway_.current_version(); }

  /// Last sequence in the local WAL. Leader: training thread owns the log,
  /// so other threads must read wal_last_gauge() instead; follower: the
  /// control thread owns it, so this is safe there.
  uint64_t wal_last_sequence() const { return store_->last_sequence(); }

  /// Atomic mirror of wal_last_sequence (store.wal_last_sequence gauge),
  /// refreshed on every append — safe from any thread even on a leader.
  uint64_t wal_last_gauge() const { return wal_last_gauge_->Value(); }

  /// Highest durably acknowledged sequence. Any thread.
  uint64_t durable_sequence() const { return store_->durable_sequence(); }

  gateway::DetectionGateway& gateway() { return gateway_; }
  store::StoreManager& store() { return *store_; }
  core::SignatureServer* server() { return server_.get(); }
  gateway::TrainerLoop* trainer() { return trainer_.get(); }

  /// What the recovery in Promote() did (zero before a promotion).
  const store::StoreManager::RecoveryStats& recovery() const {
    return recovery_;
  }

  /// The node's private metrics registry (store.* / gateway.* / trainer.* of
  /// this node only — nodes must not share one, the names would collide).
  obs::Registry* registry() { return &registry_; }

 private:
  explicit ClusterNode(NodeOptions options);

  Status OpenAndServeLocal();
  Status StartReplicationServer(std::unique_ptr<net::Listener> listener);

  NodeOptions options_;
  obs::Registry registry_;
  std::unique_ptr<store::StoreManager> store_;
  gateway::DetectionGateway gateway_;
  std::unique_ptr<core::SignatureServer> server_;
  std::unique_ptr<gateway::TrainerLoop> trainer_;
  std::unique_ptr<io::FeedServer> replication_server_;
  /// The training half of the gateway sink. Workers read it with acquire
  /// loads; promotion stores it only after the trainer is running, so a
  /// packet either misses the trainer (pre-promotion) or reaches a live one.
  std::atomic<gateway::TrainerLoop*> training_sink_{nullptr};
  Role role_ = Role::kFollower;
  bool serving_ = false;
  /// last_sequence covered by the newest snapshot this node has (written or
  /// installed); used to skip re-installing a snapshot it already has.
  uint64_t snapshot_covered_ = 0;
  store::StoreManager::RecoveryStats recovery_;
  obs::Gauge* wal_last_gauge_ = nullptr;
};

}  // namespace leakdet::cluster

#endif  // LEAKDET_CLUSTER_NODE_H_
