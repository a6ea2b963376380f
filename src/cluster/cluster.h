#ifndef LEAKDET_CLUSTER_CLUSTER_H_
#define LEAKDET_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/ring.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "util/statusor.h"

namespace leakdet::cluster {

struct ClusterOptions {
  /// Consecutive failed leader heartbeats before a follower considers the
  /// leader lost (MaybeFailover's trigger).
  size_t heartbeat_miss_threshold = 3;
  /// Replication rounds retried per follower when transport damage is
  /// detected (X-Feed-Digest / WAL-frame CRC -> Corruption). Retries are
  /// deterministic under a scripted transport: the fault schedule advances.
  size_t max_sync_retries = 8;
  /// Virtual nodes per member on the routing ring.
  size_t ring_vnodes = 256;
  /// Destination of the cluster.* metric families (membership, per-node
  /// epoch/lag/skew, replication and failover counters). nullptr =
  /// obs::Registry::Default(). Node-local metrics live in each node's
  /// private registry, never here.
  obs::Registry* registry = nullptr;
};

/// Control plane over N ClusterNodes: consistent-hash device routing, the
/// replication schedule, leader-loss detection, and deterministic failover.
///
/// The cluster is deliberately *driven*, not self-driving: Tick-style calls
/// (SyncFollowers / PollHeartbeats / MaybeFailover) advance it one step and
/// return what happened, so the chaos harness can interleave faults at exact
/// points and a deployment (tools/leakdet_cluster) can run them on a timer
/// thread. All control-plane calls are serialized by an internal mutex;
/// Submit() only touches the ring under the same mutex and the chosen node's
/// lock-free gateway path.
///
/// Failover contract (what cluster_chaos proves): after KillLeader() +
/// MaybeFailover(), the promoted node rebuilt the training state from its
/// *local* replicated WAL — snapshot restore plus suffix replay — and its
/// serving feed is byte-identical to what a never-crashed single-node
/// trainer over the same training stream would serve, once epochs converge.
class Cluster {
 public:
  /// Builds one node (called at cluster start and again on every restart —
  /// a restart constructs a fresh node over the same data directory).
  using NodeFactory =
      std::function<StatusOr<std::unique_ptr<ClusterNode>>()>;
  /// Opens a fresh stream to the node's replication endpoint.
  using ConnectFn = ClusterNode::ConnectFn;

  explicit Cluster(ClusterOptions options = {});

  /// Registers a member slot. Call for every node before Start(); the slot
  /// index is the order of registration.
  void AddNode(std::string node_id, NodeFactory factory, ConnectFn connect);

  /// Constructs every node and promotes `leader_index`.
  Status Start(size_t leader_index);

  /// Stops every live node (graceful).
  void Shutdown();

  /// Routes one packet to the live node owning `device_id`. False when the
  /// ring is empty or the owner shed it.
  bool Submit(uint64_t device_id, const core::HttpPacket& packet);

  /// The node id `device_id` routes to ("" when the ring is empty).
  std::string RouteFor(uint64_t device_id);

  struct SyncStats {
    size_t followers_synced = 0;
    size_t followers_skipped = 0;   ///< dead or partitioned from the leader
    size_t failures = 0;            ///< rounds that errored past all retries
    uint64_t corruptions_detected = 0;
    uint64_t records_replicated = 0;
    uint64_t epochs_applied = 0;
    uint64_t snapshots_installed = 0;
  };

  /// One replication round: every live, reachable follower syncs from the
  /// current leader (retrying through detected corruption), then the
  /// cluster.* lag/skew gauges refresh.
  SyncStats SyncFollowers();

  /// One heartbeat round: every live follower polls the leader's /version
  /// through its own reachability. Returns how many followers have now
  /// missed >= the threshold.
  size_t PollHeartbeats();

  /// Promotes the best live follower iff the leader is gone (killed) or
  /// every live follower has reached the miss threshold. Election is
  /// deterministic: max (serving epoch, WAL last sequence), ties to the
  /// lowest slot index. Returns true when a promotion happened.
  bool MaybeFailover();

  /// Hard-stops the leader and removes it from the ring (its devices remap
  /// to survivors). The slot can later RestartNode() as a follower.
  Status KillLeader();

  /// Hard-stops one node (leader or follower).
  Status KillNode(size_t index);

  /// Reconstructs a previously killed slot over its surviving data
  /// directory; it rejoins the ring as a follower serving its local
  /// snapshot epoch until the next SyncFollowers() catches it up.
  Status RestartNode(size_t index);

  /// Chaos seam: severs (or heals) the link between two slots. Partitions
  /// are symmetric and affect heartbeats and replication, never the test
  /// driver's Submit() routing.
  void SetReachable(size_t a, size_t b, bool reachable);

  size_t num_nodes() const { return slots_.size(); }
  /// Live-node count.
  size_t num_alive();
  size_t leader_index();
  ClusterNode* node(size_t index);
  bool alive(size_t index);

  /// Gateway counter totals across every node *including* killed-and-
  /// restarted incarnations (the conservation ledger survives failovers).
  struct Totals {
    uint64_t submitted = 0;
    uint64_t accepted = 0;  ///< submitted - dropped
    uint64_t dropped = 0;
    uint64_t processed = 0;
  };
  Totals GatewayTotals();

  uint64_t failovers() const { return failovers_->Value(); }

  /// Registers the "cluster" /statusz section: one line per member with
  /// role, liveness, serving epoch, WAL position, and heartbeat misses.
  void AddStatusTo(obs::AdminServer* admin);

  /// The /statusz section body (exposed for assertions).
  std::string StatusReport();

 private:
  struct Slot {
    std::string id;
    NodeFactory factory;
    ConnectFn connect;
    std::unique_ptr<ClusterNode> node;
    bool alive = false;
    size_t heartbeat_misses = 0;
    /// Counters of dead incarnations, absorbed at kill time.
    Totals retired;
  };

  bool Reachable(size_t a, size_t b) const;
  ConnectFn CheckedConnect(size_t from, size_t to);
  void RefreshMetrics();
  Status KillNodeLocked(size_t index);
  std::string StatusReportLocked();

  ClusterOptions options_;
  obs::Registry* registry_;
  std::mutex mu_;
  std::vector<Slot> slots_;
  HashRing ring_;
  size_t leader_index_ = 0;
  bool started_ = false;
  /// reachable_[a][b]: link between slots a and b is up (symmetric).
  std::vector<std::vector<bool>> reachable_;

  obs::GaugeFamily epoch_gauge_;
  obs::GaugeFamily wal_last_gauge_;
  obs::GaugeFamily replication_lag_;
  obs::GaugeFamily epoch_skew_;
  obs::GaugeFamily is_leader_;
  obs::GaugeFamily alive_gauge_;
  obs::CounterFamily heartbeat_miss_counter_;
  obs::CounterFamily sync_rounds_;
  obs::CounterFamily sync_corruptions_;
  obs::CounterFamily records_replicated_;
  obs::Counter* failovers_ = nullptr;
  obs::Counter* elections_ = nullptr;
  obs::Counter* node_restarts_ = nullptr;
  obs::Gauge* membership_gauge_ = nullptr;
};

}  // namespace leakdet::cluster

#endif  // LEAKDET_CLUSTER_CLUSTER_H_
