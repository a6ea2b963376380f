#include "cluster/cluster.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "io/feed_server.h"

namespace leakdet::cluster {

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : obs::Registry::Default()),
      ring_(options.ring_vnodes),
      epoch_gauge_(registry_, "cluster.epoch_version", "node"),
      wal_last_gauge_(registry_, "cluster.wal_last_sequence", "node"),
      replication_lag_(registry_, "cluster.replication_lag", "node"),
      epoch_skew_(registry_, "cluster.epoch_skew", "node"),
      is_leader_(registry_, "cluster.is_leader", "node"),
      alive_gauge_(registry_, "cluster.alive", "node"),
      heartbeat_miss_counter_(registry_, "cluster.heartbeat_misses", "node"),
      sync_rounds_(registry_, "cluster.sync_rounds", "node"),
      sync_corruptions_(registry_, "cluster.sync_corruptions", "node"),
      records_replicated_(registry_, "cluster.records_replicated", "node") {
  failovers_ = registry_->GetCounter("cluster.failovers");
  elections_ = registry_->GetCounter("cluster.elections");
  node_restarts_ = registry_->GetCounter("cluster.node_restarts");
  membership_gauge_ = registry_->GetGauge("cluster.members_alive");
}

void Cluster::AddNode(std::string node_id, NodeFactory factory,
                      ConnectFn connect) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot slot;
  slot.id = std::move(node_id);
  slot.factory = std::move(factory);
  slot.connect = std::move(connect);
  slots_.push_back(std::move(slot));
}

Status Cluster::Start(size_t leader_index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::FailedPrecondition("cluster already started");
  if (slots_.empty()) return Status::FailedPrecondition("no nodes registered");
  if (leader_index >= slots_.size()) {
    return Status::InvalidArgument("leader index out of range");
  }
  reachable_.assign(slots_.size(),
                    std::vector<bool>(slots_.size(), true));
  for (Slot& slot : slots_) {
    LEAKDET_ASSIGN_OR_RETURN(slot.node, slot.factory());
    slot.alive = true;
    ring_.AddNode(slot.id);
  }
  LEAKDET_RETURN_IF_ERROR(slots_[leader_index].node->Promote());
  leader_index_ = leader_index;
  started_ = true;
  RefreshMetrics();
  return Status::OK();
}

void Cluster::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (slot.alive && slot.node != nullptr) slot.node->StopServing();
  }
}

bool Cluster::Submit(uint64_t device_id, const core::HttpPacket& packet) {
  // Held across the node's Submit: routing and membership must not change
  // under the call (a concurrent kill would destroy the node). The gateway's
  // enqueue path is lock-free and its workers drain independently, so this
  // serializes only the *driver*, not detection.
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return false;
  const std::string& id = ring_.NodeFor(device_id);
  for (Slot& slot : slots_) {
    if (slot.id == id) {
      if (!slot.alive || slot.node == nullptr) return false;
      return slot.node->Submit(device_id, packet);
    }
  }
  return false;
}

std::string Cluster::RouteFor(uint64_t device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return std::string();
  return ring_.NodeFor(device_id);
}

bool Cluster::Reachable(size_t a, size_t b) const {
  if (a == b) return true;
  return reachable_[a][b];
}

Cluster::ConnectFn Cluster::CheckedConnect(size_t from, size_t to) {
  // Capture the raw connect by value; reachability is re-evaluated per
  // attempt so a partition healed between retries is immediately usable.
  ConnectFn raw = slots_[to].connect;
  return [this, from, to, raw]() -> StatusOr<std::unique_ptr<net::Stream>> {
    if (!Reachable(from, to)) {
      return Status::IOError("partitioned: " + slots_[from].id + " cannot reach " +
                             slots_[to].id);
    }
    if (!slots_[to].alive) {
      return Status::IOError(slots_[to].id + " is down");
    }
    return raw();
  };
}

Cluster::SyncStats Cluster::SyncFollowers() {
  std::lock_guard<std::mutex> lock(mu_);
  SyncStats stats;
  if (!slots_[leader_index_].alive) {
    stats.followers_skipped = slots_.size() - 1;
    return stats;
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i == leader_index_) continue;
    Slot& slot = slots_[i];
    if (!slot.alive || !Reachable(i, leader_index_)) {
      ++stats.followers_skipped;
      continue;
    }
    ConnectFn connect = CheckedConnect(i, leader_index_);
    bool synced = false;
    // A round interrupted by transport damage (Corruption) or a dropped
    // connection left the follower's state intact up to the damaged step;
    // retrying simply advances the fault schedule until a clean round lands.
    for (size_t attempt = 0; attempt <= options_.max_sync_retries; ++attempt) {
      StatusOr<ClusterNode::SyncResult> result =
          slot.node->SyncWithLeader(connect);
      sync_rounds_.With(slot.id)->Inc();
      if (result.ok()) {
        stats.records_replicated += result->records_applied;
        records_replicated_.With(slot.id)->Inc(result->records_applied);
        if (result->epoch_applied) ++stats.epochs_applied;
        if (result->snapshot_installed) ++stats.snapshots_installed;
        synced = true;
        break;
      }
      if (result.status().code() == StatusCode::kCorruption) {
        ++stats.corruptions_detected;
        sync_corruptions_.With(slot.id)->Inc();
      }
    }
    if (synced) {
      ++stats.followers_synced;
      slot.heartbeat_misses = 0;  // a full round is better than a heartbeat
    } else {
      ++stats.failures;
    }
  }
  RefreshMetrics();
  return stats;
}

size_t Cluster::PollHeartbeats() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t at_threshold = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i == leader_index_) continue;
    Slot& slot = slots_[i];
    if (!slot.alive) continue;
    bool beat = false;
    if (slots_[leader_index_].alive && Reachable(i, leader_index_)) {
      ConnectFn connect = CheckedConnect(i, leader_index_);
      StatusOr<std::unique_ptr<net::Stream>> conn = connect();
      if (conn.ok()) {
        beat = io::FetchFeedVersionFrom(conn->get()).ok();
      }
    }
    if (beat) {
      slot.heartbeat_misses = 0;
    } else {
      ++slot.heartbeat_misses;
      heartbeat_miss_counter_.With(slot.id)->Inc();
    }
    if (slot.heartbeat_misses >= options_.heartbeat_miss_threshold) {
      ++at_threshold;
    }
  }
  return at_threshold;
}

bool Cluster::MaybeFailover() {
  std::lock_guard<std::mutex> lock(mu_);
  bool leader_lost = !slots_[leader_index_].alive;
  if (!leader_lost) {
    // A reachable leader is never deposed: failover requires *every* live
    // follower to have hit the miss threshold (a single partitioned
    // follower must not split the brain).
    size_t live_followers = 0;
    size_t starved = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (i == leader_index_ || !slots_[i].alive) continue;
      ++live_followers;
      if (slots_[i].heartbeat_misses >= options_.heartbeat_miss_threshold) {
        ++starved;
      }
    }
    leader_lost = live_followers > 0 && starved == live_followers;
  }
  if (!leader_lost) return false;

  // Deterministic election: the most caught-up live follower wins — highest
  // serving epoch, then longest replicated WAL, then lowest slot index.
  // (Follower stores are written only by this control thread, so reading
  // their sequences here is race-free.)
  size_t winner = slots_.size();
  std::tuple<uint64_t, uint64_t> best{0, 0};
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i == leader_index_ || !slots_[i].alive) continue;
    std::tuple<uint64_t, uint64_t> score{
        slots_[i].node->epoch_version(),
        slots_[i].node->wal_last_sequence()};
    if (winner == slots_.size() || score > best) {
      winner = i;
      best = score;
    }
  }
  if (winner == slots_.size()) return false;  // nobody left to promote

  elections_->Inc();
  Status promoted = slots_[winner].node->Promote();
  if (!promoted.ok()) return false;
  leader_index_ = winner;
  for (Slot& slot : slots_) slot.heartbeat_misses = 0;
  failovers_->Inc();
  RefreshMetrics();
  return true;
}

Status Cluster::KillNodeLocked(size_t index) {
  if (index >= slots_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  Slot& slot = slots_[index];
  if (!slot.alive) return Status::FailedPrecondition(slot.id + " already down");
  // Drain first, then read the incarnation's final counters into the
  // retired ledger — conservation accounting must survive the node object.
  slot.node->StopServing();
  slot.retired.submitted += slot.node->gateway().submitted();
  slot.retired.dropped += slot.node->gateway().dropped();
  slot.retired.processed += slot.node->gateway().processed();
  slot.retired.accepted =
      slot.retired.submitted - slot.retired.dropped;
  slot.node.reset();
  slot.alive = false;
  slot.heartbeat_misses = 0;
  ring_.RemoveNode(slot.id);
  RefreshMetrics();
  return Status::OK();
}

Status Cluster::KillLeader() {
  std::lock_guard<std::mutex> lock(mu_);
  return KillNodeLocked(leader_index_);
}

Status Cluster::KillNode(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  return KillNodeLocked(index);
}

Status Cluster::RestartNode(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= slots_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  Slot& slot = slots_[index];
  if (slot.alive) return Status::FailedPrecondition(slot.id + " is running");
  LEAKDET_ASSIGN_OR_RETURN(slot.node, slot.factory());
  slot.alive = true;
  slot.heartbeat_misses = 0;
  ring_.AddNode(slot.id);
  node_restarts_->Inc();
  RefreshMetrics();
  return Status::OK();
}

void Cluster::SetReachable(size_t a, size_t b, bool reachable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (a >= slots_.size() || b >= slots_.size() || a == b) return;
  reachable_[a][b] = reachable;
  reachable_[b][a] = reachable;
}

size_t Cluster::num_alive() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t alive = 0;
  for (const Slot& slot : slots_) {
    if (slot.alive) ++alive;
  }
  return alive;
}

size_t Cluster::leader_index() {
  std::lock_guard<std::mutex> lock(mu_);
  return leader_index_;
}

ClusterNode* Cluster::node(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= slots_.size()) return nullptr;
  return slots_[index].node.get();
}

bool Cluster::alive(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  return index < slots_.size() && slots_[index].alive;
}

Cluster::Totals Cluster::GatewayTotals() {
  std::lock_guard<std::mutex> lock(mu_);
  Totals totals;
  for (const Slot& slot : slots_) {
    totals.submitted += slot.retired.submitted;
    totals.dropped += slot.retired.dropped;
    totals.processed += slot.retired.processed;
    if (slot.alive && slot.node != nullptr) {
      totals.submitted += slot.node->gateway().submitted();
      totals.dropped += slot.node->gateway().dropped();
      totals.processed += slot.node->gateway().processed();
    }
  }
  totals.accepted = totals.submitted - totals.dropped;
  return totals;
}

void Cluster::RefreshMetrics() {
  const bool leader_alive = slots_[leader_index_].alive;
  const uint64_t leader_epoch =
      leader_alive ? slots_[leader_index_].node->epoch_version() : 0;
  const uint64_t leader_wal =
      leader_alive ? slots_[leader_index_].node->wal_last_gauge() : 0;
  size_t alive = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    const bool is_leader = i == leader_index_ && slot.alive;
    alive_gauge_.With(slot.id)->Set(slot.alive ? 1 : 0);
    is_leader_.With(slot.id)->Set(is_leader ? 1 : 0);
    if (!slot.alive) {
      epoch_gauge_.With(slot.id)->Set(0);
      wal_last_gauge_.With(slot.id)->Set(0);
      replication_lag_.With(slot.id)->Set(0);
      epoch_skew_.With(slot.id)->Set(0);
      continue;
    }
    ++alive;
    const uint64_t epoch = slot.node->epoch_version();
    const uint64_t wal = slot.node->wal_last_gauge();
    epoch_gauge_.With(slot.id)->Set(static_cast<int64_t>(epoch));
    wal_last_gauge_.With(slot.id)->Set(static_cast<int64_t>(wal));
    if (leader_alive && !is_leader) {
      replication_lag_.With(slot.id)->Set(
          leader_wal > wal ? static_cast<int64_t>(leader_wal - wal) : 0);
      epoch_skew_.With(slot.id)->Set(
          leader_epoch > epoch ? static_cast<int64_t>(leader_epoch - epoch)
                               : 0);
    } else {
      replication_lag_.With(slot.id)->Set(0);
      epoch_skew_.With(slot.id)->Set(0);
    }
  }
  membership_gauge_->Set(static_cast<int64_t>(alive));
}

std::string Cluster::StatusReportLocked() {
  std::string out;
  size_t alive = 0;
  for (const Slot& slot : slots_) {
    if (slot.alive) ++alive;
  }
  out += "members: " + std::to_string(slots_.size()) + "\n";
  out += "alive: " + std::to_string(alive) + "\n";
  out += "leader: " +
         (slots_[leader_index_].alive ? slots_[leader_index_].id
                                      : std::string("(none)")) +
         "\n";
  const bool leader_alive = slots_[leader_index_].alive;
  const uint64_t leader_epoch =
      leader_alive ? slots_[leader_index_].node->epoch_version() : 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    out += slot.id + ": ";
    if (!slot.alive) {
      out += "role=down\n";
      continue;
    }
    const uint64_t epoch = slot.node->epoch_version();
    out += "role=";
    out += (i == leader_index_ ? "leader" : "follower");
    out += " epoch=" + std::to_string(epoch);
    out += " wal_last=" + std::to_string(slot.node->wal_last_gauge());
    out += " durable=" + std::to_string(slot.node->durable_sequence());
    out += " skew=" +
           std::to_string(leader_epoch > epoch ? leader_epoch - epoch : 0);
    out += " misses=" + std::to_string(slot.heartbeat_misses);
    out += "\n";
  }
  return out;
}

std::string Cluster::StatusReport() {
  std::lock_guard<std::mutex> lock(mu_);
  return StatusReportLocked();
}

void Cluster::AddStatusTo(obs::AdminServer* admin) {
  admin->AddStatusSection("cluster", [this] { return StatusReport(); });
}

}  // namespace leakdet::cluster
