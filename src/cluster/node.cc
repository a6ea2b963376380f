#include "cluster/node.h"

#include <vector>

#include "cluster/replication.h"
#include "http/url.h"
#include "match/signature.h"
#include "net/tcp.h"
#include "store/snapshot.h"
#include "util/strutil.h"

namespace leakdet::cluster {

ClusterNode::ClusterNode(NodeOptions options)
    : options_(std::move(options)), gateway_([this] {
        gateway::GatewayOptions g = options_.gateway;
        g.registry = &registry_;
        return g;
      }()) {}

ClusterNode::~ClusterNode() { StopServing(); }

StatusOr<std::unique_ptr<ClusterNode>> ClusterNode::Start(NodeOptions options) {
  if (options.dir == nullptr) {
    return Status::InvalidArgument("NodeOptions.dir is required");
  }
  if (options.oracle == nullptr) {
    return Status::InvalidArgument("NodeOptions.oracle is required");
  }
  if (options.node_id.empty()) {
    return Status::InvalidArgument("NodeOptions.node_id is required");
  }
  std::unique_ptr<ClusterNode> node(new ClusterNode(std::move(options)));
  LEAKDET_RETURN_IF_ERROR(node->OpenAndServeLocal());
  return node;
}

Status ClusterNode::OpenAndServeLocal() {
  store::StoreOptions store_options = options_.store;
  store_options.registry = &registry_;
  LEAKDET_ASSIGN_OR_RETURN(
      store_, store::StoreManager::Open(options_.dir, options_.data_dir,
                                        store_options));
  wal_last_gauge_ = registry_.GetGauge("store.wal_last_sequence");

  // Serve-before-sync: a (re)started node publishes the newest epoch its own
  // disk remembers before talking to anyone, so a follower that rejoins a
  // partitioned cluster still detects with its last known feed. That is the
  // newest checkpoint's epoch, or a publish record logged after it.
  std::string snapshot_name;
  StatusOr<store::SnapshotContents> snapshot = store::LoadNewestSnapshot(
      options_.dir, options_.data_dir, &snapshot_name);
  uint64_t version = 0;
  std::string signatures;
  if (snapshot.ok()) {
    snapshot_covered_ = snapshot->last_sequence;
    version = snapshot->feed_version;
    signatures = std::move(snapshot->signatures);
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }
  // A log too damaged to scan is Promote()'s to report; serving goes on
  // with the checkpoint's epoch.
  (void)store::ReplayWal(
      options_.dir, options_.data_dir, snapshot_covered_,
      [&](store::FeedRecord& record) {
        if (record.is_publish() && record.feed_version > version) {
          version = record.feed_version;
          signatures = std::move(record.signatures);
        }
        return Status::OK();
      },
      /*repair=*/false);
  if (version > 0) {
    LEAKDET_ASSIGN_OR_RETURN(match::SignatureSet set,
                             match::SignatureSet::Deserialize(signatures));
    gateway_.Publish(
        std::make_shared<match::CompiledSignatureSet>(std::move(set), version));
  }

  gateway_.set_sink([this](const core::HttpPacket& packet,
                           const gateway::Verdict& verdict) {
    if (options_.sink) options_.sink(packet, verdict);
    if (!options_.train_from_gateway) return;
    gateway::TrainerLoop* trainer =
        training_sink_.load(std::memory_order_acquire);
    if (trainer != nullptr) trainer->Offer(packet, verdict);
  });
  LEAKDET_RETURN_IF_ERROR(gateway_.Start());
  serving_ = true;
  return Status::OK();
}

Status ClusterNode::StartReplicationServer(
    std::unique_ptr<net::Listener> listener) {
  if (replication_server_ != nullptr) {
    return Status::FailedPrecondition("replication endpoint already serving");
  }
  io::FeedServer::FeedProvider provider =
      [this]() -> std::pair<uint64_t, std::string> {
    std::shared_ptr<const match::CompiledSignatureSet> set =
        gateway_.current_set();
    if (set == nullptr) return {0, std::string()};
    return {set->version(), set->set().Serialize()};
  };
  auto server = std::make_unique<io::FeedServer>(provider, options_.feed);

  LEAKDET_RETURN_IF_ERROR(server->AddRoute(
      "/replog",
      [this](const std::string& raw_query)
          -> StatusOr<std::pair<uint64_t, std::string>> {
        LEAKDET_ASSIGN_OR_RETURN(std::vector<http::QueryParam> params,
                                 http::ParseQuery(raw_query));
        uint64_t after = 0;
        bool have_after = false;
        for (const http::QueryParam& param : params) {
          if (param.key != "after") continue;
          LEAKDET_ASSIGN_OR_RETURN(after, leakdet::ParseUint64(param.value));
          have_after = true;
        }
        if (!have_after) {
          return Status::InvalidArgument("missing after=<sequence>");
        }
        uint64_t last = after;
        LEAKDET_ASSIGN_OR_RETURN(
            std::string payload,
            BuildWalBatchPayload(options_.dir, options_.data_dir, after,
                                 options_.replog_batch_limit, &last));
        return std::make_pair(last, std::move(payload));
      }));

  LEAKDET_RETURN_IF_ERROR(server->AddRoute(
      "/snapshot",
      [this](const std::string&)
          -> StatusOr<std::pair<uint64_t, std::string>> {
        std::string name;
        LEAKDET_ASSIGN_OR_RETURN(std::string raw,
                                 store::ReadNewestSnapshotRaw(
                                     options_.dir, options_.data_dir, &name));
        uint64_t version = 0;
        uint64_t sequence = 0;
        store::ParseSnapshotFileName(name, &version, &sequence);
        return std::make_pair(version, std::move(raw));
      }));

  LEAKDET_RETURN_IF_ERROR(server->Start(std::move(listener)));
  replication_server_ = std::move(server);
  return Status::OK();
}

Status ClusterNode::ServeReplication(std::unique_ptr<net::Listener> listener) {
  return StartReplicationServer(std::move(listener));
}

Status ClusterNode::ServeReplication(uint16_t port) {
  if (replication_server_ != nullptr) {
    return Status::FailedPrecondition("replication endpoint already serving");
  }
  LEAKDET_ASSIGN_OR_RETURN(net::TcpListener listener,
                           net::TcpListener::Bind(port));
  return StartReplicationServer(
      std::make_unique<net::TcpListener>(std::move(listener)));
}

uint16_t ClusterNode::replication_port() const {
  return replication_server_ != nullptr ? replication_server_->port() : 0;
}

Status ClusterNode::Promote() {
  if (role_ == Role::kLeader) return Status::OK();
  if (!serving_) return Status::FailedPrecondition("node is stopped");
  server_ =
      std::make_unique<core::SignatureServer>(options_.oracle, options_.server);
  gateway::TrainerOptions trainer_options = options_.trainer;
  trainer_options.store = store_.get();
  // The trainer's constructor installs itself as the server's feed observer,
  // so the Recover() below republishes the snapshot epoch and re-publishes
  // any retrains the WAL-suffix replay re-runs — all before the training
  // thread exists (the observer fires synchronously on this thread).
  trainer_ = std::make_unique<gateway::TrainerLoop>(server_.get(), &gateway_,
                                                    trainer_options);
  LEAKDET_RETURN_IF_ERROR(store_->Sync());
  LEAKDET_ASSIGN_OR_RETURN(recovery_, store_->Recover(server_.get()));
  if (recovery_.snapshot_loaded &&
      recovery_.snapshot_sequence > snapshot_covered_) {
    snapshot_covered_ = recovery_.snapshot_sequence;
  }
  LEAKDET_RETURN_IF_ERROR(trainer_->Start());
  training_sink_.store(trainer_.get(), std::memory_order_release);
  role_ = Role::kLeader;
  return Status::OK();
}

StatusOr<ClusterNode::SyncResult> ClusterNode::SyncWithLeader(
    const ConnectFn& connect) {
  if (role_ == Role::kLeader) {
    return Status::FailedPrecondition("a leader does not sync from itself");
  }
  if (!serving_) return Status::FailedPrecondition("node is stopped");
  SyncResult result;
  {
    LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<net::Stream> conn, connect());
    LEAKDET_ASSIGN_OR_RETURN(result.leader_feed_version,
                             io::FetchFeedVersionFrom(conn.get()));
  }

  // Mirror the leader's WAL suffix. Batches are size-capped, so loop until
  // one comes back empty; every applied record keeps the leader's sequence
  // (AppendReplicated rejects anything non-contiguous).
  while (true) {
    const uint64_t after = store_->last_sequence();
    LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<net::Stream> conn, connect());
    LEAKDET_ASSIGN_OR_RETURN(
        io::FetchedFeed fetched,
        io::FetchPathFrom(conn.get(),
                          "/replog?after=" + std::to_string(after)));
    LEAKDET_ASSIGN_OR_RETURN(WalBatch batch,
                             ParseWalBatch(fetched.payload, after));
    if (batch.records.empty()) break;
    for (store::FeedRecord& record : batch.records) {
      const bool publish = record.is_publish();
      LEAKDET_RETURN_IF_ERROR(
          store_->AppendReplicated(std::move(record)).status());
      if (!publish) ++result.records_applied;
    }
  }

  // Adopt the leader's serving epoch. Publish() rejects non-newer versions,
  // so a replayed or duplicate fetch can never roll this node back.
  if (result.leader_feed_version > gateway_.current_version()) {
    LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<net::Stream> conn, connect());
    LEAKDET_ASSIGN_OR_RETURN(io::FetchedFeed feed,
                             io::FetchFeedFrom(conn.get()));
    if (feed.version > 0) {
      LEAKDET_ASSIGN_OR_RETURN(match::SignatureSet set,
                               match::SignatureSet::Deserialize(feed.payload));
      result.epoch_applied = gateway_.Publish(
          std::make_shared<match::CompiledSignatureSet>(std::move(set),
                                                        feed.version));
    }
  }

  // Adopt the leader's newest snapshot once the local log covers it (an
  // uncovered snapshot would leave a replay gap; skip it — the next round's
  // replog catch-up closes the distance).
  if (result.leader_feed_version > 0) {
    LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<net::Stream> conn, connect());
    StatusOr<io::FetchedFeed> snap =
        io::FetchPathFrom(conn.get(), "/snapshot");
    if (!snap.ok()) {
      if (snap.status().code() != StatusCode::kNotFound) return snap.status();
    } else {
      LEAKDET_ASSIGN_OR_RETURN(store::SnapshotContents contents,
                               store::ParseSnapshot(snap->payload));
      if (contents.last_sequence > snapshot_covered_ &&
          contents.last_sequence <= store_->last_sequence()) {
        LEAKDET_RETURN_IF_ERROR(store_->InstallSnapshot(contents));
        snapshot_covered_ = contents.last_sequence;
        result.snapshot_installed = true;
      }
    }
  }
  return result;
}

void ClusterNode::StopServing() {
  if (!serving_) return;
  serving_ = false;
  if (replication_server_ != nullptr) replication_server_->Stop();
  // Gateway first (drains detection; its sink still feeds the trainer), then
  // the trainer (drains its mailbox into the store), then one final sync so
  // everything accepted before the stop is durable.
  gateway_.Stop();
  training_sink_.store(nullptr, std::memory_order_release);
  if (trainer_ != nullptr) trainer_->Stop();
  if (store_ != nullptr) (void)store_->Sync();
}

}  // namespace leakdet::cluster
