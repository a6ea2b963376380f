#ifndef LEAKDET_FEDERATION_HUB_H_
#define LEAKDET_FEDERATION_HUB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/payload_check.h"
#include "core/signature_server.h"
#include "federation/merge.h"
#include "federation/tenant_store.h"
#include "federation/witness.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "obs/metrics.h"
#include "store/file.h"
#include "util/statusor.h"

namespace leakdet::federation {

/// Per-tenant federation policy.
struct TenantConfig {
  /// A token enters this tenant's published feed only if at least this many
  /// distinct devices witnessed it (the K-anonymity gate). 1 disables the
  /// gate; must be <= witness_cap for exact decisions.
  size_t k_anonymity = 2;
  /// Witness-evidence retention: the hub keeps the last `witness_window`
  /// (device, content) observations per tenant to re-derive witness sets at
  /// each retrain. Sized to comfortably cover one retrain_after interval.
  size_t witness_window = 4096;
  /// Witness-set truncation (see WitnessTable).
  size_t witness_cap = WitnessTable::kDefaultCap;
};

struct HubOptions {
  /// Policy for tenants without an explicit override.
  TenantConfig defaults;
  std::map<std::string, TenantConfig> tenant_overrides;
  /// Per-tenant SignatureServer shape (pools, retrain cadence, pipeline).
  core::SignatureServer::Options server;
  /// Trainer template; `store` is filled in per tenant.
  gateway::TrainerOptions trainer;
  /// Root directory for per-tenant store lineages ("" = no persistence).
  std::string data_root;
  /// Filesystem seam (nullptr = store::Dir::Real()).
  store::Dir* dir = nullptr;
  /// Store shape shared by every tenant lineage.
  store::StoreOptions store;
  /// Metrics destination for federation.* families (nullptr =
  /// obs::Registry::Default()).
  obs::Registry* registry = nullptr;
};

/// The crowdsourced control plane: one detection front per tenant.
///
/// Each tenant gets its own DetectionGateway (the caller's gateway shape,
/// with a private metrics registry), SignatureServer and TrainerLoop, and
/// its own WAL/snapshot lineage under `<data_root>/tenant-<name>/`: a
/// tenant's epoch, verdicts and metrics never touch another tenant's or the
/// caller's gateway. Between training and publication every feed passes the
/// K-anonymity gate: the hub keeps a bounded per-tenant window of
/// (device-hash, content) observations, and a SignatureServer feed
/// transform rebuilds the witness table at each retrain and generalizes out
/// every token seen on fewer than K distinct devices — device-unique
/// identifier values never reach a published signature even when they
/// cluster.
///
/// Threading: every tenant runs `num_shards` gateway worker threads plus
/// one training thread (preserving the server's serialization contract).
/// AddTenant/Start are setup-time (single thread, before traffic). Submit
/// is thread-safe and may be called concurrently with trainer publishes.
/// TenantFeed/StatuszRender are thread-safe (feed-server and admin
/// threads).
class FederationHub {
 public:
  /// Maps a packet to its tenant (e.g. by app id). Must be thread-safe: it
  /// runs on submit threads.
  using TenantResolver = std::function<std::string(const core::HttpPacket&)>;

  /// `gateway` and `oracle` must outlive the hub. Not owned. `gateway`
  /// serves packets of unconfigured tenants, and its options() are the
  /// shape of every tenant gateway; its sink stays the caller's.
  FederationHub(gateway::DetectionGateway* gateway,
                const core::PayloadCheck* oracle, TenantResolver resolver,
                HubOptions options);
  ~FederationHub();
  FederationHub(const FederationHub&) = delete;
  FederationHub& operator=(const FederationHub&) = delete;

  /// Creates (and recovers, when a data root is configured) one tenant:
  /// gateway, server, K-anonymity transform, trainer, store lineage. If the
  /// lineage holds a persisted epoch it is republished into the tenant's
  /// gateway before this returns. Setup-time only.
  Status AddTenant(const std::string& tenant);

  /// Starts every tenant's trainer and gateway. Call after the last
  /// AddTenant.
  Status Start();

  /// Stops every tenant: drains its gateway into its trainer, then drains
  /// the trainer's mailbox and syncs its store. Idempotent.
  void Stop();

  /// Routes one device packet: records K-anonymity witness evidence and
  /// submits to the packet's tenant gateway. Packets resolving to an
  /// unconfigured tenant go to the caller's gateway (and are counted).
  /// Thread-safe.
  bool Submit(uint64_t device_key, const core::HttpPacket& packet);

  /// The (version, serialized feed) for `tenant`, nullopt if unknown —
  /// exactly the shape io::FeedServer::TenantFeedProvider wants. The feed
  /// is cached at publish time, so this never touches training state.
  std::optional<std::pair<uint64_t, std::string>> TenantFeed(
      const std::string& tenant) const;

  std::vector<std::string> tenants() const;

  /// /statusz section body: per-tenant feed versions, K settings, witness
  /// coverage, gate counters.
  std::string StatuszRender() const;

  /// Test/tooling access to a tenant's server (training-thread contract
  /// still applies). nullptr if unknown.
  core::SignatureServer* server(const std::string& tenant);
  gateway::DetectionGateway* gateway(const std::string& tenant);
  gateway::TrainerLoop* trainer(const std::string& tenant);
  store::StoreManager* store(const std::string& tenant);

 private:
  struct Tenant {
    std::string name;
    TenantConfig config;
    // Declaration order is destruction-critical (members are destroyed in
    // reverse order): the trainer deregisters itself from the server and
    // publishes into the gateway, so it must die first. The gateway's sink
    // points at the trainer; Stop() joins the gateway workers before that.
    std::unique_ptr<core::SignatureServer> server;
    std::unique_ptr<gateway::DetectionGateway> gateway;
    std::unique_ptr<gateway::TrainerLoop> trainer;
    store::StoreManager* store = nullptr;  ///< owned by stores_

    /// Witness window: a ring of the last witness_window observations.
    /// Written by submit threads, copied by the trainer thread inside the
    /// feed transform.
    mutable std::mutex witness_mu;
    std::vector<WitnessRecord> ring;
    size_t ring_next = 0;
    std::vector<uint64_t> devices;  ///< min-cap distinct device hashes
    uint64_t observed = 0;
    /// GateFeed's copy of `ring`, reused across retrains. Only the feed
    /// transform touches it, and one tenant's transform never runs twice at
    /// once: it runs on the tenant's trainer thread, or during AddTenant's
    /// recovery before that thread starts.
    std::vector<WitnessRecord> witness_snapshot;

    /// Published-feed cache for TenantFeed (feed-server threads).
    mutable std::mutex feed_mu;
    uint64_t feed_version = 0;
    std::string feed_payload;

    obs::Counter* submitted = nullptr;
    obs::Counter* kanon_suppressed = nullptr;
    obs::Counter* kanon_dropped = nullptr;
    obs::Counter* published = nullptr;
  };

  /// The K-anonymity gate + feed cache, installed as `tenant`'s server
  /// feed transform (trainer thread).
  match::SignatureSet GateFeed(Tenant* tenant, uint64_t version,
                               match::SignatureSet trained);
  void CacheFeed(Tenant* tenant);
  Tenant* Find(const std::string& tenant) const;

  gateway::DetectionGateway* gateway_;
  const core::PayloadCheck* oracle_;
  TenantResolver resolver_;
  HubOptions options_;
  obs::Registry* registry_;
  std::unique_ptr<TenantStoreSet> stores_;  ///< null without a data root
  /// Mutated only by AddTenant (setup-time); read-only once traffic flows.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  obs::Counter* unknown_tenant_ = nullptr;
  bool started_ = false;
};

}  // namespace leakdet::federation

#endif  // LEAKDET_FEDERATION_HUB_H_
