#include "federation/hub.h"

#include <sstream>
#include <unordered_set>

#include "core/packet.h"

namespace leakdet::federation {

FederationHub::FederationHub(gateway::DetectionGateway* gateway,
                             const core::PayloadCheck* oracle,
                             TenantResolver resolver, HubOptions options)
    : gateway_(gateway),
      oracle_(oracle),
      resolver_(std::move(resolver)),
      options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : obs::Registry::Default()) {
  if (!options_.data_root.empty()) {
    store::Dir* dir =
        options_.dir != nullptr ? options_.dir : store::Dir::Real();
    stores_ = std::make_unique<TenantStoreSet>(dir, options_.data_root,
                                               options_.store);
  }
  unknown_tenant_ = registry_->GetCounter("federation.unknown_tenant");
}

FederationHub::~FederationHub() { Stop(); }

Status FederationHub::AddTenant(const std::string& tenant) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  if (started_) {
    return Status::FailedPrecondition("AddTenant after Start");
  }
  if (tenants_.count(tenant) != 0) {
    return Status::FailedPrecondition("tenant already exists: " + tenant);
  }
  auto state = std::make_unique<Tenant>();
  Tenant* t = state.get();
  t->name = tenant;
  auto override_it = options_.tenant_overrides.find(tenant);
  t->config = override_it != options_.tenant_overrides.end()
                  ? override_it->second
                  : options_.defaults;
  if (t->config.witness_window == 0) t->config.witness_window = 1;

  obs::Labels labels{{"tenant", tenant}};
  t->submitted = registry_->GetCounter("federation.submitted", labels);
  t->kanon_suppressed =
      registry_->GetCounter("federation.kanon_suppressed", labels);
  t->kanon_dropped = registry_->GetCounter("federation.kanon_dropped", labels);
  t->published = registry_->GetCounter("federation.published", labels);

  t->server =
      std::make_unique<core::SignatureServer>(oracle_, options_.server);
  // The K-anonymity gate sits between training and everything downstream
  // (stored feed, snapshot, observer): what it returns IS the feed.
  t->server->SetFeedTransform(
      [this, t](uint64_t version, match::SignatureSet trained) {
        return GateFeed(t, version, std::move(trained));
      });

  // The caller's gateway shape, but a private registry: two gateways on one
  // registry would collide on series names and share its collect hooks.
  gateway::GatewayOptions gateway_options = gateway_->options();
  gateway_options.registry = nullptr;
  t->gateway = std::make_unique<gateway::DetectionGateway>(gateway_options);

  gateway::TrainerOptions trainer_options = options_.trainer;
  trainer_options.store = nullptr;
  if (stores_) {
    auto store = stores_->Open(tenant);
    if (!store.ok()) return store.status();
    t->store = *store;
    trainer_options.store = t->store;
  }
  // Installs the feed observer: from here on every version advance compiles
  // and publishes into the tenant's gateway.
  t->trainer = std::make_unique<gateway::TrainerLoop>(
      t->server.get(), t->gateway.get(), trainer_options);
  t->gateway->set_sink(t->trainer->Sink());

  if (t->store != nullptr) {
    // Serve-before-replay recovery. The transform is deliberately NOT
    // applied to restored or logged epochs (checkpoints and publish records
    // capture post-gate feeds; the witness window is empty after a restart
    // and would suppress everything), but replayed retrains do pass the
    // gate again.
    auto recovered = t->store->Recover(t->server.get());
    if (!recovered.ok()) return recovered.status();
  }
  CacheFeed(t);

  tenants_.emplace(tenant, std::move(state));
  return Status::OK();
}

Status FederationHub::Start() {
  if (started_) return Status::FailedPrecondition("hub already started");
  started_ = true;
  for (auto& [name, t] : tenants_) {
    Status status = t->trainer->Start();
    if (status.ok()) status = t->gateway->Start();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void FederationHub::Stop() {
  for (auto& [name, t] : tenants_) {
    // Every accepted packet reaches the trainer's mailbox before it closes.
    t->gateway->Stop();
    t->trainer->Stop();
  }
}

bool FederationHub::Submit(uint64_t device_key,
                           const core::HttpPacket& packet) {
  std::string tenant = resolver_(packet);
  Tenant* t = Find(tenant);
  if (t == nullptr) {
    unknown_tenant_->Inc();
    return gateway_->Submit(device_key, packet);
  }
  t->submitted->Inc();
  uint64_t hash = DeviceWitnessHash(device_key);
  {
    std::lock_guard<std::mutex> lock(t->witness_mu);
    ++t->observed;
    ObserveDevice(&t->devices, hash);
    // Once the ring is full, overwrite the oldest slot in place so its
    // content string's buffer is reused.
    WitnessRecord* record;
    if (t->ring.size() < t->config.witness_window) {
      record = &t->ring.emplace_back();
    } else {
      record = &t->ring[t->ring_next];
      t->ring_next = (t->ring_next + 1) % t->config.witness_window;
    }
    record->device_hash = hash;
    core::AppendPacketContent(packet, &record->content);
  }
  return t->gateway->Submit(device_key, packet);
}

match::SignatureSet FederationHub::GateFeed(Tenant* t, uint64_t version,
                                            match::SignatureSet trained) {
  // Snapshot the witness window (submit threads keep writing meanwhile).
  // Copy-assigned into the tenant's reused snapshot, whose records keep
  // their content buffers, so submit threads wait on a memcpy, not malloc.
  std::vector<WitnessRecord>& corpus = t->witness_snapshot;
  {
    std::lock_guard<std::mutex> lock(t->witness_mu);
    corpus = t->ring;
  }
  ShardExport local;
  local.tenant = t->name;
  local.witness_cap = t->config.witness_cap;
  local.candidates = Canonicalize(trained);
  std::unordered_set<std::string> seen;
  std::vector<std::string> tokens;
  for (const match::ConjunctionSignature& sig :
       local.candidates.signatures()) {
    for (const std::string& token : sig.tokens) {
      if (seen.insert(token).second) tokens.push_back(token);
    }
  }
  local.witness = BuildWitnessTable(tokens, corpus, t->config.witness_cap);

  PublishStats stats;
  match::SignatureSet gated =
      PublishFederated(local, t->config.k_anonymity, &stats);
  t->kanon_suppressed->Inc(stats.tokens_suppressed);
  t->kanon_dropped->Inc(stats.signatures_dropped);
  t->published->Inc();
  {
    std::lock_guard<std::mutex> lock(t->feed_mu);
    t->feed_version = version;
    t->feed_payload = gated.Serialize();
  }
  return gated;
}

void FederationHub::CacheFeed(Tenant* t) {
  // Setup-time only (single-threaded): prime the cache from the server's
  // current (possibly recovered) state so TenantFeed serves it immediately.
  std::lock_guard<std::mutex> lock(t->feed_mu);
  t->feed_version = t->server->feed_version();
  t->feed_payload = t->server->Feed();
}

FederationHub::Tenant* FederationHub::Find(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::optional<std::pair<uint64_t, std::string>> FederationHub::TenantFeed(
    const std::string& tenant) const {
  Tenant* t = Find(tenant);
  if (t == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(t->feed_mu);
  return std::make_pair(t->feed_version, t->feed_payload);
}

std::vector<std::string> FederationHub::tenants() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, _] : tenants_) names.push_back(name);
  return names;
}

std::string FederationHub::StatuszRender() const {
  std::ostringstream out;
  out << "tenants: " << tenants_.size() << "\n";
  for (const auto& [name, t] : tenants_) {
    uint64_t version;
    {
      std::lock_guard<std::mutex> lock(t->feed_mu);
      version = t->feed_version;
    }
    size_t devices;
    uint64_t observed;
    size_t window;
    {
      std::lock_guard<std::mutex> lock(t->witness_mu);
      devices = t->devices.size();
      observed = t->observed;
      window = t->ring.size();
    }
    out << "  " << name << ": feed_version=" << version
        << " k=" << t->config.k_anonymity << " devices_seen=" << devices
        << (devices >= ShardExport::kDeviceSetCap ? "+" : "")
        << " observed=" << observed << " witness_window=" << window << "/"
        << t->config.witness_window
        << " gateway_epoch=" << t->gateway->current_version() << "\n";
  }
  return out.str();
}

core::SignatureServer* FederationHub::server(const std::string& tenant) {
  Tenant* t = Find(tenant);
  return t == nullptr ? nullptr : t->server.get();
}

gateway::DetectionGateway* FederationHub::gateway(const std::string& tenant) {
  Tenant* t = Find(tenant);
  return t == nullptr ? nullptr : t->gateway.get();
}

gateway::TrainerLoop* FederationHub::trainer(const std::string& tenant) {
  Tenant* t = Find(tenant);
  return t == nullptr ? nullptr : t->trainer.get();
}

store::StoreManager* FederationHub::store(const std::string& tenant) {
  Tenant* t = Find(tenant);
  return t == nullptr ? nullptr : t->store;
}

}  // namespace leakdet::federation
