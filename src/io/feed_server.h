#ifndef LEAKDET_IO_FEED_SERVER_H_
#define LEAKDET_IO_FEED_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "http/server.h"
#include "net/stream.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/statusor.h"

namespace leakdet::io {

/// Tunables for FeedServer: the transport's (whole-request deadline, clock)
/// plus where its metrics go.
struct FeedServerOptions {
  /// See http::ServerOptions::request_deadline_ms.
  int request_deadline_ms = 2000;
  /// Time source for the request deadline. nullptr = Clock::Real().
  Clock* clock = nullptr;
  /// Metrics destination for the feedserver.requests outcome family and the
  /// request-duration histogram. nullptr = obs::Registry::Default().
  obs::Registry* registry = nullptr;
};

/// The signature-distribution half of Figure 3(a) over real HTTP: a tiny
/// loopback server exposing
///   GET /feed     -> the current serialized signature set
///                    (X-Feed-Version carries the version, X-Feed-Digest its
///                    SHA-1 — clients verify end-to-end integrity)
///   GET /version  -> the version number as a decimal body
/// Devices poll /version and re-fetch /feed when it advances.
class FeedServer {
 public:
  /// Returns the current (version, serialized feed). Called per request from
  /// the server thread; must be thread-safe on the caller's side.
  using FeedProvider = std::function<std::pair<uint64_t, std::string>()>;

  /// Namespaced provider for multi-tenant deployments: requests carrying
  /// `?tenant=<name>` resolve through this instead of the default provider.
  /// Returning nullopt means "no such tenant" (the request gets 404 — an
  /// unknown tenant must not silently receive another tenant's feed).
  using TenantFeedProvider =
      std::function<std::optional<std::pair<uint64_t, std::string>>(
          const std::string& tenant)>;

  /// Handler for an extra route (see AddRoute). Receives the request's raw
  /// query string ("" if none) and returns the (version, payload) pair to
  /// serve — delivered exactly like /feed, with X-Feed-Version and an
  /// X-Feed-Digest the client verifies end-to-end. Errors map to HTTP:
  /// NotFound/InvalidArgument -> 404/400, anything else -> 503. Called from
  /// the server thread; must be thread-safe.
  using RouteHandler =
      std::function<StatusOr<std::pair<uint64_t, std::string>>(
          const std::string& raw_query)>;

  explicit FeedServer(FeedProvider provider, FeedServerOptions options = {});
  FeedServer(const FeedServer&) = delete;
  FeedServer& operator=(const FeedServer&) = delete;

  /// Installs the tenant provider (federation hubs pass
  /// FederationHub::TenantFeed). Set before Start(), like the listener.
  /// Without one, tenant-qualified requests 404.
  void set_tenant_provider(TenantFeedProvider provider) {
    tenant_provider_ = std::move(provider);
  }

  /// Registers an extra GET route (e.g. "/replog", "/snapshot" for the
  /// cluster replication plane), served through the same digest-integrity
  /// path as /feed. Set before Start(), like the listener; replaces any
  /// previous handler for the same path. Reserved paths (/feed, /version)
  /// are rejected.
  Status AddRoute(const std::string& path, RouteHandler handler);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop.
  Status Start(uint16_t port = 0) { return server_.Start(port); }

  /// Starts the accept loop on an injected transport (testing seam: a
  /// testing::ScriptedListener delivers fault-scripted connections).
  Status Start(std::unique_ptr<net::Listener> listener) {
    return server_.Start(std::move(listener));
  }

  /// Stops the accept loop and joins the server thread. Idempotent.
  void Stop() { server_.Stop(); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return server_.port(); }

  /// Requests served so far (observability for tests).
  uint64_t requests_served() const { return server_.requests_served(); }

  /// Connections whose request never completed inside the deadline.
  uint64_t requests_timed_out() const { return server_.requests_timed_out(); }

 private:
  http::HttpResponse Respond(const http::HttpRequest& request);

  FeedProvider provider_;
  TenantFeedProvider tenant_provider_;
  std::map<std::string, RouteHandler> routes_;
  // Every handled connection lands in exactly one outcome series:
  // ok / not_found / method_not_allowed / bad_request / unavailable /
  // timeout / dropped.
  obs::CounterFamily outcomes_;
  obs::Histogram* request_ns_;
  // Last member: destroyed (stopped and joined) before anything its
  // handler reads.
  http::Server server_;
};

/// Result of one feed fetch.
struct FetchedFeed {
  uint64_t version = 0;
  std::string payload;
};

/// Device-side client: GET /feed from a loopback FeedServer. When the
/// response carries X-Feed-Digest, the payload is verified against it and a
/// Corruption status is returned on mismatch (a fetch never silently
/// delivers a damaged feed). Non-empty `tenant` fetches that tenant's
/// namespaced feed (`?tenant=...`); NotFound if the server has no such
/// tenant.
StatusOr<FetchedFeed> FetchFeed(uint16_t port, const std::string& tenant = "");

/// Device-side client: GET /version only (cheap poll). `tenant` as above.
StatusOr<uint64_t> FetchFeedVersion(uint16_t port,
                                    const std::string& tenant = "");

/// Transport-injected forms of the fetch helpers (testing seam). The stream
/// must be freshly connected; it is consumed by the request/response cycle.
StatusOr<FetchedFeed> FetchFeedFrom(net::Stream* stream,
                                    const std::string& tenant = "");
StatusOr<uint64_t> FetchFeedVersionFrom(net::Stream* stream,
                                        const std::string& tenant = "");

/// One GET of an arbitrary digest-protected target ("/replog?after=7",
/// "/snapshot", ...) against a FeedServer — the client half of AddRoute.
/// Exactly FetchFeedFrom's contract: NotFound on a non-200, Corruption when
/// the payload fails its X-Feed-Digest.
StatusOr<FetchedFeed> FetchPathFrom(net::Stream* stream,
                                    const std::string& target);

}  // namespace leakdet::io

#endif  // LEAKDET_IO_FEED_SERVER_H_
