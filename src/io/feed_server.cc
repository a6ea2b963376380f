#include "io/feed_server.h"

#include "crypto/sha1.h"
#include "http/url.h"
#include "net/tcp.h"
#include "util/strutil.h"

namespace leakdet::io {

namespace {

/// The feedserver.requests outcome label for one finished connection (a
/// malformed request is answered 400, so it lands in bad_request).
const char* OutcomeLabel(http::Server::Outcome outcome, int status) {
  if (outcome == http::Server::Outcome::kDropped) return "dropped";
  if (outcome == http::Server::Outcome::kTimedOut) return "timeout";
  if (status == 200) return "ok";
  if (status == 400) return "bad_request";
  if (status == 404) return "not_found";
  if (status == 405) return "method_not_allowed";
  return "unavailable";
}

obs::Registry* RegistryOrDefault(obs::Registry* registry) {
  return registry != nullptr ? registry : obs::Registry::Default();
}

/// A 200 carrying `payload` with its version and the SHA-1 the client
/// verifies end to end: a flipped byte anywhere between here and the device
/// must fail the fetch, never silently install wrong signatures.
void SetDigestedPayload(uint64_t version, std::string payload,
                        http::HttpResponse* response) {
  response->set_status(200, "OK");
  response->AddHeader("Content-Type", "text/plain");
  response->AddHeader("X-Feed-Version", std::to_string(version));
  response->AddHeader("X-Feed-Digest", crypto::Sha1Hex(payload));
  response->set_body(std::move(payload));
}

}  // namespace

FeedServer::FeedServer(FeedProvider provider, FeedServerOptions options)
    : provider_(std::move(provider)),
      outcomes_(RegistryOrDefault(options.registry), "feedserver.requests",
                "outcome"),
      request_ns_(RegistryOrDefault(options.registry)
                      ->GetHistogram("feedserver.request_ns")),
      server_([this](const http::HttpRequest& request) {
                return Respond(request);
              },
              [this](http::Server::Outcome outcome, int status,
                     uint64_t wall_ns) {
                outcomes_.With(OutcomeLabel(outcome, status))->Inc();
                request_ns_->Observe(wall_ns);
              },
              {options.request_deadline_ms, options.clock}) {}

Status FeedServer::AddRoute(const std::string& path, RouteHandler handler) {
  if (server_.running()) return Status::FailedPrecondition("already running");
  if (path.empty() || path[0] != '/' || path == "/feed" || path == "/version") {
    return Status::InvalidArgument("invalid or reserved route path: " + path);
  }
  if (!handler) return Status::InvalidArgument("null route handler");
  routes_[path] = std::move(handler);
  return Status::OK();
}

http::HttpResponse FeedServer::Respond(const http::HttpRequest& request) {
  http::HttpResponse response;
  http::Target target = request.SplitRequestTarget();
  const std::string& path = target.path;
  // Tenant routing: `?tenant=<name>` selects a namespaced feed. Resolved
  // up front so /feed and /version share the lookup (and its 404s).
  bool tenant_requested = false;
  bool tenant_bad = false;
  std::optional<std::pair<uint64_t, std::string>> tenant_feed;
  if (auto params = http::ParseQuery(target.raw_query); params.ok()) {
    for (const http::QueryParam& param : *params) {
      if (param.key != "tenant") continue;
      tenant_requested = true;
      if (tenant_provider_) tenant_feed = tenant_provider_(param.value);
      break;
    }
  } else {
    tenant_bad = true;
  }
  auto resolve = [&]() -> std::pair<uint64_t, std::string> {
    return tenant_requested ? std::move(*tenant_feed) : provider_();
  };
  if (request.method() != "GET") {
    response.set_status(405, "Method Not Allowed");
  } else if (tenant_bad) {
    response.set_status(400, "Bad Request");
    response.set_body("malformed query\n");
  } else if ((path == "/feed" || path == "/version") && tenant_requested &&
             !tenant_feed.has_value()) {
    // An unknown tenant must fail loudly, never fall through to the
    // default namespace: feeds are a per-tenant trust boundary.
    response.set_status(404, "Not Found");
    response.set_body("unknown tenant\n");
  } else if (path == "/feed") {
    auto [version, payload] = resolve();
    SetDigestedPayload(version, std::move(payload), &response);
  } else if (path == "/version") {
    response.set_status(200, "OK");
    response.AddHeader("Content-Type", "text/plain");
    response.set_body(std::to_string(resolve().first));
  } else if (auto route = routes_.find(path); route != routes_.end()) {
    // Extra routes (replication plane): same integrity contract as /feed —
    // every successful payload is digest-protected end to end.
    StatusOr<std::pair<uint64_t, std::string>> served =
        route->second(target.raw_query);
    if (served.ok()) {
      SetDigestedPayload(served->first, std::move(served->second), &response);
    } else if (served.status().code() == StatusCode::kNotFound) {
      response.set_status(404, "Not Found");
      response.set_body(served.status().message() + "\n");
    } else if (served.status().code() == StatusCode::kInvalidArgument) {
      response.set_status(400, "Bad Request");
      response.set_body(served.status().message() + "\n");
    } else {
      response.set_status(503, "Service Unavailable");
      response.set_body(served.status().message() + "\n");
    }
  } else {
    response.set_status(404, "Not Found");
    response.set_body("unknown path\n");
  }
  return response;
}

namespace {

/// "/feed" or "/feed?tenant=<percent-encoded name>".
std::string TenantPath(const char* base, const std::string& tenant) {
  if (tenant.empty()) return base;
  return std::string(base) + "?tenant=" + http::PercentEncode(tenant);
}

}  // namespace

StatusOr<FetchedFeed> FetchPathFrom(net::Stream* stream,
                                    const std::string& target) {
  LEAKDET_ASSIGN_OR_RETURN(http::HttpResponse response,
                           http::Get(stream, target));
  if (response.status_code() != 200) {
    return Status::NotFound("fetch of " + target + " failed: HTTP " +
                            std::to_string(response.status_code()));
  }
  FetchedFeed feed;
  feed.payload = response.body();
  if (auto version = response.FindHeader("X-Feed-Version")) {
    LEAKDET_ASSIGN_OR_RETURN(feed.version, leakdet::ParseUint64(*version));
  }
  if (auto digest = response.FindHeader("X-Feed-Digest")) {
    if (*digest != crypto::Sha1Hex(feed.payload)) {
      return Status::Corruption("payload of " + target +
                                " does not match X-Feed-Digest");
    }
  }
  return feed;
}

StatusOr<FetchedFeed> FetchFeedFrom(net::Stream* stream,
                                    const std::string& tenant) {
  return FetchPathFrom(stream, TenantPath("/feed", tenant));
}

StatusOr<uint64_t> FetchFeedVersionFrom(net::Stream* stream,
                                        const std::string& tenant) {
  LEAKDET_ASSIGN_OR_RETURN(http::HttpResponse response,
                           http::Get(stream, TenantPath("/version", tenant)));
  if (response.status_code() != 200) {
    return Status::NotFound("version fetch failed: HTTP " +
                            std::to_string(response.status_code()));
  }
  return leakdet::ParseUint64(response.body());
}

StatusOr<FetchedFeed> FetchFeed(uint16_t port, const std::string& tenant) {
  LEAKDET_ASSIGN_OR_RETURN(net::TcpConnection connection,
                           net::TcpConnectLoopback(port));
  return FetchFeedFrom(&connection, tenant);
}

StatusOr<uint64_t> FetchFeedVersion(uint16_t port,
                                    const std::string& tenant) {
  LEAKDET_ASSIGN_OR_RETURN(net::TcpConnection connection,
                           net::TcpConnectLoopback(port));
  return FetchFeedVersionFrom(&connection, tenant);
}

}  // namespace leakdet::io
