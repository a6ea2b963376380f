#ifndef LEAKDET_OBS_ADMIN_SERVER_H_
#define LEAKDET_OBS_ADMIN_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "http/response.h"
#include "http/server.h"
#include "net/stream.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/statusor.h"

namespace leakdet::obs {

/// Human-readable build identification for /statusz and the
/// `leakdet_build_info` gauge: compiler, language standard, and word size.
/// Deliberately free of timestamps so builds stay reproducible.
std::string BuildInfoString();

/// Tunables for AdminServer. Defaults serve production; tests inject a
/// virtual clock and scripted listeners to make every deadline
/// deterministic.
struct AdminServerOptions {
  /// The registry /metrics exposes. nullptr = Registry::Default().
  Registry* registry = nullptr;
  /// See http::ServerOptions::request_deadline_ms.
  int request_deadline_ms = 2000;
  /// Time source for the request deadline. nullptr = Clock::Real().
  Clock* clock = nullptr;
};

/// The process observability endpoint: a tiny HTTP server on the
/// net::Listener/Stream seam exposing
///   GET /metrics  -> Prometheus text exposition of the registry
///   GET /healthz  -> "ok" once the server is accepting
///   GET /statusz  -> build info plus every registered status section
///   GET /varz     -> the registry's legacy flat TextDump
/// Production binds a TcpListener; the chaos harness runs it on a
/// testing::ScriptedListener so fault schedules cover the admin plane too.
class AdminServer {
 public:
  /// Renders one /statusz section body (plain text, one `key: value` per
  /// line). Runs on the server thread per request — must be thread-safe and
  /// must only read state that is safe from any thread (atomics, gauges,
  /// mutex-guarded snapshots).
  using StatusSection = std::function<std::string()>;

  explicit AdminServer(AdminServerOptions options = {});
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers a /statusz section, rendered in registration order under
  /// `[title]`. Re-registering an existing title replaces its renderer in
  /// place (components whose shape changes at runtime — e.g. a cluster node
  /// changing role — re-register rather than duplicate). Thread-safe; may be
  /// called while serving.
  void AddStatusSection(std::string title, StatusSection section);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop.
  Status Start(uint16_t port = 0) { return server_.Start(port); }

  /// Starts the accept loop on an injected transport (testing seam).
  Status Start(std::unique_ptr<net::Listener> listener) {
    return server_.Start(std::move(listener));
  }

  /// Stops the accept loop and joins the server thread. Idempotent.
  void Stop() { server_.Stop(); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return server_.port(); }

  /// Requests answered so far (any response, including 404s).
  uint64_t requests_served() const { return server_.requests_served(); }

  /// Pure request dispatch — what the server answers, exposed so unit tests
  /// can cover routing without a transport.
  http::HttpResponse Respond(const std::string& method,
                             const std::string& target) const;

 private:
  std::string RenderStatusz() const;

  Registry* registry_;

  mutable std::mutex sections_mu_;
  std::vector<std::pair<std::string, StatusSection>> sections_;

  // Mutable: Respond() is logically read-only routing but records its own
  // outcome (relaxed atomics behind a family cache).
  mutable CounterFamily requests_by_path_;
  Counter* requests_timed_out_ = nullptr;
  Histogram* request_ns_ = nullptr;
  // Last member: destroyed (stopped and joined) before anything its
  // handler reads.
  http::Server server_;
};

}  // namespace leakdet::obs

#endif  // LEAKDET_OBS_ADMIN_SERVER_H_
