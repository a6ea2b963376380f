#ifndef LEAKDET_HTTP_SERVER_H_
#define LEAKDET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "http/message.h"
#include "http/response.h"
#include "net/stream.h"
#include "util/clock.h"
#include "util/statusor.h"

namespace leakdet::http {

/// Tunables for Server. Defaults serve production; tests inject a virtual
/// clock and scripted listeners to make every deadline deterministic.
struct ServerOptions {
  /// Total budget for one connection to deliver its request, in ms. This is
  /// a whole-request deadline, not a per-read timeout: a client trickling
  /// one byte per read cannot extend it. A connection that exceeds it with a
  /// partial request receives 408 Request Timeout; one that sent nothing is
  /// silently dropped.
  int request_deadline_ms = 2000;
  /// Time source for the request deadline. nullptr = Clock::Real().
  Clock* clock = nullptr;
};

/// The one-request-per-connection HTTP transport shared by the feed,
/// replication and admin planes: a listener, an accept thread, the
/// whole-request deadline reader and the transport-level answers (408 on a
/// stalled partial request, 400 on bytes that do not parse). Everything
/// else — routing and what each route serves — is the owner's Handler.
/// Every response carries `Connection: close`.
class Server {
 public:
  /// How one connection ended.
  enum class Outcome {
    kHandled,    ///< the Handler answered; `status` is its status code
    kMalformed,  ///< the request did not parse; answered 400
    kTimedOut,   ///< a partial request missed the deadline; answered 408
    kDropped,    ///< nothing arrived before the deadline; nothing written
  };

  /// Answers one parsed request. Runs on the server thread.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Told each connection's outcome, the status written (0 when dropped)
  /// and its wall time from accept to the last byte written, before the
  /// connection closes. Runs on the server thread.
  using Observer =
      std::function<void(Outcome outcome, int status, uint64_t wall_ns)>;

  Server(Handler handler, Observer observer, ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop.
  Status Start(uint16_t port = 0);

  /// Starts the accept loop on an injected transport (testing seam: a
  /// testing::ScriptedListener delivers fault-scripted connections).
  Status Start(std::unique_ptr<net::Listener> listener);

  /// Stops the accept loop, joins the server thread and closes the
  /// listener. Idempotent; Start() may follow.
  void Stop();

  bool running() const { return running_.load(); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Connections answered (handled or malformed).
  uint64_t requests_served() const { return requests_served_.load(); }

  /// Connections whose request never completed inside the deadline.
  uint64_t requests_timed_out() const { return requests_timed_out_.load(); }

 private:
  void Serve();
  void Handle(net::Stream* stream);

  Handler handler_;
  Observer observer_;
  ServerOptions options_;
  std::unique_ptr<net::Listener> listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_timed_out_{0};
  std::thread thread_;  // last: uses every member above
};

/// Client half: one GET of `target` over a freshly connected stream, which
/// the request/response cycle consumes.
StatusOr<HttpResponse> Get(net::Stream* stream, const std::string& target);

/// One GET against a loopback server on `port`.
StatusOr<HttpResponse> Get(uint16_t port, const std::string& target);

}  // namespace leakdet::http

#endif  // LEAKDET_HTTP_SERVER_H_
