#include "http/server.h"

#include <chrono>
#include <utility>

#include "http/parser.h"
#include "net/tcp.h"

namespace leakdet::http {

Server::Server(Handler handler, Observer observer, ServerOptions options)
    : handler_(std::move(handler)),
      observer_(std::move(observer)),
      options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start(uint16_t port) {
  LEAKDET_ASSIGN_OR_RETURN(net::TcpListener listener,
                           net::TcpListener::Bind(port));
  return Start(std::make_unique<net::TcpListener>(std::move(listener)));
}

Status Server::Start(std::unique_ptr<net::Listener> listener) {
  if (running_.load()) return Status::FailedPrecondition("already running");
  if (!listener || !listener->ok()) {
    return Status::InvalidArgument("listener not open");
  }
  listener_ = std::move(listener);
  port_ = listener_->port();
  running_.store(true);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void Server::Stop() {
  const bool was_running = running_.exchange(false);
  if (thread_.joinable()) thread_.join();
  if (was_running && listener_) listener_->Close();
}

void Server::Serve() {
  while (running_.load()) {
    StatusOr<std::unique_ptr<net::Stream>> stream =
        listener_->AcceptStream(100);
    if (!stream.ok()) continue;  // timeout or transient error
    Handle(stream->get());
  }
}

void Server::Handle(net::Stream* stream) {
  Clock* clock = options_.clock != nullptr ? options_.clock : Clock::Real();
  const Clock::TimePoint start = clock->Now();
  auto report = [&](Outcome outcome, int status) {
    observer_(outcome, status,
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      clock->Now() - start)
                      .count()));
  };
  // The budget covers the whole request: a client may not extend it by
  // trickling bytes, because each read is bounded by the *remaining* budget,
  // not a fresh per-read timeout.
  const Clock::TimePoint deadline =
      start + std::chrono::milliseconds(options_.request_deadline_ms);
  std::string raw;
  bool failed = false;
  while (raw.find("\r\n\r\n") == std::string::npos &&
         raw.find("\n\n") == std::string::npos && raw.size() < 65536) {
    Clock::TimePoint now = clock->Now();
    // A clock that has stepped exactly onto the deadline is expired: the
    // budget is [start, deadline), so `now >= deadline` ends the request.
    if (now >= deadline) {
      failed = true;
      break;
    }
    // Round the remaining budget *up* to whole ms: truncation would turn a
    // sub-millisecond remainder into SetReadTimeout(0) — which means "block
    // forever", the exact opposite of an almost-expired deadline.
    auto remaining_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now)
            .count();
    int remaining_ms = static_cast<int>((remaining_ns + 999999) / 1000000);
    (void)stream->SetReadTimeout(remaining_ms);
    StatusOr<std::string> chunk = stream->ReadSome(4096);
    if (!chunk.ok()) {
      failed = true;  // deadline expired, or the connection died mid-request
      break;
    }
    if (chunk->empty()) break;
    raw += *chunk;
  }
  HttpResponse response;
  Outcome outcome = Outcome::kHandled;
  if (failed) {
    requests_timed_out_.fetch_add(1);
    if (raw.empty()) {
      report(Outcome::kDropped, 0);
      return;  // nothing ever arrived; just drop the connection
    }
    // A partial request that stalled out is not malformed — tell the client
    // it was too slow rather than pretending its syntax was bad.
    response.set_status(408, "Request Timeout");
    response.set_body("request incomplete before deadline\n");
    outcome = Outcome::kTimedOut;
  } else if (StatusOr<HttpRequest> request = ParseRequest(raw); request.ok()) {
    response = handler_(*request);
  } else {
    response.set_status(400, "Bad Request");
    response.set_body("malformed request\n");
    outcome = Outcome::kMalformed;
  }
  response.AddHeader("Connection", "close");
  (void)stream->WriteAll(response.Serialize());
  if (outcome != Outcome::kTimedOut) requests_served_.fetch_add(1);
  report(outcome, response.status_code());
}

StatusOr<HttpResponse> Get(net::Stream* stream, const std::string& target) {
  HttpRequest request("GET", target);
  request.AddHeader("Host", "127.0.0.1");
  request.AddHeader("Connection", "close");
  LEAKDET_RETURN_IF_ERROR(stream->WriteAll(request.Serialize()));
  stream->ShutdownWrite();
  LEAKDET_ASSIGN_OR_RETURN(std::string raw, stream->ReadUntilClose());
  return ParseResponse(raw);
}

StatusOr<HttpResponse> Get(uint16_t port, const std::string& target) {
  LEAKDET_ASSIGN_OR_RETURN(net::TcpConnection connection,
                           net::TcpConnectLoopback(port));
  return Get(&connection, target);
}

}  // namespace leakdet::http
