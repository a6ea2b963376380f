// http::Server, the one transport under the feed, replication and admin
// planes: each connection's outcome, status and wall time reach the owner's
// observer exactly once, before the connection closes. Also the feed
// server's mapping of those reports onto its feedserver.requests series.

#include "http/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/feed_server.h"
#include "obs/metrics.h"
#include "testing/scripted_conn.h"
#include "testing/virtual_clock.h"

namespace leakdet::http {
namespace {

using std::chrono::milliseconds;

struct Report {
  Server::Outcome outcome;
  int status;
  uint64_t wall_ns;
};

/// Observer that keeps every report (the server thread writes, the test
/// thread reads).
class Reports {
 public:
  Server::Observer Observer() {
    return [this](Server::Outcome outcome, int status, uint64_t wall_ns) {
      std::lock_guard<std::mutex> lock(mu_);
      reports_.push_back({outcome, status, wall_ns});
    };
  }
  std::vector<Report> Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return reports_;
  }

 private:
  std::mutex mu_;
  std::vector<Report> reports_;
};

HttpResponse OkOn(const HttpRequest& request) {
  HttpResponse response;
  if (request.target() == "/ok") {
    response.set_status(200, "OK");
  } else {
    response.set_status(404, "Not Found");
  }
  return response;
}

TEST(HttpServerTest, ReportsEachConnectionBeforeClosingIt) {
  Reports reports;
  Server server(OkOn, reports.Observer());
  auto listener = std::make_unique<testing::ScriptedListener>();
  testing::ScriptedListener* raw = listener.get();
  ASSERT_TRUE(server.Start(std::move(listener)).ok());

  auto ok_client = raw->Connect();
  StatusOr<HttpResponse> ok = Get(ok_client.get(), "/ok");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status_code(), 200);
  EXPECT_EQ(ok->FindHeader("Connection").value_or(""), "close");
  // The client saw the connection close, so the report is already in.
  ASSERT_EQ(reports.Get().size(), 1u);
  EXPECT_EQ(reports.Get()[0].outcome, Server::Outcome::kHandled);
  EXPECT_EQ(reports.Get()[0].status, 200);

  auto missing_client = raw->Connect();
  ASSERT_TRUE(Get(missing_client.get(), "/missing").ok());
  ASSERT_EQ(reports.Get().size(), 2u);
  EXPECT_EQ(reports.Get()[1].outcome, Server::Outcome::kHandled);
  EXPECT_EQ(reports.Get()[1].status, 404);

  auto garbage_client = raw->Connect();
  ASSERT_TRUE(garbage_client->WriteAll("NOT HTTP\r\n\r\n").ok());
  garbage_client->ShutdownWrite();
  StatusOr<std::string> garbage = garbage_client->ReadUntilClose();
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u);
  ASSERT_EQ(reports.Get().size(), 3u);
  EXPECT_EQ(reports.Get()[2].outcome, Server::Outcome::kMalformed);
  EXPECT_EQ(reports.Get()[2].status, 400);

  server.Stop();
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(server.requests_timed_out(), 0u);
}

// A silent client is dropped at the deadline; its wall time is read from
// the injected clock, so it spans the whole budget.
TEST(HttpServerTest, DroppedConnectionReportsItsWallTimeOnTheInjectedClock) {
  testing::VirtualClock clock;
  Reports reports;
  Server server(OkOn, reports.Observer(),
                {.request_deadline_ms = 500, .clock = &clock});
  auto listener = std::make_unique<testing::ScriptedListener>(&clock);
  testing::ScriptedListener* raw = listener.get();
  ASSERT_TRUE(server.Start(std::move(listener)).ok());

  auto client = raw->Connect();
  std::atomic<bool> closed{false};
  std::thread advancer([&] {
    while (!closed.load()) {
      std::this_thread::sleep_for(milliseconds(10));
      clock.Advance(milliseconds(100));
    }
  });
  StatusOr<std::string> response = client->ReadUntilClose();
  closed.store(true);
  advancer.join();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "");
  std::vector<Report> seen = reports.Get();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].outcome, Server::Outcome::kDropped);
  EXPECT_EQ(seen[0].status, 0);
  EXPECT_GE(seen[0].wall_ns, 500'000'000u);
  server.Stop();
  EXPECT_EQ(server.requests_timed_out(), 1u);
  EXPECT_EQ(server.requests_served(), 0u);
}

// The feed server files every report under one feedserver.requests outcome.
TEST(HttpServerTest, FeedServerCountsEachOutcomeUnderItsLabel) {
  obs::Registry registry;
  io::FeedServerOptions options;
  options.registry = &registry;
  io::FeedServer feed(
      [] { return std::make_pair(uint64_t{1}, std::string("p")); }, options);
  ASSERT_TRUE(feed.AddRoute("/down", [](const std::string&) {
                    return StatusOr<std::pair<uint64_t, std::string>>(
                        Status::IOError("replica behind"));
                  })
                  .ok());
  auto listener = std::make_unique<testing::ScriptedListener>();
  testing::ScriptedListener* raw = listener.get();
  ASSERT_TRUE(feed.Start(std::move(listener)).ok());

  for (const char* target : {"/feed", "/version", "/nope", "/down"}) {
    auto client = raw->Connect();
    ASSERT_TRUE(Get(client.get(), target).ok()) << target;
  }
  for (const char* request :
       {"POST /feed HTTP/1.1\r\n\r\n", "NOT HTTP\r\n\r\n"}) {
    auto client = raw->Connect();
    ASSERT_TRUE(client->WriteAll(request).ok());
    client->ShutdownWrite();
    ASSERT_TRUE(client->ReadUntilClose().ok());
  }
  feed.Stop();

  auto count = [&](const std::string& outcome) {
    return registry
        .GetCounter("feedserver.requests", {{"outcome", outcome}})
        ->Value();
  };
  EXPECT_EQ(count("ok"), 2u);
  EXPECT_EQ(count("not_found"), 1u);
  EXPECT_EQ(count("unavailable"), 1u);
  EXPECT_EQ(count("method_not_allowed"), 1u);
  EXPECT_EQ(count("bad_request"), 1u);
  EXPECT_EQ(registry.GetHistogram("feedserver.request_ns")->Take().count, 6u);
}

}  // namespace
}  // namespace leakdet::http
