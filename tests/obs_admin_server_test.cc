// obs::AdminServer: routing unit tests via Respond(), transport-level tests
// over a testing::ScriptedListener, and a real-TCP loopback smoke test
// (the admin-plane smoke CI runs under LEAKDET_SANITIZE=thread).

#include "obs/admin_server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "http/server.h"
#include "obs/metrics.h"
#include "testing/scripted_conn.h"
#include "testing/virtual_clock.h"

namespace leakdet::obs {
namespace {

TEST(AdminServerRespondTest, HealthzIsOk) {
  Registry registry;
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  http::HttpResponse response = admin.Respond("GET", "/healthz");
  EXPECT_EQ(response.status_code(), 200);
  EXPECT_EQ(response.body(), "ok\n");
}

TEST(AdminServerRespondTest, MetricsServesPrometheusExposition) {
  Registry registry;
  registry.GetCounter("app.requests")->Inc(7);
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  http::HttpResponse response = admin.Respond("GET", "/metrics");
  EXPECT_EQ(response.status_code(), 200);
  auto content_type = response.FindHeader("Content-Type");
  ASSERT_TRUE(content_type.has_value());
  EXPECT_EQ(*content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body().find("# TYPE app_requests counter\n"),
            std::string::npos);
  EXPECT_NE(response.body().find("app_requests 7\n"), std::string::npos);
  // The admin server's own request metrics live in the same registry.
  EXPECT_NE(response.body().find("admin_requests"), std::string::npos);
}

TEST(AdminServerRespondTest, StatuszRendersBuildInfoAndSections) {
  Registry registry;
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  admin.AddStatusSection("gateway", [] {
    return std::string("epoch_version: 7\nepoch_age_ns: 123\n");
  });
  admin.AddStatusSection("store", [] {
    return std::string("wal_last_sequence: 42");  // no trailing newline
  });
  http::HttpResponse response = admin.Respond("GET", "/statusz");
  EXPECT_EQ(response.status_code(), 200);
  const std::string& body = response.body();
  EXPECT_EQ(body.rfind("leakdet statusz\nbuild: ", 0), 0u);
  EXPECT_NE(body.find(BuildInfoString()), std::string::npos);
  EXPECT_NE(body.find("\n[gateway]\nepoch_version: 7\n"), std::string::npos);
  EXPECT_NE(body.find("\n[store]\nwal_last_sequence: 42\n"),
            std::string::npos);
}

TEST(AdminServerRespondTest, VarzServesFlatDump) {
  Registry registry;
  registry.GetGauge("depth")->Set(9);
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  http::HttpResponse response = admin.Respond("GET", "/varz");
  EXPECT_EQ(response.status_code(), 200);
  EXPECT_NE(response.body().find("depth 9\n"), std::string::npos);
}

TEST(AdminServerRespondTest, UnknownPathIs404) {
  Registry registry;
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  EXPECT_EQ(admin.Respond("GET", "/nope").status_code(), 404);
}

TEST(AdminServerRespondTest, NonGetIs405) {
  Registry registry;
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  EXPECT_EQ(admin.Respond("POST", "/metrics").status_code(), 405);
}

TEST(AdminServerRespondTest, QueryStringDoesNotChangeRouting) {
  Registry registry;
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  EXPECT_EQ(admin.Respond("GET", "/healthz?verbose=1").status_code(), 200);
}

TEST(AdminServerRespondTest, RequestsCountedByBoundedPathLabel) {
  Registry registry;
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  (void)admin.Respond("GET", "/metrics");
  (void)admin.Respond("GET", "/scan1");
  (void)admin.Respond("GET", "/scan2");
  EXPECT_EQ(registry.GetCounter("admin.requests", {{"path", "metrics"}})
                ->Value(),
            1u);
  // Unknown paths collapse into one series: a scanner cannot mint
  // unbounded label values.
  EXPECT_EQ(
      registry.GetCounter("admin.requests", {{"path", "other"}})->Value(),
      2u);
}

TEST(AdminServerScriptedTest, ServesOverScriptedListener) {
  Registry registry;
  registry.GetCounter("app.requests")->Inc();
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  auto listener = std::make_unique<testing::ScriptedListener>();
  testing::ScriptedListener* listener_ptr = listener.get();
  ASSERT_TRUE(admin.Start(std::move(listener)).ok());

  std::unique_ptr<testing::ScriptedStream> client = listener_ptr->Connect();
  (void)client->SetReadTimeout(5000);
  StatusOr<http::HttpResponse> response =
      http::Get(client.get(), "/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code(), 200);
  EXPECT_EQ(response->body(), "ok\n");

  std::unique_ptr<testing::ScriptedStream> metrics_client =
      listener_ptr->Connect();
  (void)metrics_client->SetReadTimeout(5000);
  StatusOr<http::HttpResponse> metrics =
      http::Get(metrics_client.get(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->body().find("app_requests 1\n"), std::string::npos);

  admin.Stop();
  EXPECT_EQ(admin.requests_served(), 2u);
}

// The admin plane keeps the feed server's whole-request deadline: a client
// trickling a partial request cannot extend it and gets 408.
TEST(AdminServerScriptedTest, TricklingClientGets408AtTheDeadline) {
  using std::chrono::milliseconds;
  Registry registry;
  testing::VirtualClock clock;
  AdminServerOptions options;
  options.registry = &registry;
  options.request_deadline_ms = 1000;
  options.clock = &clock;
  AdminServer admin(options);
  auto listener = std::make_unique<testing::ScriptedListener>(&clock);
  testing::ScriptedListener* listener_ptr = listener.get();
  ASSERT_TRUE(admin.Start(std::move(listener)).ok());

  std::unique_ptr<testing::ScriptedStream> client = listener_ptr->Connect();
  // One byte every 300 virtual ms; the request line never completes.
  for (char c : std::string("GET /metr")) {
    ASSERT_TRUE(client->WriteAll(std::string(1, c)).ok());
    clock.Advance(milliseconds(300));
    std::this_thread::sleep_for(milliseconds(5));
  }
  // Keep virtual time moving until the server answers, wherever its request
  // window opened.
  std::atomic<bool> responded{false};
  std::thread advancer([&] {
    while (!responded.load()) {
      std::this_thread::sleep_for(milliseconds(10));
      clock.Advance(milliseconds(300));
    }
  });
  StatusOr<std::string> response = client->ReadUntilClose();
  responded.store(true);
  advancer.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->rfind("HTTP/1.1 408 Request Timeout\r\n", 0), 0u)
      << *response;
  admin.Stop();
  EXPECT_EQ(registry.GetCounter("admin.requests_timed_out")->Value(), 1u);
  EXPECT_EQ(admin.requests_served(), 0u);
}

// A client that never sends a byte is dropped at the deadline: no response
// bytes, one timed-out count.
TEST(AdminServerScriptedTest, SilentClientIsDroppedWithoutAResponse) {
  using std::chrono::milliseconds;
  Registry registry;
  testing::VirtualClock clock;
  AdminServerOptions options;
  options.registry = &registry;
  options.request_deadline_ms = 500;
  options.clock = &clock;
  AdminServer admin(options);
  auto listener = std::make_unique<testing::ScriptedListener>(&clock);
  testing::ScriptedListener* listener_ptr = listener.get();
  ASSERT_TRUE(admin.Start(std::move(listener)).ok());

  std::unique_ptr<testing::ScriptedStream> client = listener_ptr->Connect();
  std::atomic<bool> closed{false};
  std::thread advancer([&] {
    while (!closed.load()) {
      std::this_thread::sleep_for(milliseconds(10));
      clock.Advance(milliseconds(500));
    }
  });
  StatusOr<std::string> response = client->ReadUntilClose();
  closed.store(true);
  advancer.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(*response, "");
  EXPECT_EQ(client->stats().bytes_read, 0u);
  admin.Stop();
  EXPECT_EQ(registry.GetCounter("admin.requests_timed_out")->Value(), 1u);
  EXPECT_EQ(admin.requests_served(), 0u);
}

TEST(AdminServerTcpTest, LoopbackSmoke) {
  Registry registry;
  registry.GetCounter("smoke.requests")->Inc(3);
  AdminServerOptions options;
  options.registry = &registry;
  AdminServer admin(options);
  ASSERT_TRUE(admin.Start(/*port=*/0).ok());
  ASSERT_NE(admin.port(), 0);

  StatusOr<http::HttpResponse> health =
      http::Get(admin.port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code(), 200);
  EXPECT_EQ(health->body(), "ok\n");

  StatusOr<http::HttpResponse> metrics =
      http::Get(admin.port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status_code(), 200);
  EXPECT_NE(metrics->body().find("# TYPE smoke_requests counter\n"),
            std::string::npos);
  EXPECT_NE(metrics->body().find("smoke_requests 3\n"), std::string::npos);

  StatusOr<http::HttpResponse> statusz =
      http::Get(admin.port(), "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  EXPECT_EQ(statusz->status_code(), 200);

  admin.Stop();
  EXPECT_GE(admin.requests_served(), 3u);
}

}  // namespace
}  // namespace leakdet::obs
