#include "obs/admin_server.h"

#include "http/url.h"

namespace leakdet::obs {

namespace {

/// Bounded label value for admin.requests: known routes by name, everything
/// else collapses into "other" so a scanner probing random paths cannot mint
/// unbounded time series.
std::string PathLabel(const std::string& path) {
  if (path == "/metrics") return "metrics";
  if (path == "/healthz") return "healthz";
  if (path == "/statusz") return "statusz";
  if (path == "/varz") return "varz";
  return "other";
}

}  // namespace

std::string BuildInfoString() {
  std::string out;
#if defined(__clang__)
  out += "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  out += "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  out += "unknown-compiler";
#endif
  out += ", c++" + std::to_string(__cplusplus / 100 % 100);
  out += ", " + std::to_string(sizeof(void*) * 8) + "-bit";
#if defined(NDEBUG)
  out += ", release";
#else
  out += ", debug";
#endif
  return out;
}

AdminServer::AdminServer(AdminServerOptions options)
    : registry_(options.registry != nullptr ? options.registry
                                            : Registry::Default()),
      requests_by_path_(registry_, "admin.requests", "path"),
      requests_timed_out_(registry_->GetCounter("admin.requests_timed_out")),
      request_ns_(registry_->GetHistogram("admin.request_ns")),
      server_(
          [this](const http::HttpRequest& request) {
            return Respond(request.method(), request.target());
          },
          [this](http::Server::Outcome outcome, int /*status*/,
                 uint64_t wall_ns) {
            if (outcome == http::Server::Outcome::kMalformed) {
              requests_by_path_.With("bad_request")->Inc();
            } else if (outcome != http::Server::Outcome::kHandled) {
              requests_timed_out_->Inc();
            }
            request_ns_->Observe(wall_ns);
          },
          {options.request_deadline_ms, options.clock}) {}

void AdminServer::AddStatusSection(std::string title, StatusSection section) {
  std::lock_guard<std::mutex> lock(sections_mu_);
  // Re-registering a title replaces its renderer in place (keeping the
  // original position) rather than appending a duplicate — components that
  // change shape at runtime (a cluster node switching role on failover)
  // re-register their section instead of growing /statusz forever.
  for (auto& [existing_title, existing_section] : sections_) {
    if (existing_title == title) {
      existing_section = std::move(section);
      return;
    }
  }
  sections_.emplace_back(std::move(title), std::move(section));
}

std::string AdminServer::RenderStatusz() const {
  std::string out = "leakdet statusz\nbuild: " + BuildInfoString() + "\n";
  std::vector<std::pair<std::string, StatusSection>> sections;
  {
    std::lock_guard<std::mutex> lock(sections_mu_);
    sections = sections_;
  }
  for (const auto& [title, section] : sections) {
    out += "\n[" + title + "]\n";
    out += section();
    if (!out.empty() && out.back() != '\n') out += '\n';
  }
  return out;
}

http::HttpResponse AdminServer::Respond(const std::string& method,
                                        const std::string& target) const {
  http::HttpResponse response;
  // A query string never changes admin routing.
  const std::string path = http::SplitTarget(target).path;
  if (method != "GET") {
    response.set_status(405, "Method Not Allowed");
    response.set_body("admin endpoints are GET-only\n");
  } else if (path == "/metrics") {
    response.set_status(200, "OK");
    response.AddHeader("Content-Type",
                       "text/plain; version=0.0.4; charset=utf-8");
    response.set_body(registry_->PrometheusText());
  } else if (path == "/healthz") {
    response.set_status(200, "OK");
    response.AddHeader("Content-Type", "text/plain");
    response.set_body("ok\n");
  } else if (path == "/statusz") {
    response.set_status(200, "OK");
    response.AddHeader("Content-Type", "text/plain");
    response.set_body(RenderStatusz());
  } else if (path == "/varz") {
    response.set_status(200, "OK");
    response.AddHeader("Content-Type", "text/plain");
    response.set_body(registry_->TextDump());
  } else {
    response.set_status(404, "Not Found");
    response.set_body("unknown path\n");
  }
  requests_by_path_.With(PathLabel(path))->Inc();
  return response;
}

}  // namespace leakdet::obs
