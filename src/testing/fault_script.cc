#include "testing/fault_script.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/strutil.h"

namespace leakdet::testing {

namespace {

StatusOr<double> ParseProbability(std::string_view value) {
  std::string buf(value);
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size() || buf.empty()) {
    return Status::InvalidArgument("bad numeric value: " + buf);
  }
  if (d < 0.0 || d > 1.0) {
    return Status::InvalidArgument("probability out of [0,1]: " + buf);
  }
  return d;
}

void AppendKv(std::ostringstream* out, const char* key, double v) {
  *out << key << "=" << v << "\n";
}

}  // namespace

FaultPlan::ReadDecision FaultPlan::NextRead() {
  ReadDecision decision;
  if (!scripted_) return decision;
  if (profile_.eintr > 0 && rng_.Bernoulli(profile_.eintr)) {
    decision.eintrs = 1 + static_cast<uint32_t>(rng_.UniformInt(
                              profile_.max_eintr == 0 ? 1 : profile_.max_eintr));
  }
  if (profile_.reset > 0 && rng_.Bernoulli(profile_.reset)) {
    decision.reset = true;
    return decision;  // nothing after a reset matters
  }
  if (profile_.timeout > 0 && rng_.Bernoulli(profile_.timeout)) {
    decision.timeout = true;
  }
  if (profile_.delay > 0 && rng_.Bernoulli(profile_.delay)) {
    decision.delay_ns = profile_.delay_ns;
  }
  if (profile_.short_read > 0 && rng_.Bernoulli(profile_.short_read)) {
    decision.max_bytes = profile_.short_chunk == 0 ? 1 : profile_.short_chunk;
  }
  if (profile_.corrupt > 0 && rng_.Bernoulli(profile_.corrupt)) {
    decision.corrupt = true;
  }
  return decision;
}

FaultPlan::WriteDecision FaultPlan::NextWrite() {
  WriteDecision decision;
  if (!scripted_) return decision;
  if (profile_.eintr > 0 && rng_.Bernoulli(profile_.eintr)) {
    decision.eintrs = 1 + static_cast<uint32_t>(rng_.UniformInt(
                              profile_.max_eintr == 0 ? 1 : profile_.max_eintr));
  }
  if (profile_.reset > 0 && rng_.Bernoulli(profile_.reset)) {
    decision.reset = true;
    return decision;
  }
  if (profile_.short_write > 0 && rng_.Bernoulli(profile_.short_write)) {
    decision.chunk = profile_.short_chunk == 0 ? 1 : profile_.short_chunk;
  }
  if (profile_.corrupt > 0 && rng_.Bernoulli(profile_.corrupt)) {
    decision.corrupt = true;
  }
  return decision;
}

StatusOr<FaultScript> FaultScript::Parse(std::string_view text) {
  FaultScript script;
  script.name_ = "unnamed";
  size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("fault schedule line " +
                                     std::to_string(line_no) + ": missing '='");
    }
    std::string_view key = TrimWhitespace(line.substr(0, eq));
    std::string_view value = TrimWhitespace(line.substr(eq + 1));
    FaultProfile* p = &script.profile_;
    Status bad = Status::OK();
    auto prob = [&](double* field) {
      auto parsed = ParseProbability(value);
      if (!parsed.ok()) {
        bad = parsed.status();
        return;
      }
      *field = *parsed;
    };
    auto uint = [&](auto* field) {
      auto parsed = ParseUint64(value);
      if (!parsed.ok()) {
        bad = parsed.status();
        return;
      }
      *field = static_cast<std::remove_reference_t<decltype(*field)>>(*parsed);
    };
    if (key == "name") {
      script.name_ = std::string(value);
    } else if (key == "seed") {
      uint(&script.seed_);
    } else if (key == "short_read") {
      prob(&p->short_read);
    } else if (key == "short_write") {
      prob(&p->short_write);
    } else if (key == "eintr") {
      prob(&p->eintr);
    } else if (key == "timeout") {
      prob(&p->timeout);
    } else if (key == "reset") {
      prob(&p->reset);
    } else if (key == "delay") {
      prob(&p->delay);
    } else if (key == "corrupt") {
      prob(&p->corrupt);
    } else if (key == "short_chunk") {
      uint(&p->short_chunk);
    } else if (key == "max_eintr") {
      uint(&p->max_eintr);
    } else if (key == "delay_ns") {
      uint(&p->delay_ns);
    } else if (key == "trainer_kill_every") {
      uint(&p->trainer_kill_every);
    } else if (key == "burst_multiplier") {
      uint(&p->burst_multiplier);
    } else {
      return Status::InvalidArgument("fault schedule line " +
                                     std::to_string(line_no) +
                                     ": unknown key '" + std::string(key) +
                                     "'");
    }
    if (!bad.ok()) {
      return Status::InvalidArgument("fault schedule line " +
                                     std::to_string(line_no) + ": " +
                                     bad.message());
    }
  }
  return script;
}

std::string FaultScript::Serialize() const {
  std::ostringstream out;
  out << "# leakdet fault schedule (see docs/TESTING.md)\n";
  out << "name=" << name_ << "\n";
  out << "seed=" << seed_ << "\n";
  AppendKv(&out, "short_read", profile_.short_read);
  AppendKv(&out, "short_write", profile_.short_write);
  AppendKv(&out, "eintr", profile_.eintr);
  AppendKv(&out, "timeout", profile_.timeout);
  AppendKv(&out, "reset", profile_.reset);
  AppendKv(&out, "delay", profile_.delay);
  AppendKv(&out, "corrupt", profile_.corrupt);
  out << "short_chunk=" << profile_.short_chunk << "\n";
  out << "max_eintr=" << profile_.max_eintr << "\n";
  out << "delay_ns=" << profile_.delay_ns << "\n";
  out << "trainer_kill_every=" << profile_.trainer_kill_every << "\n";
  out << "burst_multiplier=" << profile_.burst_multiplier << "\n";
  return out.str();
}

StatusOr<FaultScript> FaultScript::Builtin(std::string_view name) {
  FaultProfile p;
  if (name == "none") {
    // all-zero profile: the faithful-transport baseline
  } else if (name == "short-io") {
    p.short_read = 0.85;
    p.short_write = 0.5;
    p.eintr = 0.6;
    p.delay = 0.2;
    p.short_chunk = 3;
    p.max_eintr = 3;
  } else if (name == "reset-storm") {
    p.reset = 0.2;
    p.corrupt = 0.2;
    p.timeout = 0.15;
    p.short_read = 0.3;
    p.short_chunk = 7;
  } else if (name == "swap-crash") {
    p.short_read = 0.3;
    p.eintr = 0.3;
    p.short_chunk = 11;
    p.trainer_kill_every = 2;
    p.burst_multiplier = 2;
  } else {
    return Status::NotFound("no builtin fault schedule named '" +
                            std::string(name) + "'");
  }
  return FaultScript(std::string(name), /*seed=*/1, p);
}

std::vector<std::string> FaultScript::BuiltinNames() {
  return {"none", "short-io", "reset-storm", "swap-crash"};
}

StatusOr<FaultScript> FaultScript::Load(const std::string& spec) {
  std::ifstream file(spec);
  if (file.good()) {
    std::ostringstream content;
    content << file.rdbuf();
    return Parse(content.str());
  }
  auto builtin = Builtin(spec);
  if (builtin.ok()) return builtin;
  return Status::NotFound("'" + spec +
                          "' is neither a readable schedule file nor a "
                          "builtin schedule name");
}

FaultPlan FaultScript::PlanForConnection(uint64_t conn_id) const {
  return FaultPlan(Mix64(seed_ ^ Mix64(conn_id)), profile_);
}

}  // namespace leakdet::testing
