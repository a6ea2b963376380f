#include "io/trace_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/strutil.h"

namespace leakdet::io {

namespace {

// ---------------------------------------------------------------------------
// JSON primitives (only what the schema needs: objects with string, integer,
// and integer-array values).
// ---------------------------------------------------------------------------

bool NeedsJsonEscape(unsigned char c) {
  return c < 0x20 || c >= 0x7F || c == '"' || c == '\\';
}

void AppendJsonString(std::string_view s, std::string* out) {
  *out += '"';
  size_t i = 0;
  while (i < s.size()) {
    // Copy the run of bytes that need no escape in one append.
    size_t run = i;
    while (run < s.size() &&
           !NeedsJsonEscape(static_cast<unsigned char>(s[run]))) {
      ++run;
    }
    out->append(s.data() + i, run - i);
    if (run == s.size()) break;
    i = run + 1;
    const unsigned char c = static_cast<unsigned char>(s[run]);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  *out += '"';
}

class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::Corruption(std::string("expected '") + c + "' in JSON");
    }
    ++pos_;
    return Status::OK();
  }

  bool TryConsume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<std::string> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::Corruption("expected JSON string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::Corruption("truncated \\u escape");
          }
          auto hex = HexDecode(text_.substr(pos_, 4));
          if (!hex.ok()) return Status::Corruption("bad \\u escape");
          pos_ += 4;
          uint16_t cp = static_cast<uint16_t>(
              (static_cast<uint8_t>((*hex)[0]) << 8) |
              static_cast<uint8_t>((*hex)[1]));
          if (cp > 0xFF) {
            return Status::Corruption("non-latin1 \\u escape unsupported");
          }
          out += static_cast<char>(cp);
          break;
        }
        default:
          return Status::Corruption("unknown JSON escape");
      }
    }
    return Status::Corruption("unterminated JSON string");
  }

  StatusOr<uint64_t> ParseUint() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start) return Status::Corruption("expected JSON integer");
    return leakdet::ParseUint64(text_.substr(start, pos_ - start));
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<sim::LabeledPacket> ParseJsonLine(std::string_view line) {
  JsonScanner scanner(line);
  LEAKDET_RETURN_IF_ERROR(scanner.Expect('{'));
  sim::LabeledPacket lp;
  std::string ip_text;
  bool first = true;
  while (true) {
    if (scanner.TryConsume('}')) break;
    if (!first) {
      // The comma was consumed below; nothing to do.
    }
    first = false;
    LEAKDET_ASSIGN_OR_RETURN(std::string key, scanner.ParseString());
    LEAKDET_RETURN_IF_ERROR(scanner.Expect(':'));
    if (key == "app") {
      LEAKDET_ASSIGN_OR_RETURN(uint64_t v, scanner.ParseUint());
      lp.packet.app_id = static_cast<uint32_t>(v);
    } else if (key == "host") {
      LEAKDET_ASSIGN_OR_RETURN(lp.packet.destination.host,
                               scanner.ParseString());
    } else if (key == "ip") {
      LEAKDET_ASSIGN_OR_RETURN(ip_text, scanner.ParseString());
    } else if (key == "port") {
      LEAKDET_ASSIGN_OR_RETURN(uint64_t v, scanner.ParseUint());
      if (v > 65535) return Status::Corruption("port out of range");
      lp.packet.destination.port = static_cast<uint16_t>(v);
    } else if (key == "rline") {
      LEAKDET_ASSIGN_OR_RETURN(lp.packet.request_line, scanner.ParseString());
    } else if (key == "cookie") {
      LEAKDET_ASSIGN_OR_RETURN(lp.packet.cookie, scanner.ParseString());
    } else if (key == "body") {
      LEAKDET_ASSIGN_OR_RETURN(lp.packet.body, scanner.ParseString());
    } else if (key == "truth") {
      LEAKDET_RETURN_IF_ERROR(scanner.Expect('['));
      if (!scanner.TryConsume(']')) {
        while (true) {
          LEAKDET_ASSIGN_OR_RETURN(uint64_t v, scanner.ParseUint());
          if (v >= core::kNumSensitiveTypes) {
            return Status::Corruption("bad sensitive type id");
          }
          lp.truth.push_back(static_cast<core::SensitiveType>(v));
          if (scanner.TryConsume(']')) break;
          LEAKDET_RETURN_IF_ERROR(scanner.Expect(','));
        }
      }
    } else {
      return Status::Corruption("unknown key: " + key);
    }
    if (scanner.TryConsume('}')) break;
    LEAKDET_RETURN_IF_ERROR(scanner.Expect(','));
  }
  if (!scanner.AtEnd()) return Status::Corruption("trailing JSON content");
  LEAKDET_ASSIGN_OR_RETURN(lp.packet.destination.ip,
                           net::Ipv4Address::Parse(ip_text));
  return lp;
}

/// The shared packet fields of a JSON object, without the closing brace so
/// callers can extend the object (the JSONL writer adds the truth array).
void AppendPacketJsonFields(const core::HttpPacket& packet, std::string* out) {
  *out += "{\"app\":";
  *out += std::to_string(packet.app_id);
  *out += ",\"host\":";
  AppendJsonString(packet.destination.host, out);
  *out += ",\"ip\":";
  AppendJsonString(packet.destination.ip.ToString(), out);
  *out += ",\"port\":";
  *out += std::to_string(packet.destination.port);
  *out += ",\"rline\":";
  AppendJsonString(packet.request_line, out);
  *out += ",\"cookie\":";
  AppendJsonString(packet.cookie, out);
  *out += ",\"body\":";
  AppendJsonString(packet.body, out);
}

}  // namespace

std::string SerializeJsonl(const std::vector<sim::LabeledPacket>& packets) {
  std::string out;
  for (const sim::LabeledPacket& lp : packets) {
    AppendPacketJsonFields(lp.packet, &out);
    out += ",\"truth\":[";
    for (size_t i = 0; i < lp.truth.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(static_cast<int>(lp.truth[i]));
    }
    out += "]}\n";
  }
  return out;
}

void AppendPacketJsonl(const core::HttpPacket& packet, std::string* out) {
  AppendPacketJsonFields(packet, out);
  *out += ",\"truth\":[]}\n";
}

void AppendPacketJson(const core::HttpPacket& packet, std::string* out) {
  AppendPacketJsonFields(packet, out);
  *out += '}';
}

std::string SerializePacketJson(const core::HttpPacket& packet) {
  std::string out;
  AppendPacketJson(packet, &out);
  return out;
}

StatusOr<core::HttpPacket> ParsePacketJson(std::string_view line) {
  LEAKDET_ASSIGN_OR_RETURN(sim::LabeledPacket lp,
                           ParseJsonLine(TrimWhitespace(line)));
  return std::move(lp.packet);
}

StatusOr<std::vector<sim::LabeledPacket>> ParseJsonl(std::string_view text) {
  std::vector<sim::LabeledPacket> packets;
  for (std::string_view line : Split(text, '\n')) {
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty()) continue;
    LEAKDET_ASSIGN_OR_RETURN(sim::LabeledPacket lp, ParseJsonLine(trimmed));
    packets.push_back(std::move(lp));
  }
  return packets;
}

std::string SerializeDeviceTokens(
    const std::vector<core::DeviceTokens>& devices) {
  std::string out;
  for (const core::DeviceTokens& d : devices) {
    if (!out.empty()) out += "\n";
    out += "android_id " + d.android_id + "\n";
    out += "imei " + d.imei + "\n";
    out += "imsi " + d.imsi + "\n";
    out += "sim_serial " + d.sim_serial + "\n";
    out += "carrier " + d.carrier + "\n";
  }
  return out;
}

StatusOr<std::vector<core::DeviceTokens>> ParseDeviceTokens(
    std::string_view text) {
  std::vector<core::DeviceTokens> devices;
  core::DeviceTokens current;
  bool any_field = false;
  auto flush = [&devices, &current, &any_field] {
    if (any_field) devices.push_back(current);
    current = core::DeviceTokens();
    any_field = false;
  };
  for (std::string_view line : Split(text, '\n')) {
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty()) {
      flush();
      continue;
    }
    size_t sp = trimmed.find(' ');
    if (sp == std::string_view::npos) {
      return Status::Corruption("device token line needs 'key value'");
    }
    std::string_view key = trimmed.substr(0, sp);
    std::string value(TrimWhitespace(trimmed.substr(sp + 1)));
    if (key == "android_id") {
      current.android_id = std::move(value);
    } else if (key == "imei") {
      current.imei = std::move(value);
    } else if (key == "imsi") {
      current.imsi = std::move(value);
    } else if (key == "sim_serial") {
      current.sim_serial = std::move(value);
    } else if (key == "carrier") {
      current.carrier = std::move(value);
    } else {
      return Status::Corruption("unknown device token key: " +
                                std::string(key));
    }
    any_field = true;
  }
  flush();
  return devices;
}

Status WriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open for write: " + tmp + ": " +
                           std::strerror(errno));
  }
  auto fail = [&](const std::string& op) {
    Status status =
        Status::IOError(op + " failed: " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  const char* p = contents.data();
  size_t left = contents.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write");
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("fsync");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("close failed: " + tmp + ": " +
                           std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = Status::IOError("rename failed: " + path + ": " +
                                    std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  }
  // Persist the directory entry so the rename itself survives a crash.
  size_t slash = path.find_last_of('/');
  std::string parent = slash == std::string::npos ? "." : path.substr(0, slash);
  if (parent.empty()) parent = "/";
  int dfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in && !in.eof()) return Status::IOError("read failed: " + path);
  return ss.str();
}

}  // namespace leakdet::io
