#include "http/url.h"

#include "util/strutil.h"

namespace leakdet::http {

namespace {

bool IsUnreserved(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_' ||
         c == '~';
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string PercentEncode(std::string_view s) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (IsUnreserved(c)) {
      out += c;
    } else {
      out += '%';
      out += kHex[static_cast<unsigned char>(c) >> 4];
      out += kHex[static_cast<unsigned char>(c) & 0xF];
    }
  }
  return out;
}

StatusOr<std::string> PercentDecode(std::string_view s, PlusDecoding plus) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+' && plus == PlusDecoding::kSpace) {
      out += ' ';
    } else if (c == '%') {
      if (i + 2 >= s.size()) {
        return Status::InvalidArgument("truncated percent escape");
      }
      int hi = HexNibble(s[i + 1]);
      int lo = HexNibble(s[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("non-hex percent escape");
      }
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

StatusOr<std::vector<QueryParam>> ParseQuery(std::string_view query) {
  std::vector<QueryParam> params;
  if (query.empty()) return params;
  for (auto field : Split(query, '&')) {
    QueryParam p;
    size_t eq = field.find('=');
    std::string_view raw_key = field;
    std::string_view raw_value;
    if (eq != std::string_view::npos) {
      raw_key = field.substr(0, eq);
      raw_value = field.substr(eq + 1);
    }
    // Query fields are form-urlencoded: here (and only here) '+' is a space.
    LEAKDET_ASSIGN_OR_RETURN(p.key,
                             PercentDecode(raw_key, PlusDecoding::kSpace));
    LEAKDET_ASSIGN_OR_RETURN(p.value,
                             PercentDecode(raw_value, PlusDecoding::kSpace));
    params.push_back(std::move(p));
  }
  return params;
}

std::string BuildQuery(const std::vector<QueryParam>& params) {
  std::string out;
  for (const QueryParam& p : params) {
    if (!out.empty()) out += '&';
    out += PercentEncode(p.key);
    out += '=';
    out += PercentEncode(p.value);
  }
  return out;
}

Target SplitTarget(std::string_view target) {
  Target t;
  size_t q = target.find('?');
  if (q == std::string_view::npos) {
    t.path = std::string(target);
  } else {
    t.path = std::string(target.substr(0, q));
    t.raw_query = std::string(target.substr(q + 1));
  }
  if (t.path.empty()) t.path.push_back('/');
  return t;
}

}  // namespace leakdet::http
