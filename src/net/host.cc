#include "net/host.h"

#include <array>

#include "util/strutil.h"

namespace leakdet::net {

namespace {

/// NormalizeHost into a reused buffer.
void NormalizeHostInto(std::string_view host, std::string* out) {
  std::string_view trimmed = TrimWhitespace(host);
  if (!trimmed.empty() && trimmed.back() == '.') {
    trimmed.remove_suffix(1);
  }
  out->assign(trimmed);
  for (char& c : *out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

}  // namespace

std::string NormalizeHost(std::string_view host) {
  std::string norm;
  NormalizeHostInto(host, &norm);
  return norm;
}

bool IsValidHostname(std::string_view host) {
  if (host.empty() || host.size() > 253) return false;
  for (auto label : Split(host, '.')) {
    if (label.empty() || label.size() > 63) return false;
    if (label.front() == '-' || label.back() == '-') return false;
    for (char c : label) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-';
      if (!ok) return false;
    }
  }
  return true;
}

namespace {

// Multi-label public suffixes relevant to the paper's (Japanese-market)
// dataset. Checked before single-label TLDs.
constexpr std::array<std::string_view, 10> kTwoLabelSuffixes = {
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "ad.jp", "ed.jp", "gr.jp", "lg.jp", "com.cn",
};

bool EndsWithSuffix(std::string_view host, std::string_view suffix) {
  if (host.size() < suffix.size()) return false;
  if (host.size() == suffix.size()) return host == suffix;
  return host.ends_with(suffix) &&
         host[host.size() - suffix.size() - 1] == '.';
}

}  // namespace

std::string RegistrableDomain(std::string_view host) {
  std::string domain;
  RegistrableDomainInto(host, &domain);
  return domain;
}

void RegistrableDomainInto(std::string_view host, std::string* out) {
  NormalizeHostInto(host, out);
  size_t suffix_labels = 1;  // default: the last label is the public suffix
  for (auto two : kTwoLabelSuffixes) {
    if (EndsWithSuffix(*out, two)) {
      suffix_labels = 2;
      break;
    }
  }
  // Keep the suffix plus one registrable label: erase through the dot in
  // front of them. Labels may be empty ("a..b.com"), so counting dots from
  // the end is exactly splitting on '.' and joining the tail. A host with
  // no more labels than that is kept whole.
  size_t cut = out->size();
  for (size_t dots = 0; dots < suffix_labels + 1; ++dots) {
    if (cut == 0) return;
    cut = out->rfind('.', cut - 1);
    if (cut == std::string::npos) return;
  }
  out->erase(0, cut + 1);
}

}  // namespace leakdet::net
