#ifndef LEAKDET_NET_HOST_H_
#define LEAKDET_NET_HOST_H_

#include <string>
#include <string_view>

namespace leakdet::net {

/// Canonicalizes an FQDN: ASCII-lowercase, trailing dot removed, surrounding
/// whitespace trimmed. No IDN handling (the paper's dataset is plain ASCII).
std::string NormalizeHost(std::string_view host);

/// True iff `host` is a syntactically valid hostname: dot-separated labels of
/// [A-Za-z0-9-], 1..63 chars, not starting/ending with '-', total <= 253.
bool IsValidHostname(std::string_view host);

/// Registrable domain ("site": eTLD+1) using a built-in suffix list covering
/// the TLDs/second-level suffixes seen in the paper's dataset (jp
/// second-level domains such as co.jp/ne.jp/or.jp, plus generic TLDs).
/// "ads.g.doubleclick.net" -> "doubleclick.net";
/// "img.yahoo.co.jp"       -> "yahoo.co.jp".
/// A bare suffix or unrecognized single label is returned unchanged.
std::string RegistrableDomain(std::string_view host);

/// RegistrableDomain into a reused buffer: `out` is overwritten with the
/// normalized host, then everything before the registrable domain is
/// erased, so a buffer that has reached the longest host's size allocates
/// nothing.
void RegistrableDomainInto(std::string_view host, std::string* out);

}  // namespace leakdet::net

#endif  // LEAKDET_NET_HOST_H_
