#ifndef LEAKDET_CORE_PACKET_H_
#define LEAKDET_CORE_PACKET_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "net/endpoint.h"

namespace leakdet::core {

/// One observed application HTTP packet: the unit of the paper's dataset.
/// Combines the destination (`p = {ip, port, host}`, §IV-B) with the three
/// content components (`p = {rline, cookie, body}`, §IV-C), plus provenance.
struct HttpPacket {
  uint32_t app_id = 0;       ///< which application emitted it
  net::Endpoint destination;
  std::string request_line;  ///< "GET /ad?x=1 HTTP/1.1"
  std::string cookie;        ///< Cookie header value ("" if none)
  std::string body;          ///< message body ("" for bodyless GETs)

  friend bool operator==(const HttpPacket& a, const HttpPacket& b) {
    return a.app_id == b.app_id && a.destination == b.destination &&
           a.request_line == b.request_line && a.cookie == b.cookie &&
           a.body == b.body;
  }
};

/// Builds an HttpPacket from a full request message plus its destination.
HttpPacket MakePacket(uint32_t app_id, const net::Endpoint& destination,
                      const http::HttpRequest& request);

/// The canonical content string for signature generation and matching:
/// request-line, cookie, and body joined by '\n'. Signatures are extracted
/// from and matched against exactly this string, so generation and detection
/// agree byte-for-byte.
std::string PacketContent(const HttpPacket& packet);

/// PacketContent into a reused buffer: clears `out`, then appends the
/// content, so a buffer that has reached the largest packet's size
/// allocates nothing.
void AppendPacketContent(const HttpPacket& packet, std::string* out);

/// The pieces PacketContent joins, in order, as views into `packet`. A
/// scanner fed them one after another sees exactly PacketContent's bytes,
/// without the copy.
std::array<std::string_view, 5> PacketContentPieces(const HttpPacket& packet);

/// Batch form of PacketContent.
std::vector<std::string> PacketContents(const std::vector<HttpPacket>& packets);

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_PACKET_H_
