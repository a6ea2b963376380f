#include "core/packet.h"

namespace leakdet::core {

HttpPacket MakePacket(uint32_t app_id, const net::Endpoint& destination,
                      const http::HttpRequest& request) {
  HttpPacket p;
  p.app_id = app_id;
  p.destination = destination;
  p.request_line = request.RequestLine();
  p.cookie = std::string(request.cookie());
  p.body = request.body();
  return p;
}

std::string PacketContent(const HttpPacket& packet) {
  std::string content;
  AppendPacketContent(packet, &content);
  return content;
}

std::array<std::string_view, 5> PacketContentPieces(const HttpPacket& packet) {
  return {packet.request_line, "\n", packet.cookie, "\n", packet.body};
}

void AppendPacketContent(const HttpPacket& packet, std::string* out) {
  out->clear();
  out->reserve(packet.request_line.size() + packet.cookie.size() +
               packet.body.size() + 2);
  for (std::string_view piece : PacketContentPieces(packet)) *out += piece;
}

std::vector<std::string> PacketContents(
    const std::vector<HttpPacket>& packets) {
  std::vector<std::string> contents;
  contents.reserve(packets.size());
  for (const HttpPacket& p : packets) contents.push_back(PacketContent(p));
  return contents;
}

}  // namespace leakdet::core
