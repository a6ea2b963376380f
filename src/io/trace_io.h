#ifndef LEAKDET_IO_TRACE_IO_H_
#define LEAKDET_IO_TRACE_IO_H_

#include <string>
#include <vector>

#include "sim/trafficgen.h"
#include "util/statusor.h"

namespace leakdet::io {

/// Serializes labeled packets as JSON Lines (one object per packet):
///   {"app":12,"host":"r.admob.com","ip":"74.125.3.7","port":80,
///    "rline":"GET ... HTTP/1.1","cookie":"","body":"","truth":[1]}
/// All byte values survive round-tripping (non-printable bytes are \u00XX
/// escaped).
std::string SerializeJsonl(const std::vector<sim::LabeledPacket>& packets);

/// The SerializeJsonl line of one unlabeled packet (empty truth list,
/// trailing newline included) appended to `*out` — snapshots encode their
/// pools line by line with it, straight from the server's vectors.
void AppendPacketJsonl(const core::HttpPacket& packet, std::string* out);

/// Parses the SerializeJsonl format. Fails with Corruption on any malformed
/// line; blank lines are skipped.
StatusOr<std::vector<sim::LabeledPacket>> ParseJsonl(std::string_view text);

/// One packet as a single JSON object (the JSONL line format without truth
/// labels or trailing newline). The durable store frames WAL records around
/// exactly this encoding.
std::string SerializePacketJson(const core::HttpPacket& packet);

/// SerializePacketJson appended to `*out` without the intermediate string —
/// the WAL writer encodes straight into its staged batch.
void AppendPacketJson(const core::HttpPacket& packet, std::string* out);

/// Parses the SerializePacketJson format (a truth field, if present, is
/// accepted and ignored).
StatusOr<core::HttpPacket> ParsePacketJson(std::string_view line);

/// Serializes the experimenter's device-token registry as "key value" lines
/// (android_id / imei / imsi / sim_serial / carrier; one block per device,
/// blank-line separated). The input to the payload check.
std::string SerializeDeviceTokens(const std::vector<core::DeviceTokens>& devices);

/// Parses the SerializeDeviceTokens format.
StatusOr<std::vector<core::DeviceTokens>> ParseDeviceTokens(
    std::string_view text);

/// File helpers. WriteFile is crash-atomic: the contents are written to a
/// temporary file in the same directory, fsynced, renamed over `path`, and
/// the parent directory is fsynced — a crash at any point leaves either the
/// old file or the complete new one, never a truncated hybrid.
Status WriteFile(const std::string& path, std::string_view contents);
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace leakdet::io

#endif  // LEAKDET_IO_TRACE_IO_H_
