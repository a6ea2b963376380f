#ifndef LEAKDET_CORE_PAYLOAD_CHECK_H_
#define LEAKDET_CORE_PAYLOAD_CHECK_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/packet.h"
#include "match/aho_corasick.h"

namespace leakdet::core {

/// The nine categories of sensitive information the paper tracks (Table III):
/// raw UDIDs, their MD5/SHA1 hex digests, and the carrier name.
enum class SensitiveType : int {
  kAndroidId = 0,
  kAndroidIdMd5,
  kAndroidIdSha1,
  kCarrier,
  kImei,
  kImeiMd5,
  kImeiSha1,
  kImsi,
  kSimSerial,
};

inline constexpr int kNumSensitiveTypes = 9;

/// Stable display name matching Table III row labels
/// ("ANDROID_ID", "IMEI MD5", ...).
std::string_view SensitiveTypeName(SensitiveType type);

/// The identifying values of one device, as known to the experimenter. The
/// paper ran all 1,188 apps on a single instrumented handset whose
/// identifiers were known, which is what makes ground-truth labelling
/// possible (§V-A).
struct DeviceTokens {
  std::string android_id;  ///< 16 lowercase-hex chars
  std::string imei;        ///< 15 digits
  std::string imsi;        ///< 15 digits
  std::string sim_serial;  ///< 19-20 digits (ICCID)
  std::string carrier;     ///< e.g. "NTT DOCOMO"
};

/// The payload check of §IV-A: splits traffic into the suspicious group
/// (packets containing sensitive information) and the normal group. Detects
/// each raw identifier, its MD5/SHA1 hex digests (both hex cases), and the
/// carrier name (raw and percent-encoded) anywhere in the packet content via
/// one Aho–Corasick scan.
class PayloadCheck {
 public:
  /// `devices` are all handsets whose traffic may appear in the trace.
  /// `known_xor_keys` optionally lists reverse-engineered SDK obfuscation
  /// keys (§VI): for each key, the XOR-hex ciphertexts of the device UDIDs
  /// become additional needles labelled with the raw identifier's category.
  explicit PayloadCheck(const std::vector<DeviceTokens>& devices,
                        const std::vector<std::string>& known_xor_keys = {});

  /// Distinct sensitive-information types present in `packet` (sorted by
  /// enum value; each type reported at most once).
  std::vector<SensitiveType> Check(const HttpPacket& packet) const;

  /// True iff Check(packet) is non-empty (cheaper: stops at first hit).
  bool IsSensitive(const HttpPacket& packet) const;

  /// Splits `packets` into (suspicious, normal) preserving order — the
  /// paper's two groups.
  void Split(const std::vector<HttpPacket>& packets,
             std::vector<HttpPacket>* suspicious,
             std::vector<HttpPacket>* normal) const;

 private:
  std::vector<SensitiveType> needle_type_;  ///< by needle (pattern) id
  std::unique_ptr<match::AhoCorasick> automaton_;
};

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_PAYLOAD_CHECK_H_
