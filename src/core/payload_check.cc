#include "core/payload_check.h"

#include <algorithm>

#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "crypto/xor_obfuscate.h"
#include "http/url.h"
#include "util/strutil.h"

namespace leakdet::core {

std::string_view SensitiveTypeName(SensitiveType type) {
  switch (type) {
    case SensitiveType::kAndroidId:
      return "ANDROID_ID";
    case SensitiveType::kAndroidIdMd5:
      return "ANDROID_ID MD5";
    case SensitiveType::kAndroidIdSha1:
      return "ANDROID_ID SHA1";
    case SensitiveType::kCarrier:
      return "CARRIER";
    case SensitiveType::kImei:
      return "IMEI";
    case SensitiveType::kImeiMd5:
      return "IMEI MD5";
    case SensitiveType::kImeiSha1:
      return "IMEI SHA1";
    case SensitiveType::kImsi:
      return "IMSI";
    case SensitiveType::kSimSerial:
      return "SIM Serial";
  }
  return "UNKNOWN";
}

PayloadCheck::PayloadCheck(const std::vector<DeviceTokens>& devices,
                           const std::vector<std::string>& known_xor_keys) {
  std::vector<std::string> needles;
  auto add = [this, &needles](std::string needle, SensitiveType type) {
    if (needle.empty()) return;
    needles.push_back(std::move(needle));
    needle_type_.push_back(type);
  };
  for (const DeviceTokens& d : devices) {
    // Ciphertexts under known obfuscation keys (invertible encodings count
    // as the raw identifier category).
    for (const std::string& key : known_xor_keys) {
      if (key.empty()) continue;
      if (!d.imei.empty()) {
        add(crypto::XorObfuscateHex(d.imei, key), SensitiveType::kImei);
      }
      if (!d.imsi.empty()) {
        add(crypto::XorObfuscateHex(d.imsi, key), SensitiveType::kImsi);
      }
      if (!d.sim_serial.empty()) {
        add(crypto::XorObfuscateHex(d.sim_serial, key),
            SensitiveType::kSimSerial);
      }
      if (!d.android_id.empty()) {
        add(crypto::XorObfuscateHex(AsciiToLower(d.android_id), key),
            SensitiveType::kAndroidId);
      }
    }
    // Raw identifiers. Hex identifiers are matched in both cases; digit
    // identifiers have a single representation.
    add(AsciiToLower(d.android_id), SensitiveType::kAndroidId);
    add(AsciiToUpper(d.android_id), SensitiveType::kAndroidId);
    add(d.imei, SensitiveType::kImei);
    add(d.imsi, SensitiveType::kImsi);
    add(d.sim_serial, SensitiveType::kSimSerial);
    // Hash digests of the raw identifier strings, both hex cases. Ad modules
    // in the wild hash the canonical (lowercase for hex IDs) form.
    if (!d.android_id.empty()) {
      std::string canon = AsciiToLower(d.android_id);
      add(crypto::Md5Hex(canon), SensitiveType::kAndroidIdMd5);
      add(crypto::Md5HexUpper(canon), SensitiveType::kAndroidIdMd5);
      add(crypto::Sha1Hex(canon), SensitiveType::kAndroidIdSha1);
      add(crypto::Sha1HexUpper(canon), SensitiveType::kAndroidIdSha1);
    }
    if (!d.imei.empty()) {
      add(crypto::Md5Hex(d.imei), SensitiveType::kImeiMd5);
      add(crypto::Md5HexUpper(d.imei), SensitiveType::kImeiMd5);
      add(crypto::Sha1Hex(d.imei), SensitiveType::kImeiSha1);
      add(crypto::Sha1HexUpper(d.imei), SensitiveType::kImeiSha1);
    }
    // Carrier name: raw bytes and the percent-encoded form that appears in
    // query strings ("NTT%20DOCOMO").
    if (!d.carrier.empty()) {
      add(d.carrier, SensitiveType::kCarrier);
      std::string encoded = http::PercentEncode(d.carrier);
      if (encoded != d.carrier) add(encoded, SensitiveType::kCarrier);
    }
  }
  automaton_ = std::make_unique<match::AhoCorasick>(needles);
}

std::vector<SensitiveType> PayloadCheck::Check(const HttpPacket& packet) const {
  bool found[kNumSensitiveTypes] = {};
  int32_t state = 0;
  for (std::string_view piece : PacketContentPieces(packet)) {
    state = automaton_->Scan(piece, state, [&](uint32_t needle) {
      found[static_cast<int>(needle_type_[needle])] = true;
    });
  }
  std::vector<SensitiveType> types;
  for (int t = 0; t < kNumSensitiveTypes; ++t) {
    if (found[t]) types.push_back(static_cast<SensitiveType>(t));
  }
  return types;
}

bool PayloadCheck::IsSensitive(const HttpPacket& packet) const {
  int32_t state = 0;
  for (std::string_view piece : PacketContentPieces(packet)) {
    if (automaton_->AnyMatch(piece, &state)) return true;
  }
  return false;
}

void PayloadCheck::Split(const std::vector<HttpPacket>& packets,
                         std::vector<HttpPacket>* suspicious,
                         std::vector<HttpPacket>* normal) const {
  for (const HttpPacket& p : packets) {
    if (IsSensitive(p)) {
      suspicious->push_back(p);
    } else {
      normal->push_back(p);
    }
  }
}

}  // namespace leakdet::core
