#include "sim/device.h"

#include "sim/identifiers.h"

namespace leakdet::sim {

core::DeviceTokens DeviceProfile::ToTokens() const {
  core::DeviceTokens t;
  t.android_id = android_id;
  t.imei = imei;
  t.imsi = imsi;
  t.sim_serial = sim_serial;
  t.carrier = carrier;
  return t;
}

const std::vector<std::string>& CarrierCatalog() {
  static const std::vector<std::string> kCarriers = {
      "NTT DOCOMO",
      "SoftBank",
      "KDDI",
      "EMOBILE",
      "WILLCOM",
  };
  return kCarriers;
}

DeviceProfile MakeDevice(Rng* rng, const std::string& carrier) {
  DeviceProfile d;
  d.android_id = GenerateAndroidId(rng);
  d.imei = GenerateImei(rng);
  d.imsi = GenerateImsi(rng);
  d.sim_serial = GenerateSimSerial(rng);
  d.carrier = carrier.empty() ? CarrierCatalog()[0] : carrier;
  return d;
}

uint64_t DeviceStreamSeed(uint64_t fleet_seed, uint64_t index) {
  // SplitMix64 over the (seed, index) pair: adjacent indices land on
  // statistically independent streams, and the mix is a pure function so
  // the derivation is stable across runs and platforms.
  return Mix64(fleet_seed + 0x9E3779B97F4A7C15ULL * index);
}

DeviceProfile MakeDeviceAt(uint64_t fleet_seed, uint64_t index) {
  Rng rng(DeviceStreamSeed(fleet_seed, index));
  const std::vector<std::string>& carriers = CarrierCatalog();
  // Carrier market share is lopsided toward the big three; weight the head.
  static const double kShare[] = {0.45, 0.25, 0.22, 0.05, 0.03};
  double u = rng.UniformDouble();
  size_t pick = carriers.size() - 1;
  double acc = 0.0;
  for (size_t i = 0; i < carriers.size(); ++i) {
    acc += kShare[i];
    if (u < acc) {
      pick = i;
      break;
    }
  }
  return MakeDevice(&rng, carriers[pick]);
}

}  // namespace leakdet::sim
