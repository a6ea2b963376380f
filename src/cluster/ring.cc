#include "cluster/ring.h"

#include "util/rng.h"

namespace leakdet::cluster {

namespace {

/// FNV-1a over the node id, then avalanched: the string hash alone clusters
/// for ids differing in one trailing character ("node-1" vs "node-2").
uint64_t HashNodeId(const std::string& node_id) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : node_id) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

}  // namespace

HashRing::HashRing(size_t vnodes) : vnodes_(vnodes == 0 ? 1 : vnodes) {}

void HashRing::AddNode(const std::string& node_id) {
  if (!nodes_.insert(node_id).second) return;
  const uint64_t base = HashNodeId(node_id);
  for (size_t i = 0; i < vnodes_; ++i) {
    uint64_t point = Mix64(base ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    // A collision between two nodes' points is resolved by first-comer; with
    // 64-bit points it is effectively unreachable, and leaving the existing
    // owner keeps placement independent of insertion order for all other ids.
    ring_.emplace(point, node_id);
  }
}

void HashRing::RemoveNode(const std::string& node_id) {
  if (nodes_.erase(node_id) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == node_id) {
      it = ring_.erase(it);
    } else {
      ++it;
    }
  }
}

const std::string& HashRing::NodeFor(uint64_t device_id) const {
  // First vnode point at or clockwise of the device's point; wrap to the
  // ring's first point past the top.
  auto it = ring_.lower_bound(Mix64(device_id));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::vector<std::string> HashRing::nodes() const {
  return std::vector<std::string>(nodes_.begin(), nodes_.end());
}

}  // namespace leakdet::cluster
