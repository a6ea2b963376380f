#include "compress/ncd.h"

#include <algorithm>
#include <utility>

namespace leakdet::compress {

double NcdFromSizes(size_t cx, size_t cy, size_t cxy) {
  size_t mn = std::min(cx, cy);
  size_t mx = std::max(cx, cy);
  if (mx == 0) return 0.0;
  double v = (static_cast<double>(cxy) - static_cast<double>(mn)) /
             static_cast<double>(mx);
  return std::clamp(v, 0.0, 1.0);
}

size_t CanonicalPairCompressedSize(const Compressor& compressor,
                                   std::string_view x, std::string_view y) {
  if (y < x) std::swap(x, y);
  std::string xy;
  xy.reserve(x.size() + y.size());
  xy.append(x);
  xy.append(y);
  return compressor.CompressedSize(xy);
}

size_t NcdCalculator::CompressedSize(std::string_view x) {
  auto it = cache_.find(x);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  size_t size = compressor_->CompressedSize(x);
  cache_.emplace(std::string(x), size);
  return size;
}

double NcdCalculator::Ncd(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  size_t cx = CompressedSize(x);
  size_t cy = CompressedSize(y);
  size_t cxy = CanonicalPairCompressedSize(*compressor_, x, y);
  return NcdFromSizes(cx, cy, cxy);
}

}  // namespace leakdet::compress
