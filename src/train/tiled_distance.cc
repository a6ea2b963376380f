#include "train/tiled_distance.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>

#include "compress/ncd.h"
#include "core/fingerprint.h"
#include "net/ipv4.h"
#include "text/edit_distance.h"
#include "util/crc32c.h"

namespace leakdet::train {

namespace {

constexpr std::string_view kTileMagic = "LDTL";
constexpr uint32_t kTileVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out->push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
  }
}

uint32_t GetU32(std::string_view data, size_t off) {
  uint32_t v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data[off + b]))
         << (8 * b);
  }
  return v;
}

uint64_t GetU64(std::string_view data, size_t off) {
  uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[off + b]))
         << (8 * b);
  }
  return v;
}

// Header: magic, version, sample digest, r0, r1, n. Payload: one raw IEEE
// double per pair (i in [r0, r1), j in (i, n)), row-major. Footer: masked
// CRC-32C over header + payload.
constexpr size_t kTileHeaderSize = 4 + 4 + 8 + 4 + 4 + 4;

size_t TilePairs(size_t r0, size_t r1, size_t n) {
  size_t pairs = 0;
  for (size_t i = r0; i < r1; ++i) pairs += n - i - 1;
  return pairs;
}

std::string TileName(size_t r0, size_t r1) {
  return "tile-" + std::to_string(r0) + "-" + std::to_string(r1) + ".spill";
}

/// Dense-id interner over views into the sample's own field storage.
class Interner {
 public:
  uint32_t Intern(std::string_view s) {
    auto [it, inserted] =
        map_.try_emplace(s, static_cast<uint32_t>(strings_.size()));
    if (inserted) strings_.push_back(s);
    return it->second;
  }
  const std::vector<std::string_view>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string_view, uint32_t> map_;
  std::vector<std::string_view> strings_;
};

struct PacketIds {
  uint32_t rline;
  uint32_t cookie;
  uint32_t body;
  uint32_t host;
};

/// NCD evaluation over the interned universe backed by the persistent size
/// cache. All floating-point math goes through compress::NcdFromSizes, so a
/// cache hit and a fresh compression yield bit-identical distances.
class CachedNcd {
 public:
  CachedNcd(const compress::Compressor* compressor,
            const std::vector<std::string_view>& strings, NcdCacheFile* cache,
            TiledDistanceStats* stats)
      : compressor_(compressor),
        strings_(strings),
        cache_(cache),
        stats_(stats),
        hashes_(strings.size()),
        sizes_(strings.size()),
        streams_(strings.size()) {
    for (size_t i = 0; i < strings_.size(); ++i) {
      hashes_[i] = core::Hash64(strings_[i]);
      sizes_[i] = SingletonSize(i);
    }
  }

  double Ncd(uint32_t x, uint32_t y) {
    if (x > y) std::swap(x, y);
    std::string_view sx = strings_[x];
    std::string_view sy = strings_[y];
    if (sx.empty() && sy.empty()) return 0.0;
    return compress::NcdFromSizes(sizes_[x], sizes_[y], PairSize(x, y));
  }

 private:
  size_t SingletonSize(size_t id) {
    uint32_t cached = 0;
    if (cache_ != nullptr && cache_->LookupSingleton(hashes_[id], &cached)) {
      ++stats_->cache_singleton_hits;
      return cached;
    }
    ++stats_->cache_singleton_misses;
    // One absorption yields both C(x) and the stream pair compressions
    // resume from (as in the core matrix builder's row pass).
    streams_[id] = compressor_->NewStream(strings_[id]);
    size_t size = streams_[id] != nullptr
                      ? streams_[id]->SizeWithSuffix({})
                      : compressor_->CompressedSize(strings_[id]);
    if (cache_ != nullptr) {
      cache_->PutSingleton(hashes_[id], static_cast<uint32_t>(size));
    }
    return size;
  }

  size_t PairSize(uint32_t x, uint32_t y) {
    uint32_t cached = 0;
    if (cache_ != nullptr &&
        cache_->LookupPair(hashes_[x], hashes_[y], &cached)) {
      ++stats_->cache_pair_hits;
      return cached;
    }
    ++stats_->cache_pair_misses;
    std::string_view sx = strings_[x];
    std::string_view sy = strings_[y];
    uint32_t prefix = sx <= sy ? x : y;
    uint32_t suffix = prefix == x ? y : x;
    if (streams_[prefix] == nullptr) {
      streams_[prefix] = compressor_->NewStream(strings_[prefix]);
    }
    size_t size =
        streams_[prefix] != nullptr
            ? streams_[prefix]->SizeWithSuffix(strings_[suffix])
            : compress::CanonicalPairCompressedSize(*compressor_, sx, sy);
    if (cache_ != nullptr) {
      cache_->PutPair(hashes_[x], hashes_[y], static_cast<uint32_t>(size));
    }
    return size;
  }

  const compress::Compressor* compressor_;
  const std::vector<std::string_view>& strings_;
  NcdCacheFile* cache_;
  TiledDistanceStats* stats_;
  std::vector<uint64_t> hashes_;
  std::vector<size_t> sizes_;
  std::vector<std::unique_ptr<compress::Compressor::Stream>> streams_;
};

/// Parses and validates one spill tile; returns its doubles on success.
std::optional<std::vector<double>> ParseTile(std::string_view data,
                                             uint64_t digest, size_t r0,
                                             size_t r1, size_t n) {
  size_t pairs = TilePairs(r0, r1, n);
  size_t expected = kTileHeaderSize + pairs * sizeof(double) + 4;
  if (data.size() != expected) return std::nullopt;
  if (data.substr(0, 4) != kTileMagic || GetU32(data, 4) != kTileVersion ||
      GetU64(data, 8) != digest || GetU32(data, 16) != r0 ||
      GetU32(data, 20) != r1 || GetU32(data, 24) != n) {
    return std::nullopt;
  }
  uint32_t want = Crc32cUnmask(GetU32(data, data.size() - 4));
  if (Crc32c(data.substr(0, data.size() - 4)) != want) return std::nullopt;
  std::vector<double> values(pairs);
  std::memcpy(values.data(), data.data() + kTileHeaderSize,
              pairs * sizeof(double));
  return values;
}

Status WriteTileAtomically(store::Dir* dir, const std::string& spill_dir,
                           const std::string& name, std::string_view payload) {
  std::string tmp = spill_dir + "/." + name + ".tmp";
  std::string final_path = spill_dir + "/" + name;
  if (dir->Exists(tmp)) {
    LEAKDET_RETURN_IF_ERROR(dir->Remove(tmp));
  }
  LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<store::File> file,
                           dir->OpenAppend(tmp));
  LEAKDET_RETURN_IF_ERROR(file->Append(payload));
  LEAKDET_RETURN_IF_ERROR(file->Sync());
  LEAKDET_RETURN_IF_ERROR(file->Close());
  LEAKDET_RETURN_IF_ERROR(dir->Rename(tmp, final_path));
  return dir->SyncDir(spill_dir);
}

}  // namespace

uint64_t SampleDigest(const std::vector<core::HttpPacket>& sample) {
  uint64_t digest = core::Hash64("sample-digest-v1");
  for (const core::HttpPacket& p : sample) {
    digest = core::Hash64Extend(digest, core::CanonicalPacketKey(p));
  }
  return digest;
}

StatusOr<core::DistanceMatrix> ComputeDistanceMatrixTiled(
    const std::vector<core::HttpPacket>& sample,
    const TiledDistanceOptions& options, TiledDistanceStats* stats) {
  TiledDistanceStats local_stats;
  TiledDistanceStats* st = stats != nullptr ? stats : &local_stats;
  *st = TiledDistanceStats{};
  if (options.dir == nullptr || options.compressor == nullptr) {
    return Status::InvalidArgument("tiled distance needs a dir and compressor");
  }
  if (options.tile_rows == 0) {
    return Status::InvalidArgument("tile_rows must be positive");
  }
  const size_t n = sample.size();
  core::DistanceMatrix m(n);
  if (n < 2) return m;

  LEAKDET_RETURN_IF_ERROR(options.dir->CreateDir(options.spill_dir));
  const uint64_t digest = SampleDigest(sample);

  // Intern the per-field strings (same duplication argument as the parallel
  // builder: SDK templates repeat across the sample).
  Interner content;
  Interner hosts;
  std::vector<PacketIds> ids(n);
  for (size_t i = 0; i < n; ++i) {
    const core::HttpPacket& p = sample[i];
    ids[i] = PacketIds{content.Intern(p.request_line),
                       content.Intern(p.cookie), content.Intern(p.body),
                       hosts.Intern(p.destination.host)};
  }

  // Resolve the ownership oracle once per packet.
  std::vector<std::optional<std::string_view>> orgs;
  if (options.distance.use_destination &&
      options.distance.org_registry != nullptr) {
    orgs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      orgs[i] = options.distance.org_registry->Lookup(sample[i].destination.ip);
    }
  }

  // Memoized host distances (distinct hosts <= packets; cheap).
  const std::vector<std::string_view>& host_strings = hosts.strings();
  core::DistanceMatrix host_dist(host_strings.size());
  if (options.distance.use_destination) {
    for (size_t i = 0; i + 1 < host_strings.size(); ++i) {
      for (size_t j = i + 1; j < host_strings.size(); ++j) {
        host_dist.set(i, j, text::NormalizedEditDistance(host_strings[i],
                                                         host_strings[j]));
      }
    }
  }

  std::optional<CachedNcd> ncd;
  if (options.distance.use_content) {
    ncd.emplace(options.compressor, content.strings(), options.cache, st);
  }

  for (size_t r0 = 0; r0 + 1 < n; r0 += options.tile_rows) {
    size_t r1 = std::min(n - 1, r0 + options.tile_rows);
    ++st->tiles_total;
    const std::string name = TileName(r0, r1);
    const std::string path = options.spill_dir + "/" + name;

    // Reuse a finished tile from a previous (crashed) run over this sample.
    if (options.dir->Exists(path)) {
      StatusOr<std::string> data = options.dir->Read(path);
      if (data.ok()) {
        if (std::optional<std::vector<double>> values =
                ParseTile(*data, digest, r0, r1, n)) {
          size_t v = 0;
          for (size_t i = r0; i < r1; ++i) {
            for (size_t j = i + 1; j < n; ++j) m.set(i, j, (*values)[v++]);
          }
          ++st->tiles_reused;
          st->spill_bytes_read += data->size();
          continue;
        }
      }
      // Foreign, damaged, or unreadable: recompute and replace.
      (void)options.dir->Remove(path);
    }

    // Compute the band. The per-pair arithmetic mirrors
    // ComputeDistanceMatrixParallel exactly (destination added first, then
    // content, via the same Combine helpers), so values are bit-identical.
    std::vector<double> values;
    values.reserve(TilePairs(r0, r1, n));
    for (size_t i = r0; i < r1; ++i) {
      const PacketIds& xi = ids[i];
      const net::Endpoint& ex = sample[i].destination;
      for (size_t j = i + 1; j < n; ++j) {
        const PacketIds& xj = ids[j];
        double d = 0;
        if (options.distance.use_destination) {
          const net::Endpoint& ey = sample[j].destination;
          double ip_sim =
              static_cast<double>(net::CommonPrefixBits(ex.ip, ey.ip)) / 32.0;
          if (options.distance.org_registry != nullptr && orgs[i] && orgs[j]) {
            ip_sim = (*orgs[i] == *orgs[j]) ? 1.0 : 0.0;
          }
          double port_sim = (ex.port == ey.port) ? 1.0 : 0.0;
          d += core::PacketDistance::CombineDestination(
              options.distance, ip_sim, port_sim,
              host_dist.at(xi.host, xj.host));
        }
        if (options.distance.use_content) {
          double d_rline = ncd->Ncd(xi.rline, xj.rline);
          double d_cookie = ncd->Ncd(xi.cookie, xj.cookie);
          double d_body = ncd->Ncd(xi.body, xj.body);
          d += core::PacketDistance::CombineContent(options.distance, d_rline,
                                                    d_cookie, d_body);
        }
        m.set(i, j, d);
        values.push_back(d);
      }
    }

    // Persist the cache entries backing this tile *before* the tile itself:
    // a tile must never look finished while the sizes that reproduce it are
    // still volatile.
    if (options.cache != nullptr) {
      LEAKDET_RETURN_IF_ERROR(options.cache->Flush());
    }
    std::string payload;
    payload.reserve(kTileHeaderSize + values.size() * sizeof(double) + 4);
    payload.append(kTileMagic);
    PutU32(&payload, kTileVersion);
    PutU64(&payload, digest);
    PutU32(&payload, static_cast<uint32_t>(r0));
    PutU32(&payload, static_cast<uint32_t>(r1));
    PutU32(&payload, static_cast<uint32_t>(n));
    payload.append(reinterpret_cast<const char*>(values.data()),
                   values.size() * sizeof(double));
    PutU32(&payload, Crc32cMask(Crc32c(payload)));
    LEAKDET_RETURN_IF_ERROR(
        WriteTileAtomically(options.dir, options.spill_dir, name, payload));
    ++st->tiles_computed;
    st->spill_bytes_written += payload.size();
  }
  return m;
}

Status RemoveSpillTiles(store::Dir* dir, const std::string& spill_dir) {
  if (!dir->Exists(spill_dir)) return Status::OK();
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           dir->List(spill_dir));
  for (const std::string& name : names) {
    if (name.rfind("tile-", 0) == 0 || name.rfind(".tile-", 0) == 0) {
      LEAKDET_RETURN_IF_ERROR(dir->Remove(spill_dir + "/" + name));
    }
  }
  return dir->SyncDir(spill_dir);
}

}  // namespace leakdet::train
