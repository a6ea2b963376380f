#include "core/distance.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "net/ipv4.h"
#include "text/edit_distance.h"

namespace leakdet::core {

double PacketDistance::CombineDestination(const DistanceOptions& options,
                                          double ip_sim, double port_sim,
                                          double host_dist) {
  double d_ip, d_port;
  if (options.literal_similarity_orientation) {
    // The formulas exactly as printed in §IV-B (similarities).
    d_ip = ip_sim;
    d_port = port_sim;
  } else {
    d_ip = 1.0 - ip_sim;
    d_port = 1.0 - port_sim;
  }
  return d_ip + d_port + host_dist;
}

double PacketDistance::CombineContent(double d_rline, double d_cookie,
                                      double d_body) {
  return d_rline + d_cookie + d_body;
}

double PacketDistance::DestinationDistance(const HttpPacket& x,
                                           const HttpPacket& y) const {
  const net::Endpoint& ex = x.destination;
  const net::Endpoint& ey = y.destination;

  double ip_sim =
      static_cast<double>(net::CommonPrefixBits(ex.ip, ey.ip)) / 32.0;
  if (options_.org_registry != nullptr) {
    auto org_x = options_.org_registry->Lookup(ex.ip);
    auto org_y = options_.org_registry->Lookup(ey.ip);
    if (org_x && org_y) {
      ip_sim = (*org_x == *org_y) ? 1.0 : 0.0;
    }
  }
  double port_sim = (ex.port == ey.port) ? 1.0 : 0.0;
  double host_dist = text::NormalizedEditDistance(ex.host, ey.host);
  return CombineDestination(options_, ip_sim, port_sim, host_dist);
}

double PacketDistance::ContentDistance(const HttpPacket& x,
                                       const HttpPacket& y) const {
  double d_rline = ncd_->Ncd(x.request_line, y.request_line);
  double d_cookie = ncd_->Ncd(x.cookie, y.cookie);
  double d_body = ncd_->Ncd(x.body, y.body);
  return CombineContent(d_rline, d_cookie, d_body);
}

double PacketDistance::Distance(const HttpPacket& x,
                                const HttpPacket& y) const {
  double d = 0;
  if (options_.use_destination) d += DestinationDistance(x, y);
  if (options_.use_content) d += ContentDistance(x, y);
  return d;
}

double PacketDistance::MaxDistance() const {
  double m = 0;
  if (options_.use_destination) m += 3.0;
  if (options_.use_content) m += 3.0;
  return m;
}

DistanceMatrix::DistanceMatrix(size_t n)
    : n_(n), data_(n < 2 ? 0 : n * (n - 1) / 2, 0.0) {}

size_t DistanceMatrix::index(size_t i, size_t j) const {
  assert(i != j && i < n_ && j < n_);
  if (i > j) std::swap(i, j);
  // Condensed index of (i, j), i < j: elements before row i plus offset.
  return i * n_ - i * (i + 1) / 2 + (j - i - 1);
}

double DistanceMatrix::at(size_t i, size_t j) const {
  if (i == j) return 0.0;
  return data_[index(i, j)];
}

void DistanceMatrix::set(size_t i, size_t j, double value) {
  data_[index(i, j)] = value;
}

DistanceMatrix ComputeDistanceMatrix(const std::vector<HttpPacket>& packets,
                                     const PacketDistance& metric) {
  DistanceMatrix m(packets.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    for (size_t j = i + 1; j < packets.size(); ++j) {
      m.set(i, j, metric.Distance(packets[i], packets[j]));
    }
  }
  return m;
}

namespace {

/// Runs `worker` on `num_threads` threads (inline when <= 1).
template <typename Fn>
void RunWorkers(unsigned num_threads, const Fn& worker) {
  if (num_threads <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
}

/// The distinct values of one packet field, sorted, with each packet's index
/// into them. The views point into the packets' own field storage, so
/// interning copies nothing.
struct SortedTable {
  std::vector<std::string_view> strings;
  std::vector<uint32_t> counts;  ///< occurrences of each string in the sample
  std::vector<uint32_t> ids;     ///< per packet

  template <typename Field>
  SortedTable(const std::vector<HttpPacket>& packets, const Field& field)
      : ids(packets.size()) {
    std::vector<uint32_t> order(packets.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      return field(packets[x]) < field(packets[y]);
    });
    for (uint32_t i : order) {
      if (strings.empty() || strings.back() != field(packets[i])) {
        strings.push_back(field(packets[i]));
        counts.push_back(0);
      }
      ++counts.back();
      ids[i] = static_cast<uint32_t>(strings.size() - 1);
    }
  }
};

/// Every compressed size the packet loop needs for one content field:
/// C(s_a) per distinct string, and C(s_a s_b) for a < b in a condensed
/// triangle (plus a == b when s_a occurs twice or more). The strings are
/// sorted, so for a < b the canonical concatenation (smaller string first,
/// as in CanonicalPairCompressedSize) is always s_a s_b, and all of row a
/// resumes from one stream on s_a.
class FieldSizes {
 public:
  FieldSizes(const std::vector<HttpPacket>& packets,
             std::string HttpPacket::*field)
      : table_(packets,
               [field](const HttpPacket& p) -> std::string_view {
                 return p.*field;
               }),
        sizes_(num_strings()),
        pair_sizes_(Cell(num_strings(), num_strings())) {}

  size_t num_strings() const { return table_.strings.size(); }
  uint32_t id(size_t packet) const { return table_.ids[packet]; }

  /// Sizes row `a`. Rows touch disjoint cells, so any number of threads
  /// may fill distinct rows at once.
  void FillRow(const compress::Compressor& compressor, uint32_t a) {
    const std::vector<std::string_view>& strings = table_.strings;
    std::string_view sa = strings[a];
    std::unique_ptr<compress::Compressor::Stream> stream =
        compressor.NewStream(sa);
    auto pair_size = [&](std::string_view sb) {
      return static_cast<uint32_t>(
          stream != nullptr
              ? stream->SizeWithSuffix(sb)
              : compress::CanonicalPairCompressedSize(compressor, sa, sb));
    };
    sizes_[a] = static_cast<uint32_t>(stream != nullptr
                                          ? stream->SizeWithSuffix({})
                                          : compressor.CompressedSize(sa));
    if (SizesDiagonal(a)) pair_sizes_[Cell(a, a)] = pair_size(sa);
    for (uint32_t b = a + 1; b < strings.size(); ++b) {
      pair_sizes_[Cell(a, b)] = pair_size(strings[b]);
    }
  }

  /// NCD of the strings with ids `a` and `b`, bit-identical to
  /// NcdCalculator::Ncd on the strings themselves.
  double Ncd(uint32_t a, uint32_t b) const {
    if (a > b) std::swap(a, b);
    if (a == b && table_.strings[a].empty()) return 0.0;
    return compress::NcdFromSizes(sizes_[a], sizes_[b],
                                  pair_sizes_[Cell(a, b)]);
  }

  /// Adds this field's work to `stats`: pair compressions FillRow does, and
  /// the packet loop's other Ncd calls (both-empty pairs are no probe).
  void AddStats(DistanceMatrixStats* stats) const {
    const uint64_t f = num_strings();
    uint64_t computed = f * (f - 1) / 2;
    for (uint32_t a = 0; a < f; ++a) computed += SizesDiagonal(a) ? 1 : 0;
    const uint64_t n = table_.ids.size();
    const uint64_t empties =
        f > 0 && table_.strings[0].empty() ? table_.counts[0] : 0;
    stats->singleton_compressions += f;
    stats->ncd_pairs_computed += computed;
    stats->ncd_pair_hits +=
        n * (n - 1) / 2 - empties * (empties - 1) / 2 - computed;
  }

 private:
  /// Condensed index of (a, b), a <= b: the cells of rows 0..a-1, then b-a.
  size_t Cell(size_t a, size_t b) const {
    return a * (2 * num_strings() + 1 - a) / 2 + (b - a);
  }

  /// A packet pair probes (a, a) only when s_a occurs twice; both-empty
  /// probes never reach the table.
  bool SizesDiagonal(uint32_t a) const {
    return table_.counts[a] >= 2 && !table_.strings[a].empty();
  }

  SortedTable table_;
  std::vector<uint32_t> sizes_;
  std::vector<uint32_t> pair_sizes_;
};

}  // namespace

DistanceMatrix ComputeDistanceMatrixParallel(
    const std::vector<HttpPacket>& packets,
    const compress::Compressor* compressor, const DistanceOptions& options,
    unsigned num_threads, DistanceMatrixStats* stats) {
  const auto build_start = std::chrono::steady_clock::now();
  const size_t n = packets.size();
  DistanceMatrix m(n);
  if (stats != nullptr) {
    *stats = DistanceMatrixStats{};
    stats->packets = n;
    stats->pairs = n < 2 ? 0 : n * (n - 1) / 2;
  }
  if (n < 2) return m;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min<unsigned>(num_threads, static_cast<unsigned>(n));

  // Per-field size tables: ad-module templates make duplicates ubiquitous,
  // so each field's distinct universe is much smaller than n.
  FieldSizes rline(packets, &HttpPacket::request_line);
  FieldSizes cookie(packets, &HttpPacket::cookie);
  FieldSizes body(packets, &HttpPacket::body);
  FieldSizes* fields[] = {&rline, &cookie, &body};
  SortedTable hosts(packets, [](const HttpPacket& p) -> std::string_view {
    return p.destination.host;
  });

  // Resolve the ownership oracle once per packet instead of once per pair.
  std::vector<std::optional<std::string_view>> orgs;
  if (options.use_destination && options.org_registry != nullptr) {
    orgs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      orgs[i] = options.org_registry->Lookup(packets[i].destination.ip);
    }
  }

  // Row pass: every content-field row, then every host row (the condensed
  // host matrix memoizes NormalizedEditDistance over distinct host pairs),
  // claimed one at a time off an atomic cursor. Each row owns its cells and
  // its stream, so the pass takes no lock.
  const size_t num_hosts = hosts.strings.size();
  DistanceMatrix host_dist(num_hosts);
  std::vector<std::pair<FieldSizes*, uint32_t>> content_rows;
  if (options.use_content) {
    for (FieldSizes* field : fields) {
      for (uint32_t a = 0; a < field->num_strings(); ++a) {
        content_rows.emplace_back(field, a);
      }
    }
  }
  const size_t host_rows =
      options.use_destination && num_hosts >= 2 ? num_hosts - 1 : 0;
  std::atomic<size_t> row_cursor{0};
  RunWorkers(num_threads, [&] {
    for (;;) {
      size_t row = row_cursor.fetch_add(1, std::memory_order_relaxed);
      if (row < content_rows.size()) {
        content_rows[row].first->FillRow(*compressor, content_rows[row].second);
        continue;
      }
      size_t i = row - content_rows.size();
      if (i >= host_rows) return;
      for (size_t j = i + 1; j < num_hosts; ++j) {
        host_dist.set(i, j,
                      text::NormalizedEditDistance(hosts.strings[i],
                                                   hosts.strings[j]));
      }
    }
  });

  // Packet-pair loop: lock-free table lookups. Rows are claimed in chunks
  // off an atomic cursor; writes are disjoint cells of the condensed matrix.
  std::atomic<size_t> pair_cursor{0};
  const size_t row_chunk =
      std::max<size_t>(1, n / (static_cast<size_t>(num_threads) * 16));
  RunWorkers(num_threads, [&] {
    for (;;) {
      size_t begin =
          pair_cursor.fetch_add(row_chunk, std::memory_order_relaxed);
      if (begin + 1 >= n) return;
      size_t end = std::min(n - 1, begin + row_chunk);
      for (size_t i = begin; i < end; ++i) {
        const net::Endpoint& ex = packets[i].destination;
        for (size_t j = i + 1; j < n; ++j) {
          double d = 0;
          if (options.use_destination) {
            const net::Endpoint& ey = packets[j].destination;
            double ip_sim =
                static_cast<double>(net::CommonPrefixBits(ex.ip, ey.ip)) /
                32.0;
            if (options.org_registry != nullptr) {
              if (orgs[i] && orgs[j]) {
                ip_sim = (*orgs[i] == *orgs[j]) ? 1.0 : 0.0;
              }
            }
            double port_sim = (ex.port == ey.port) ? 1.0 : 0.0;
            d += PacketDistance::CombineDestination(
                options, ip_sim, port_sim,
                host_dist.at(hosts.ids[i], hosts.ids[j]));
          }
          if (options.use_content) {
            double d_rline = rline.Ncd(rline.id(i), rline.id(j));
            double d_cookie = cookie.Ncd(cookie.id(i), cookie.id(j));
            double d_body = body.Ncd(body.id(i), body.id(j));
            d += PacketDistance::CombineContent(d_rline, d_cookie, d_body);
          }
          m.set(i, j, d);
        }
      }
    }
  });

  if (stats != nullptr) {
    for (const FieldSizes* field : fields) {
      stats->distinct_content_strings += field->num_strings();
      if (options.use_content) field->AddStats(stats);
    }
    stats->distinct_hosts = num_hosts;
    stats->host_pairs_computed =
        static_cast<uint64_t>(host_rows) * (host_rows + 1) / 2;
    stats->distance_build_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - build_start)
            .count());
  }
  return m;
}

}  // namespace leakdet::core
