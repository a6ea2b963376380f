#ifndef LEAKDET_CORE_DISTANCE_H_
#define LEAKDET_CORE_DISTANCE_H_

#include <vector>

#include "compress/ncd.h"
#include "core/packet.h"
#include "net/org_registry.h"

namespace leakdet::core {

/// Knobs for the composite HTTP packet distance (§IV-B/C/D).
struct DistanceOptions {
  /// Optional WHOIS-style ownership oracle (§VI): when set, the IP distance
  /// is *verified* — same registered organization forces d_ip = 0, different
  /// registered organizations force d_ip = 1 (correcting the "close IP,
  /// different owner" error the paper warns about), and unregistered
  /// addresses fall back to the prefix distance. Not owned.
  const net::OrgRegistry* org_registry = nullptr;

  /// Include d_dst = d_ip + d_port + d_host. Ablation: destination-only /
  /// content-only clustering.
  bool use_destination = true;
  /// Include d_header = d_rline + d_cookie + d_body.
  bool use_content = true;

  /// The paper writes d_ip = lmatch/32 and d_port = match(..) — which are
  /// *similarities* (1 = identical destination). Read literally they would
  /// push identical destinations apart, contradicting §IV-A ("results sent
  /// to the same server to be clustered together") and the reported
  /// accuracy. By default we use the distance orientation:
  ///   d_ip = 1 - lmatch/32,  d_port = 1 - match.
  /// Setting this true uses the literal published formulas instead; the
  /// ablation bench quantifies the difference.
  bool literal_similarity_orientation = false;
};

/// Computes the paper's packet distance
///   d_pkt(px, py) = d_dst(px, py) + d_header(px, py).
/// Content distances use NCD through a caching calculator, so building a
/// full distance matrix compresses each packet's fields only once.
class PacketDistance {
 public:
  /// `ncd` must outlive this object. Not owned.
  PacketDistance(compress::NcdCalculator* ncd, DistanceOptions options = {})
      : ncd_(ncd), options_(options) {}

  /// d_dst = d_ip + d_port + d_host (§IV-B); each component in [0, 1].
  double DestinationDistance(const HttpPacket& x, const HttpPacket& y) const;

  /// d_header = ncd(rline) + ncd(cookie) + ncd(body) (§IV-C).
  double ContentDistance(const HttpPacket& x, const HttpPacket& y) const;

  /// Destination sum d_ip + d_port + d_host (orientation flag applied).
  /// Shared by DestinationDistance and the optimized matrix builder so both
  /// perform bit-identical floating-point arithmetic.
  static double CombineDestination(const DistanceOptions& options,
                                   double ip_sim, double port_sim,
                                   double host_dist);

  /// Content sum d_rline + d_cookie + d_body; same sharing rationale.
  static double CombineContent(double d_rline, double d_cookie, double d_body);

  /// d_pkt = d_dst + d_header (§IV-D), honoring the enable flags.
  double Distance(const HttpPacket& x, const HttpPacket& y) const;

  /// Largest possible Distance() under the current options (for
  /// normalization in reports): one per active component, each in [0, 1].
  double MaxDistance() const;

  const DistanceOptions& options() const { return options_; }

 private:
  compress::NcdCalculator* ncd_;
  DistanceOptions options_;
};

/// Symmetric pairwise-distance matrix in condensed form (upper triangle,
/// row-major). Diagonal is implicitly zero.
class DistanceMatrix {
 public:
  /// Builds an n-point matrix initialized to zero.
  explicit DistanceMatrix(size_t n);

  double at(size_t i, size_t j) const;
  void set(size_t i, size_t j, double value);

  size_t size() const { return n_; }

 private:
  size_t index(size_t i, size_t j) const;

  size_t n_;
  std::vector<double> data_;
};

/// Computes all pairwise distances of `packets` under `metric`. Every pair
/// is evaluated from scratch (only the per-calculator C(x) memo helps); this
/// is the uncached reference the optimized builder is verified against.
DistanceMatrix ComputeDistanceMatrix(const std::vector<HttpPacket>& packets,
                                     const PacketDistance& metric);

/// Observability for one optimized matrix build (bench + gateway metrics).
struct DistanceMatrixStats {
  size_t packets = 0;
  size_t pairs = 0;  ///< packet pairs evaluated (n*(n-1)/2)
  /// Distinct request lines + distinct cookies + distinct bodies (each
  /// field interned on its own). The gap between 3*packets and this is the
  /// duplication the size tables exploit.
  size_t distinct_content_strings = 0;
  size_t distinct_hosts = 0;
  /// One singleton compression per distinct content string (the C(x) pass).
  size_t singleton_compressions = 0;
  /// Content-pair NCD probes of the packet loop (both-empty pairs aside)
  /// that needed no compression, and the pair compressions actually done
  /// (one per distinct pair of a field's strings). A function of the sample
  /// alone, whatever the thread count.
  uint64_t ncd_pair_hits = 0;
  uint64_t ncd_pairs_computed = 0;
  /// Distinct host pairs whose edit distance was actually computed.
  uint64_t host_pairs_computed = 0;
  /// Retrain stage wall times (steady-clock ns), filled where each stage
  /// runs: the matrix builder stamps distance_build_ns, RunClustering stamps
  /// cluster_ns (dendrogram build + cut), RunPipeline stamps siggen_ns. The
  /// trainer exports these as trainer.stage_*_ns histograms, so a slow
  /// retrain is attributable to a stage without re-timing anything.
  uint64_t distance_build_ns = 0;
  uint64_t cluster_ns = 0;
  uint64_t siggen_ns = 0;

  double ncd_hit_rate() const {
    uint64_t total = ncd_pair_hits + ncd_pairs_computed;
    return total == 0 ? 0.0
                      : static_cast<double>(ncd_pair_hits) /
                            static_cast<double>(total);
  }
};

/// Optimized matrix builder — the training hot path. Each content field's
/// strings are interned and sorted (ad-module templates make duplicates
/// ubiquitous). Workers then claim rows: row a of a field opens one codec
/// stream on its a-th string and sizes it, alone and followed by every
/// later string; sorting makes that the canonical concatenation order. The
/// sizes land in one condensed uint32 triangle per field, and
/// NormalizedEditDistance is memoized over distinct host pairs the same
/// way. The packet-pair loop is then lock-free lookups through
/// NcdFromSizes. The distance is a pure symmetric function, so the result
/// is bit-identical to the serial uncached path — asserted by tests.
/// `num_threads` 0 = hardware concurrency; `stats`, when non-null, receives
/// the work counters.
DistanceMatrix ComputeDistanceMatrixParallel(
    const std::vector<HttpPacket>& packets, const compress::Compressor* compressor,
    const DistanceOptions& options, unsigned num_threads = 0,
    DistanceMatrixStats* stats = nullptr);

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_DISTANCE_H_
