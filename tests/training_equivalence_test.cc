// Property tests for the optimized training path: the NN-chain clustering
// must reproduce the naive greedy group-average dendrogram, and the
// interned/cached parallel distance matrix must be bit-identical to the
// serial uncached reference under every option variant.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/distance.h"
#include "core/hcluster.h"
#include "net/org_registry.h"
#include "sim/trafficgen.h"
#include "util/rng.h"

namespace leakdet::core {
namespace {

DistanceMatrix RandomMatrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      m.set(i, j, rng.UniformDouble() * 2.0);
    }
  }
  return m;
}

/// A matrix full of exact ties: every distance is a dyadic rational k/8,
/// k in 1..8, so equal merge candidates are common and comparisons are
/// exact in floating point.
DistanceMatrix DyadicTieMatrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      m.set(i, j, static_cast<double>(1 + rng.UniformInt(8)) / 8.0);
    }
  }
  return m;
}

/// Rows i and i+1 identical (distance 0 between them) — the duplicate-heavy
/// regime real ad-SDK traffic produces, all ties at height zero.
DistanceMatrix DuplicateRowMatrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  DistanceMatrix m(n);
  for (size_t i = 0; i < n; i += 2) {
    for (size_t j = i + 2; j < n; ++j) {
      double d = 0.5 + rng.UniformDouble();
      m.set(i, j, d);
      if (i + 1 < n) m.set(i + 1, j, d);
    }
  }
  return m;
}

std::vector<double> CutHeights(const Dendrogram& dend) {
  // Cut between distinct merge heights (midpoints), far from any ulp-level
  // discrepancy between the two implementations.
  std::vector<double> heights;
  for (const MergeStep& m : dend.merges()) heights.push_back(m.height);
  std::sort(heights.begin(), heights.end());
  std::vector<double> cuts{-1.0};
  for (size_t k = 0; k + 1 < heights.size(); ++k) {
    if (heights[k + 1] - heights[k] > 1e-6) {
      cuts.push_back((heights[k] + heights[k + 1]) / 2.0);
    }
  }
  if (!heights.empty()) cuts.push_back(heights.back() + 1.0);
  return cuts;
}

void ExpectEquivalentDendrograms(const DistanceMatrix& m) {
  Dendrogram fast = ClusterGroupAverage(m);
  Dendrogram naive = ClusterGroupAverageNaive(m);
  ASSERT_EQ(fast.merges().size(), naive.merges().size());
  // Merge heights agree up to floating-point reassociation: both use the
  // same Lance–Williams expression, but NN-chain discovers merges in a
  // different order, so intermediate averages can associate differently.
  for (size_t k = 0; k < fast.merges().size(); ++k) {
    EXPECT_NEAR(fast.merges()[k].height, naive.merges()[k].height, 1e-9)
        << "merge " << k;
    EXPECT_EQ(fast.merges()[k].size, naive.merges()[k].size) << "merge " << k;
  }
  // Flat partitions must be *identical* at every cut between merge levels.
  for (double h : CutHeights(naive)) {
    EXPECT_EQ(fast.CutAtHeight(h), naive.CutAtHeight(h)) << "cut at " << h;
  }
  for (size_t k = 1; k <= m.size(); k += std::max<size_t>(1, m.size() / 7)) {
    EXPECT_EQ(fast.CutIntoK(k), naive.CutIntoK(k)) << "k=" << k;
  }
}

/// The tie-tolerant comparison: equal sorted height multisets and equal flat
/// partitions at every cut between distinct height levels. Within a group
/// of equal-height merges the two implementations may legitimately record
/// the merges in different orders, so per-merge fields are not compared.
void ExpectEquivalentHeightsAndCuts(const DistanceMatrix& m) {
  Dendrogram fast = ClusterGroupAverage(m);
  Dendrogram naive = ClusterGroupAverageNaive(m);
  ASSERT_EQ(fast.merges().size(), naive.merges().size());
  std::vector<double> hf, hn;
  for (const MergeStep& s : fast.merges()) hf.push_back(s.height);
  for (const MergeStep& s : naive.merges()) hn.push_back(s.height);
  std::sort(hf.begin(), hf.end());
  std::sort(hn.begin(), hn.end());
  for (size_t k = 0; k < hf.size(); ++k) {
    EXPECT_NEAR(hf[k], hn[k], 1e-9) << "sorted height " << k;
  }
  for (double h : CutHeights(naive)) {
    EXPECT_EQ(fast.CutAtHeight(h), naive.CutAtHeight(h)) << "cut at " << h;
  }
}

/// Exact group-average distance between two leaf sets from the raw matrix.
double ExactGroupAverage(const DistanceMatrix& m,
                         const std::vector<int32_t>& a,
                         const std::vector<int32_t>& b) {
  double sum = 0.0;
  for (int32_t x : a) {
    for (int32_t y : b) {
      sum += m.at(static_cast<size_t>(x), static_cast<size_t>(y));
    }
  }
  return sum / (static_cast<double>(a.size()) * static_cast<double>(b.size()));
}

/// Validity oracle for adversarial tie matrices, where NN-chain and the
/// naive scan may break ties differently and produce structurally different
/// (but equally valid) group-average dendrograms: every merge height must
/// equal the true group-average distance between the merged leaf sets, and
/// heights must be monotone.
void ExpectValidGroupAverageDendrogram(const DistanceMatrix& m,
                                       const Dendrogram& dend) {
  ASSERT_EQ(dend.merges().size(), m.size() - 1);
  double prev = -std::numeric_limits<double>::infinity();
  for (const MergeStep& s : dend.merges()) {
    std::vector<int32_t> left = dend.LeavesUnder(s.left);
    std::vector<int32_t> right = dend.LeavesUnder(s.right);
    EXPECT_EQ(left.size() + right.size(), static_cast<size_t>(s.size));
    EXPECT_NEAR(s.height, ExactGroupAverage(m, left, right), 1e-9);
    EXPECT_GE(s.height, prev - 1e-12);  // reducible => no inversions
    prev = s.height;
  }
}

TEST(NnChainEquivalenceTest, ContinuousRandomMatrices) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    size_t n = 2 + seed * 3;  // 5..38 points
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectEquivalentDendrograms(RandomMatrix(n, seed));
  }
}

TEST(NnChainEquivalenceTest, DuplicateRowTieMatrices) {
  // Exact duplicates (distance-0 ties) are the tie pattern real training
  // samples produce; the two implementations must agree on heights and on
  // every between-level partition.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    size_t n = 6 + seed * 4;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectEquivalentHeightsAndCuts(DuplicateRowMatrix(n, seed));
  }
}

TEST(NnChainEquivalenceTest, DyadicTieMatricesProduceValidDendrograms) {
  // Saturated-tie matrices (every distance one of eight dyadic values) admit
  // many valid group-average dendrograms; NN-chain and the naive scan are
  // free to pick different ones. Both outputs must be exactly verifiable
  // against the definition.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    size_t n = 4 + seed * 2;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DistanceMatrix m = DyadicTieMatrix(n, seed);
    ExpectValidGroupAverageDendrogram(m, ClusterGroupAverage(m));
    ExpectValidGroupAverageDendrogram(m, ClusterGroupAverageNaive(m));
  }
}

TEST(NnChainEquivalenceTest, TinyInputs) {
  EXPECT_EQ(ClusterGroupAverage(DistanceMatrix(0)).merges().size(), 0u);
  EXPECT_EQ(ClusterGroupAverage(DistanceMatrix(1)).merges().size(), 0u);
  DistanceMatrix two(2);
  two.set(0, 1, 0.25);
  Dendrogram d = ClusterGroupAverage(two);
  ASSERT_EQ(d.merges().size(), 1u);
  EXPECT_EQ(d.merges()[0].left, 0);
  EXPECT_EQ(d.merges()[0].right, 1);
  EXPECT_DOUBLE_EQ(d.merges()[0].height, 0.25);
}

TEST(NnChainEquivalenceTest, DeterministicAcrossRuns) {
  DistanceMatrix m = DyadicTieMatrix(24, 99);
  Dendrogram a = ClusterGroupAverage(m);
  Dendrogram b = ClusterGroupAverage(m);
  ASSERT_EQ(a.merges().size(), b.merges().size());
  for (size_t k = 0; k < a.merges().size(); ++k) {
    EXPECT_EQ(a.merges()[k].left, b.merges()[k].left);
    EXPECT_EQ(a.merges()[k].right, b.merges()[k].right);
    EXPECT_EQ(a.merges()[k].height, b.merges()[k].height);
  }
}

// ---------------------------------------------------------------------------

std::vector<HttpPacket> SamplePackets(size_t n) {
  static const sim::Trace* trace = [] {
    sim::TrafficConfig config;
    config.seed = 4242;
    config.scale = 0.05;
    return new sim::Trace(sim::GenerateTrace(config));
  }();
  std::vector<HttpPacket> packets = trace->RawPackets();
  if (packets.size() > n) packets.resize(n);
  return packets;
}

void ExpectFastMatrixMatchesReference(const DistanceOptions& options) {
  std::vector<HttpPacket> packets = SamplePackets(60);
  auto compressor = compress::MakeCompressor("lzw");
  ASSERT_TRUE(compressor.ok());

  compress::NcdCalculator calc(compressor->get());
  PacketDistance metric(&calc, options);
  DistanceMatrix reference = ComputeDistanceMatrix(packets, metric);

  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    DistanceMatrixStats stats;
    DistanceMatrix fast = ComputeDistanceMatrixParallel(
        packets, compressor->get(), options, threads, &stats);
    ASSERT_EQ(fast.size(), reference.size());
    for (size_t i = 0; i < packets.size(); ++i) {
      for (size_t j = i + 1; j < packets.size(); ++j) {
        // Bit-identical, not merely close: the fast path must share the
        // reference path's exact floating-point expressions.
        ASSERT_EQ(fast.at(i, j), reference.at(i, j))
            << "threads=" << threads << " i=" << i << " j=" << j;
      }
    }
    EXPECT_EQ(stats.packets, packets.size());
    EXPECT_EQ(stats.pairs, packets.size() * (packets.size() - 1) / 2);
    if (options.use_content) {
      // Each distinct unordered string pair is compressed at most once,
      // whatever the thread count.
      EXPECT_LE(stats.ncd_pairs_computed,
                stats.distinct_content_strings *
                    (stats.distinct_content_strings + 1) / 2);
      EXPECT_GT(stats.ncd_pair_hits + stats.ncd_pairs_computed, 0u);
      EXPECT_GT(stats.singleton_compressions, 0u);
    }
  }
}

TEST(FastMatrixEquivalenceTest, DefaultOptions) {
  ExpectFastMatrixMatchesReference(DistanceOptions{});
}

TEST(FastMatrixEquivalenceTest, ContentOnly) {
  DistanceOptions options;
  options.use_destination = false;
  ExpectFastMatrixMatchesReference(options);
}

TEST(FastMatrixEquivalenceTest, DestinationOnly) {
  DistanceOptions options;
  options.use_content = false;
  ExpectFastMatrixMatchesReference(options);
}

TEST(FastMatrixEquivalenceTest, LiteralOrientation) {
  DistanceOptions options;
  options.literal_similarity_orientation = true;
  ExpectFastMatrixMatchesReference(options);
}

TEST(FastMatrixEquivalenceTest, WithOrgRegistry) {
  net::OrgRegistry registry;
  registry.Add(*net::CidrPrefix::Parse("10.0.0.0/8"), "alpha-ads");
  registry.Add(*net::CidrPrefix::Parse("172.16.0.0/12"), "beta-analytics");
  DistanceOptions options;
  options.org_registry = &registry;
  ExpectFastMatrixMatchesReference(options);
}

TEST(FastMatrixEquivalenceTest, SerialPathReportsFullCacheEffect) {
  std::vector<HttpPacket> packets = SamplePackets(60);
  auto compressor = compress::MakeCompressor("lzw");
  ASSERT_TRUE(compressor.ok());
  DistanceMatrixStats stats;
  ComputeDistanceMatrixParallel(packets, compressor->get(), DistanceOptions{},
                                1, &stats);
  // Serial path has no compute races: pair compressions are exactly the
  // distinct non-trivial unordered pairs, and everything else is a hit.
  uint64_t probes = stats.ncd_pair_hits + stats.ncd_pairs_computed;
  EXPECT_GT(probes, 0u);
  EXPECT_LE(stats.ncd_pairs_computed,
            static_cast<uint64_t>(stats.distinct_content_strings) *
                (stats.distinct_content_strings + 1) / 2);
  // Real ad traffic repeats field strings heavily, so the shared cache must
  // absorb a sizable share of probes even at this small N (the hit rate
  // climbs with sample size; bench_training records it at production N).
  EXPECT_GT(stats.ncd_hit_rate(), 0.25) << "hit rate " << stats.ncd_hit_rate();
}

}  // namespace
}  // namespace leakdet::core
