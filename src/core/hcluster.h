#ifndef LEAKDET_CORE_HCLUSTER_H_
#define LEAKDET_CORE_HCLUSTER_H_

#include <cstdint>
#include <vector>

#include "core/distance.h"

namespace leakdet::core {

/// One agglomeration step. Node ids: 0..n-1 are the input points (leaves);
/// the k-th merge (k = 0..n-2) creates internal node n+k.
struct MergeStep {
  int32_t left;
  int32_t right;
  double height;  ///< group-average distance between the merged clusters
  int32_t size;   ///< number of leaves under the new node
};

/// The full merge tree produced by hierarchical clustering (§IV-D iterates
/// "until C has one cluster"; signature generation then walks this tree).
class Dendrogram {
 public:
  Dendrogram(size_t num_leaves, std::vector<MergeStep> merges);

  size_t num_leaves() const { return num_leaves_; }
  const std::vector<MergeStep>& merges() const { return merges_; }

  /// Leaf ids under `node` (a leaf id or internal id n+k).
  std::vector<int32_t> LeavesUnder(int32_t node) const;

  /// Flat clusters obtained by applying every merge with height <= `height`.
  /// Each cluster lists its leaf ids in increasing order; clusters are
  /// ordered by their smallest leaf.
  std::vector<std::vector<int32_t>> CutAtHeight(double height) const;

  /// Flat clusters obtained by stopping when exactly `k` clusters remain
  /// (k in [1, num_leaves]).
  std::vector<std::vector<int32_t>> CutIntoK(size_t k) const;

  /// Cophenetic distance between leaves x and y: the height of their lowest
  /// common ancestor merge. Used by clustering-quality diagnostics.
  double CopheneticDistance(int32_t x, int32_t y) const;

 private:
  std::vector<std::vector<int32_t>> CutAfterMerges(size_t num_merges) const;

  size_t num_leaves_;
  std::vector<MergeStep> merges_;
};

/// Group-average (UPGMA) agglomerative clustering over a precomputed
/// distance matrix, the procedure of §IV-D: start from singleton clusters
/// and repeatedly merge the closest pair under
///   d_group(Cx, Cy) = (1 / |Cx||Cy|) * sum_{px in Cx} sum_{py in Cy} d_pkt.
/// Implemented with the nearest-neighbor-chain algorithm: group average is
/// Lance–Williams reducible, so following chains of nearest neighbors until
/// a reciprocal pair is found, merging it, and sorting the recorded merges
/// by height yields the same dendrogram as the greedy closest-pair loop in
/// O(n²) time instead of O(n³). Fully deterministic: chains are seeded at
/// the lowest active slot and nearest-neighbor ties prefer the lowest slot
/// index; equal-height merges keep their discovery order (stable sort).
Dendrogram ClusterGroupAverage(const DistanceMatrix& distances);

/// The O(n³) greedy closest-pair implementation (scan all active pairs,
/// merge the minimum, Lance–Williams update). Kept as the oracle the
/// NN-chain implementation is property-tested against; not used on the
/// training path.
Dendrogram ClusterGroupAverageNaive(const DistanceMatrix& distances);

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_HCLUSTER_H_
