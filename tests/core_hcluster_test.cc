#include "core/hcluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.h"

namespace leakdet::core {
namespace {

// Builds a matrix with two tight groups ({0,1,2} and {3,4}) far apart.
DistanceMatrix TwoGroupMatrix() {
  DistanceMatrix m(5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      bool same_group = (i < 3) == (j < 3);
      m.set(i, j, same_group ? 0.1 : 5.0);
    }
  }
  return m;
}

TEST(ClusterGroupAverageTest, EmptyAndSingleton) {
  EXPECT_EQ(ClusterGroupAverage(DistanceMatrix(0)).num_leaves(), 0u);
  Dendrogram one = ClusterGroupAverage(DistanceMatrix(1));
  EXPECT_EQ(one.num_leaves(), 1u);
  EXPECT_TRUE(one.merges().empty());
  auto clusters = one.CutAtHeight(100.0);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], std::vector<int32_t>{0});
}

TEST(ClusterGroupAverageTest, ProducesNMinusOneMerges) {
  Dendrogram d = ClusterGroupAverage(TwoGroupMatrix());
  EXPECT_EQ(d.num_leaves(), 5u);
  EXPECT_EQ(d.merges().size(), 4u);
}

TEST(ClusterGroupAverageTest, MergeHeightsAreMonotone) {
  // Group-average linkage is reducible: no inversions.
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 2 + rng.UniformInt(30);
    DistanceMatrix m(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        m.set(i, j, rng.UniformDouble() * 10);
      }
    }
    Dendrogram d = ClusterGroupAverage(m);
    for (size_t k = 1; k < d.merges().size(); ++k) {
      EXPECT_GE(d.merges()[k].height, d.merges()[k - 1].height - 1e-9);
    }
  }
}

TEST(ClusterGroupAverageTest, RecoversPlantedGroups) {
  Dendrogram d = ClusterGroupAverage(TwoGroupMatrix());
  auto clusters = d.CutAtHeight(1.0);
  ASSERT_EQ(clusters.size(), 2u);
  std::set<int32_t> first(clusters[0].begin(), clusters[0].end());
  std::set<int32_t> second(clusters[1].begin(), clusters[1].end());
  EXPECT_EQ(first, (std::set<int32_t>{0, 1, 2}));
  EXPECT_EQ(second, (std::set<int32_t>{3, 4}));
}

TEST(ClusterGroupAverageTest, FirstMergeIsClosestPair) {
  DistanceMatrix m(4);
  m.set(0, 1, 3.0);
  m.set(0, 2, 1.0);
  m.set(0, 3, 4.0);
  m.set(1, 2, 5.0);
  m.set(1, 3, 0.5);  // closest
  m.set(2, 3, 6.0);
  Dendrogram d = ClusterGroupAverage(m);
  const MergeStep& first = d.merges()[0];
  EXPECT_DOUBLE_EQ(first.height, 0.5);
  std::set<int32_t> merged{first.left, first.right};
  EXPECT_EQ(merged, (std::set<int32_t>{1, 3}));
}

TEST(ClusterGroupAverageTest, GroupAverageLanceWilliamsExact) {
  // 3 points: after merging {0,1}, d({0,1},2) must be the mean of d(0,2)
  // and d(1,2).
  DistanceMatrix m(3);
  m.set(0, 1, 0.2);
  m.set(0, 2, 2.0);
  m.set(1, 2, 4.0);
  Dendrogram d = ClusterGroupAverage(m);
  ASSERT_EQ(d.merges().size(), 2u);
  EXPECT_DOUBLE_EQ(d.merges()[0].height, 0.2);
  EXPECT_DOUBLE_EQ(d.merges()[1].height, 3.0);
}

TEST(ClusterGroupAverageTest, WeightedAverageOverClusterSizes) {
  // Cluster of size 2 vs singleton: group average weights by member count,
  // not by cluster count. 4 points on a line-ish configuration.
  DistanceMatrix m(4);
  m.set(0, 1, 0.1);   // merge first -> A = {0,1}
  m.set(0, 2, 1.0);
  m.set(1, 2, 2.0);
  m.set(0, 3, 10.0);
  m.set(1, 3, 10.0);
  m.set(2, 3, 10.0);
  Dendrogram d = ClusterGroupAverage(m);
  // Second merge: A with 2 at height (1.0 + 2.0)/2 = 1.5.
  EXPECT_DOUBLE_EQ(d.merges()[1].height, 1.5);
  // Third: {0,1,2} with 3 at (10+10+10)/3 = 10.
  EXPECT_DOUBLE_EQ(d.merges()[2].height, 10.0);
}

TEST(DendrogramTest, LeavesUnderInternalNodes) {
  Dendrogram d = ClusterGroupAverage(TwoGroupMatrix());
  // The root (last merge node) covers all leaves.
  int32_t root = static_cast<int32_t>(d.num_leaves() + d.merges().size() - 1);
  auto all = d.LeavesUnder(root);
  EXPECT_EQ(all, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  // A leaf id is its own cover.
  EXPECT_EQ(d.LeavesUnder(2), std::vector<int32_t>{2});
}

TEST(DendrogramTest, CutAtHeightExtremes) {
  Dendrogram d = ClusterGroupAverage(TwoGroupMatrix());
  // Below every merge: all singletons.
  auto singletons = d.CutAtHeight(0.0);
  EXPECT_EQ(singletons.size(), 5u);
  // Above every merge: one cluster.
  auto everything = d.CutAtHeight(100.0);
  ASSERT_EQ(everything.size(), 1u);
  EXPECT_EQ(everything[0].size(), 5u);
}

TEST(DendrogramTest, CutIntoK) {
  Dendrogram d = ClusterGroupAverage(TwoGroupMatrix());
  EXPECT_EQ(d.CutIntoK(5).size(), 5u);
  EXPECT_EQ(d.CutIntoK(2).size(), 2u);
  EXPECT_EQ(d.CutIntoK(1).size(), 1u);
  EXPECT_EQ(d.CutIntoK(3).size(), 3u);
}

TEST(DendrogramTest, CutsPartitionLeaves) {
  Rng rng(7);
  size_t n = 20;
  DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      m.set(i, j, rng.UniformDouble());
    }
  }
  Dendrogram d = ClusterGroupAverage(m);
  for (double h : {0.0, 0.2, 0.4, 0.6, 1.0}) {
    auto clusters = d.CutAtHeight(h);
    std::set<int32_t> seen;
    for (const auto& c : clusters) {
      for (int32_t leaf : c) {
        EXPECT_TRUE(seen.insert(leaf).second) << "leaf duplicated";
      }
    }
    EXPECT_EQ(seen.size(), n);
  }
}

TEST(DendrogramTest, CopheneticDistanceProperties) {
  Dendrogram d = ClusterGroupAverage(TwoGroupMatrix());
  EXPECT_DOUBLE_EQ(d.CopheneticDistance(0, 0), 0.0);
  // Within-group cophenetic height is small; cross-group is the top merge.
  EXPECT_LT(d.CopheneticDistance(0, 1), 1.0);
  EXPECT_GT(d.CopheneticDistance(0, 4), 1.0);
  EXPECT_DOUBLE_EQ(d.CopheneticDistance(0, 4), d.CopheneticDistance(4, 0));
  // Ultrametric inequality: d(x,z) <= max(d(x,y), d(y,z)).
  double xy = d.CopheneticDistance(0, 3);
  double yz = d.CopheneticDistance(3, 4);
  double xz = d.CopheneticDistance(0, 4);
  EXPECT_LE(xz, std::max(xy, yz) + 1e-9);
}

TEST(DendrogramTest, MergeSizesAccumulate) {
  Dendrogram d = ClusterGroupAverage(TwoGroupMatrix());
  const auto& merges = d.merges();
  // Final merge covers all five leaves.
  EXPECT_EQ(merges.back().size, 5);
  int32_t total_leaf_draws = 0;
  for (const auto& m : merges) {
    EXPECT_GE(m.size, 2);
    total_leaf_draws += 0;  // structural check only
  }
  (void)total_leaf_draws;
}

}  // namespace
}  // namespace leakdet::core
