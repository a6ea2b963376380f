#include "core/hcluster.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace leakdet::core {

Dendrogram::Dendrogram(size_t num_leaves, std::vector<MergeStep> merges)
    : num_leaves_(num_leaves), merges_(std::move(merges)) {
  assert(num_leaves_ == 0 || merges_.size() == num_leaves_ - 1);
}

std::vector<int32_t> Dendrogram::LeavesUnder(int32_t node) const {
  std::vector<int32_t> leaves;
  std::vector<int32_t> stack{node};
  while (!stack.empty()) {
    int32_t v = stack.back();
    stack.pop_back();
    if (v < static_cast<int32_t>(num_leaves_)) {
      leaves.push_back(v);
    } else {
      const MergeStep& m = merges_[static_cast<size_t>(v) - num_leaves_];
      stack.push_back(m.left);
      stack.push_back(m.right);
    }
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

std::vector<std::vector<int32_t>> Dendrogram::CutAfterMerges(
    size_t num_merges) const {
  // Union-find over leaves, applying the first `num_merges` merges.
  std::vector<int32_t> parent(num_leaves_ + num_merges);
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<int32_t>(i);
  }
  auto find = [&parent](int32_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (size_t k = 0; k < num_merges; ++k) {
    int32_t node = static_cast<int32_t>(num_leaves_ + k);
    parent[static_cast<size_t>(find(merges_[k].left))] = node;
    parent[static_cast<size_t>(find(merges_[k].right))] = node;
  }
  // Group leaves by root.
  std::vector<std::vector<int32_t>> clusters;
  std::vector<int32_t> root_to_cluster(parent.size(), -1);
  for (size_t leaf = 0; leaf < num_leaves_; ++leaf) {
    int32_t r = find(static_cast<int32_t>(leaf));
    if (root_to_cluster[static_cast<size_t>(r)] < 0) {
      root_to_cluster[static_cast<size_t>(r)] =
          static_cast<int32_t>(clusters.size());
      clusters.emplace_back();
    }
    clusters[static_cast<size_t>(root_to_cluster[static_cast<size_t>(r)])]
        .push_back(static_cast<int32_t>(leaf));
  }
  return clusters;
}

std::vector<std::vector<int32_t>> Dendrogram::CutAtHeight(
    double height) const {
  size_t k = 0;
  // Group-average merges are monotone non-decreasing in height, so a prefix
  // of merges is exactly the set at or below the threshold.
  while (k < merges_.size() && merges_[k].height <= height) ++k;
  return CutAfterMerges(k);
}

std::vector<std::vector<int32_t>> Dendrogram::CutIntoK(size_t k) const {
  assert(k >= 1 && k <= num_leaves_);
  return CutAfterMerges(num_leaves_ - k);
}

double Dendrogram::CopheneticDistance(int32_t x, int32_t y) const {
  if (x == y) return 0.0;
  // Walk merges in order; the first merge uniting x's and y's components is
  // their lowest common ancestor.
  std::vector<int32_t> comp(num_leaves_ + merges_.size());
  for (size_t i = 0; i < comp.size(); ++i) comp[i] = static_cast<int32_t>(i);
  auto find = [&comp](int32_t v) {
    while (comp[static_cast<size_t>(v)] != v) {
      comp[static_cast<size_t>(v)] =
          comp[static_cast<size_t>(comp[static_cast<size_t>(v)])];
      v = comp[static_cast<size_t>(v)];
    }
    return v;
  };
  for (size_t k = 0; k < merges_.size(); ++k) {
    int32_t node = static_cast<int32_t>(num_leaves_ + k);
    comp[static_cast<size_t>(find(merges_[k].left))] = node;
    comp[static_cast<size_t>(find(merges_[k].right))] = node;
    if (find(x) == find(y)) return merges_[k].height;
  }
  return std::numeric_limits<double>::infinity();
}

Dendrogram ClusterGroupAverageNaive(const DistanceMatrix& distances) {
  const size_t n = distances.size();
  if (n == 0) return Dendrogram(0, {});
  if (n == 1) return Dendrogram(1, {});

  // Active-cluster working matrix (full square for O(1) access).
  std::vector<double> d(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      d[i * n + j] = d[j * n + i] = distances.at(i, j);
    }
  }
  std::vector<bool> active(n, true);
  std::vector<int32_t> node_id(n);   // dendrogram node for slot i
  std::vector<int32_t> size(n, 1);   // leaves under slot i
  for (size_t i = 0; i < n; ++i) node_id[i] = static_cast<int32_t>(i);

  std::vector<MergeStep> merges;
  merges.reserve(n - 1);
  for (size_t step = 0; step + 1 < n; ++step) {
    // Find the closest active pair.
    double best = std::numeric_limits<double>::infinity();
    size_t bi = 0, bj = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (d[i * n + j] < best) {
          best = d[i * n + j];
          bi = i;
          bj = j;
        }
      }
    }
    // Merge bj into bi; Lance–Williams group-average update:
    // d(A∪B, K) = (|A| d(A,K) + |B| d(B,K)) / (|A| + |B|).
    int32_t new_node = static_cast<int32_t>(n + step);
    merges.push_back(
        MergeStep{node_id[bi], node_id[bj], best, size[bi] + size[bj]});
    double wa = static_cast<double>(size[bi]);
    double wb = static_cast<double>(size[bj]);
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi || k == bj) continue;
      double merged = (wa * d[bi * n + k] + wb * d[bj * n + k]) / (wa + wb);
      d[bi * n + k] = d[k * n + bi] = merged;
    }
    active[bj] = false;
    node_id[bi] = new_node;
    size[bi] += size[bj];
  }
  return Dendrogram(n, std::move(merges));
}

namespace {

/// A merge recorded in NN-chain discovery order: the two clusters are named
/// by a contained leaf (slot i's cluster always contains leaf i, because
/// merges fold the higher slot into the lower one).
struct RawMerge {
  int32_t a;
  int32_t b;
  double height;
};

/// The NN-chain's agglomeration state: the full square working matrix over
/// `n` position slots, with a cluster occupying the slot of its minimum leaf
/// position (merges always fold the higher slot into the lower).
struct Workspace {
  size_t n = 0;
  std::vector<double> d;       ///< n*n working distances
  std::vector<bool> active;    ///< slot still represents a live cluster
  std::vector<int32_t> size;   ///< leaves under slot i
  size_t active_count = 0;

  explicit Workspace(const DistanceMatrix& distances)
      : n(distances.size()),
        d(n * n, 0.0),
        active(n, true),
        size(n, 1),
        active_count(n) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        d[i * n + j] = d[j * n + i] = distances.at(i, j);
      }
    }
  }

  /// Folds slot bj into slot bi (bi < bj): the Lance–Williams group-average
  /// update. The expression is byte-for-byte the one the naive oracle uses
  /// (wa is always the lower slot's size), so whenever the two build the
  /// same merge *tree* they fold the same bits.
  void Fold(size_t bi, size_t bj) {
    double wa = static_cast<double>(size[bi]);
    double wb = static_cast<double>(size[bj]);
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi || k == bj) continue;
      double merged = (wa * d[bi * n + k] + wb * d[bj * n + k]) / (wa + wb);
      d[bi * n + k] = d[k * n + bi] = merged;
    }
    active[bj] = false;
    size[bi] += size[bj];
    --active_count;
  }
};

/// Runs the NN-chain until one cluster remains, appending RawMerges. Fully
/// deterministic: chains seed at the lowest active slot and nearest-neighbor
/// ties prefer the lowest slot index.
void NnChainMerges(Workspace* ws, std::vector<RawMerge>* raw) {
  const size_t n = ws->n;
  std::vector<double>& d = ws->d;
  std::vector<size_t> chain;
  chain.reserve(n);
  size_t seed = 0;  // lowest slot that may still be active

  while (ws->active_count > 1) {
    if (chain.empty()) {
      while (!ws->active[seed]) ++seed;
      chain.push_back(seed);
    }
    // Extend the chain with nearest neighbors until it folds back on
    // itself. Reducibility guarantees chain distances strictly decrease, so
    // this terminates, and that the chain stays valid across merges.
    for (;;) {
      size_t top = chain.back();
      double best = std::numeric_limits<double>::infinity();
      size_t next = n;
      for (size_t j = 0; j < n; ++j) {
        if (!ws->active[j] || j == top) continue;
        if (d[top * n + j] < best) {
          best = d[top * n + j];
          next = j;
        }
      }
      // On a tie with the predecessor, fold back (guarantees termination
      // and keeps the result independent of the lowest-index tie winner).
      if (chain.size() >= 2) {
        size_t prev = chain[chain.size() - 2];
        if (d[top * n + prev] == best) next = prev;
      }
      if (chain.size() >= 2 && next == chain[chain.size() - 2]) break;
      chain.push_back(next);
    }

    size_t a = chain.back();
    chain.pop_back();
    size_t b = chain.back();
    chain.pop_back();
    size_t bi = std::min(a, b);
    size_t bj = std::max(a, b);
    raw->push_back(RawMerge{static_cast<int32_t>(bi), static_cast<int32_t>(bj),
                            d[bi * n + bj]});
    ws->Fold(bi, bj);
  }
}

/// Sorts discovered merges into greedy order and relabels slot pairs to
/// dendrogram node ids via union-find over leaves.
Dendrogram FinalizeMerges(size_t n, std::vector<RawMerge> raw) {
  // Merges are discovered out of height order; sorting restores the greedy
  // order. Group-average heights are monotone along tree paths, so a stable
  // sort never places a parent before its children (children are discovered
  // first and have height <= parent's).
  std::stable_sort(
      raw.begin(), raw.end(),
      [](const RawMerge& x, const RawMerge& y) { return x.height < y.height; });

  std::vector<int32_t> parent(n);
  std::vector<int32_t> node(n);   // dendrogram node for the set's root
  std::vector<int32_t> csize(n);  // leaves under the set's root
  for (size_t i = 0; i < n; ++i) {
    parent[i] = node[i] = static_cast<int32_t>(i);
    csize[i] = 1;
  }
  auto find = [&parent](int32_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  std::vector<MergeStep> merges;
  merges.reserve(raw.size());
  for (size_t k = 0; k < raw.size(); ++k) {
    int32_t ra = find(raw[k].a);
    int32_t rb = find(raw[k].b);
    int32_t left = node[static_cast<size_t>(ra)];
    int32_t right = node[static_cast<size_t>(rb)];
    if (left > right) std::swap(left, right);
    int32_t merged_size =
        csize[static_cast<size_t>(ra)] + csize[static_cast<size_t>(rb)];
    merges.push_back(MergeStep{left, right, raw[k].height, merged_size});
    parent[static_cast<size_t>(ra)] = rb;
    node[static_cast<size_t>(rb)] = static_cast<int32_t>(n + k);
    csize[static_cast<size_t>(rb)] = merged_size;
  }
  return Dendrogram(n, std::move(merges));
}

}  // namespace

Dendrogram ClusterGroupAverage(const DistanceMatrix& distances) {
  const size_t n = distances.size();
  if (n == 0) return Dendrogram(0, {});
  if (n == 1) return Dendrogram(1, {});

  Workspace ws(distances);
  std::vector<RawMerge> raw;
  raw.reserve(n - 1);
  NnChainMerges(&ws, &raw);
  return FinalizeMerges(n, std::move(raw));
}

}  // namespace leakdet::core
