#ifndef LEAKDET_CORE_PIPELINE_H_
#define LEAKDET_CORE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/distance.h"
#include "core/hcluster.h"
#include "core/siggen.h"
#include "util/statusor.h"

namespace leakdet::core {

/// End-to-end server-side configuration (§IV-A Fig. 3a): sample N suspicious
/// packets, cluster them under the HTTP packet distance, cut the dendrogram,
/// and emit one conjunction signature per cluster.
struct PipelineOptions {
  /// N, the number of suspicious packets sampled for clustering. The paper
  /// sweeps 100..500.
  size_t sample_size = 300;

  /// Dendrogram cut threshold on the group-average packet distance. The
  /// composite distance has range [0, 6] (six unit-range components).
  /// Same-module packets land below ~1.2; the same SDK template served from
  /// sibling backends (different host, same request shape) lands near ~1.9;
  /// unrelated services sit above ~2.2. 2.0 groups per-SDK, which is what
  /// lets a signature generalize across a module's backends (§IV-A).
  double cut_height = 2.0;

  /// Compressor used for the NCD content distance: "lzw" (default), "lz77h",
  /// or "entropy". The ablation shows lz77h reaches slightly higher peak TP
  /// but clusters more aggressively (its NCD values sit lower), which makes
  /// the detection curve noisier across N; LZW gives the smoothest
  /// Figure-4-shaped sweep at this cut height, so it is the default.
  std::string compressor = "lzw";

  /// How many normal packets to sample for signature screening.
  size_t normal_corpus_size = 2000;

  /// Seed for the sampling RNG (deterministic end to end).
  uint64_t seed = 1;

  /// Which retrain epoch this run belongs to. The sampling stream is derived
  /// from `MixSeed(seed, feed_version)`, so successive retrains over the same
  /// pools draw decorrelated samples while any (seed, feed_version) pair
  /// stays exactly replayable. 0 — the default, and every one-shot batch
  /// run — reproduces the historical stream `Rng(seed)` bit for bit.
  uint64_t feed_version = 0;

  /// Worker threads for the pairwise distance matrix (the pipeline's hot
  /// loop). 0 = hardware concurrency; 1 = serial. The result is identical
  /// either way (the distance is a pure function).
  unsigned num_threads = 0;

  DistanceOptions distance;
  SiggenOptions siggen;
};

/// The shared front half of the pipeline: the sampled packets, their
/// clustering, and the screening corpus — inputs to either signature
/// generator (conjunction, subsequence or Bayes).
struct ClusteringResult {
  /// Indices into the suspicious group of the N sampled packets (sorted).
  std::vector<size_t> sampled_indices;
  /// The sampled packets themselves (same order as sampled_indices).
  std::vector<HttpPacket> sample;
  /// Flat clusters over the sample (positions within `sample`).
  std::vector<std::vector<int32_t>> clusters;
  /// Dendrogram merge heights (diagnostics: choosing cut_height).
  std::vector<double> merge_heights;
  /// Sampled normal-packet contents used for signature screening.
  std::vector<std::string> normal_corpus;
  /// Cache effectiveness of the distance-matrix build (observability).
  DistanceMatrixStats distance_stats;
};

/// Runs sampling, distance computation, and hierarchical clustering
/// (§IV-B/C/D) — everything up to signature generation.
StatusOr<ClusteringResult> RunClustering(
    const std::vector<HttpPacket>& suspicious,
    const std::vector<HttpPacket>& normal, const PipelineOptions& options);

/// Everything the server-side run produces, for evaluation and reports.
struct PipelineResult {
  match::SignatureSet signatures;
  /// Indices into the suspicious group of the N sampled packets.
  std::vector<size_t> sampled_indices;
  /// Clusters over the sample (values are positions within the sample).
  std::vector<std::vector<int32_t>> clusters;
  /// Dendrogram merge heights (diagnostics: choosing cut_height).
  std::vector<double> merge_heights;
  /// Per-cluster signature generation outcomes.
  std::vector<SiggenClusterReport> cluster_reports;
  /// Cache effectiveness of the distance-matrix build (observability).
  DistanceMatrixStats distance_stats;
};

/// Runs the full server-side pipeline.
///
/// `suspicious` is the payload-check-positive group, `normal` the rest
/// (§V-A's manual split, automated by PayloadCheck). Fails if `suspicious`
/// is empty or smaller than `options.sample_size` requires (the sample is
/// truncated to the group size, matching the paper's N <= group size).
StatusOr<PipelineResult> RunPipeline(const std::vector<HttpPacket>& suspicious,
                                     const std::vector<HttpPacket>& normal,
                                     const PipelineOptions& options);

}  // namespace leakdet::core

#endif  // LEAKDET_CORE_PIPELINE_H_
