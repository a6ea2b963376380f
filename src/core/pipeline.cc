#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "compress/ncd.h"
#include "util/rng.h"

namespace leakdet::core {

StatusOr<ClusteringResult> RunClustering(
    const std::vector<HttpPacket>& suspicious,
    const std::vector<HttpPacket>& normal, const PipelineOptions& options) {
  if (suspicious.empty()) {
    return Status::InvalidArgument("suspicious group is empty");
  }
  if (options.sample_size == 0) {
    return Status::InvalidArgument("sample_size must be positive");
  }

  // Epoch-decorrelated sampling: a fixed `Rng(options.seed)` here meant
  // every retrain resampled with the identical stream, permanently biasing
  // which pool positions could ever be seen across a server's lifetime.
  Rng rng(MixSeed(options.seed, options.feed_version));
  ClusteringResult result;

  // 1. Sample N suspicious packets (without replacement).
  size_t n = std::min(options.sample_size, suspicious.size());
  result.sampled_indices = rng.SampleWithoutReplacement(suspicious.size(), n);
  std::sort(result.sampled_indices.begin(), result.sampled_indices.end());
  result.sample.reserve(n);
  for (size_t idx : result.sampled_indices) {
    result.sample.push_back(suspicious[idx]);
  }

  // 2. Pairwise HTTP packet distances (§IV-B/C), parallel over rows.
  LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<compress::Compressor> compressor,
                           compress::MakeCompressor(options.compressor));
  DistanceMatrix matrix =
      ComputeDistanceMatrixParallel(result.sample, compressor.get(),
                                    options.distance, options.num_threads,
                                    &result.distance_stats);

  // 3. Group-average hierarchical clustering (§IV-D) and threshold cut.
  const auto cluster_start = std::chrono::steady_clock::now();
  Dendrogram dendrogram = ClusterGroupAverage(matrix);
  result.merge_heights.reserve(dendrogram.merges().size());
  for (const MergeStep& m : dendrogram.merges()) {
    result.merge_heights.push_back(m.height);
  }
  result.clusters = dendrogram.CutAtHeight(options.cut_height);
  result.distance_stats.cluster_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - cluster_start)
          .count());

  // 4. Sample a normal corpus for signature screening.
  if (!normal.empty() && options.normal_corpus_size > 0) {
    size_t m = std::min(options.normal_corpus_size, normal.size());
    for (size_t idx : rng.SampleWithoutReplacement(normal.size(), m)) {
      result.normal_corpus.push_back(PacketContent(normal[idx]));
    }
  }
  return result;
}

StatusOr<PipelineResult> RunPipeline(const std::vector<HttpPacket>& suspicious,
                                     const std::vector<HttpPacket>& normal,
                                     const PipelineOptions& options) {
  LEAKDET_ASSIGN_OR_RETURN(ClusteringResult clustering,
                           RunClustering(suspicious, normal, options));

  PipelineResult result;
  result.sampled_indices = std::move(clustering.sampled_indices);
  result.clusters = clustering.clusters;
  result.merge_heights = std::move(clustering.merge_heights);
  result.distance_stats = clustering.distance_stats;

  // 5. Conjunction signatures, one per cluster (§IV-E).
  const auto siggen_start = std::chrono::steady_clock::now();
  SignatureGenerator generator(options.siggen);
  result.signatures =
      generator.Generate(clustering.sample, clustering.clusters,
                         clustering.normal_corpus, &result.cluster_reports);
  result.distance_stats.siggen_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - siggen_start)
          .count());
  return result;
}

}  // namespace leakdet::core
