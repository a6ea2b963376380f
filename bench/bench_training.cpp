// Training-path benchmark: times the three server-side training stages —
// distance-matrix build, hierarchical clustering, signature generation — at
// several sample sizes and writes the measurements to BENCH_training.json.
//
// For each N the matrix stage is measured twice: the optimized path
// (sorted per-field interning + one stream per size-table row + lock-free
// packet-pair lookups) and, up to --naive-max, the serial uncached
// reference; likewise NN-chain vs the naive O(n³) scan for clustering.
// That makes the JSON a self-contained before/after record of the
// training-path optimization.
//
// Usage:
//   bench_training [--sizes=100,250,500,1000] [--scale=0.3] [--seed=42]
//                  [--threads=0] [--compressor=lzw] [--naive-max=500]
//                  [--out=BENCH_training.json] [--selfcheck]
//
// --selfcheck re-verifies, at each N, that the optimized matrix is
// bit-identical to the reference and that NN-chain reproduces the naive
// dendrogram's cut; it exits nonzero on any mismatch (used by the `perf`
// ctest smoke run).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "compress/ncd.h"
#include "core/distance.h"
#include "core/hcluster.h"
#include "core/packet.h"
#include "core/siggen.h"
#include "sim/trafficgen.h"

namespace {

using namespace leakdet;

struct Args {
  std::vector<size_t> sizes = {100, 250, 500, 1000};
  double scale = 0.3;
  uint64_t seed = 42;
  unsigned threads = 0;
  std::string compressor = "lzw";
  size_t naive_max = 500;
  std::string out = "BENCH_training.json";
  bool selfcheck = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--sizes=", 8) == 0) {
      args.sizes.clear();
      for (const char* p = a + 8; *p != '\0';) {
        args.sizes.push_back(static_cast<size_t>(std::strtoull(p, nullptr, 10)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strncmp(a, "--scale=", 8) == 0) {
      args.scale = std::atof(a + 8);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(a + 7));
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      args.threads = static_cast<unsigned>(std::atoi(a + 10));
    } else if (std::strncmp(a, "--compressor=", 13) == 0) {
      args.compressor = a + 13;
    } else if (std::strncmp(a, "--naive-max=", 12) == 0) {
      args.naive_max = static_cast<size_t>(std::atoll(a + 12));
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      args.out = a + 6;
    } else if (std::strcmp(a, "--selfcheck") == 0) {
      args.selfcheck = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      std::exit(2);
    }
  }
  return args;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Row {
  size_t n = 0;
  size_t pairs = 0;
  double matrix_ms = 0;
  double matrix_naive_ms = -1;  // -1 = not measured (n > naive_max)
  double cluster_ms = 0;
  double cluster_naive_ms = -1;
  double siggen_ms = 0;
  double pairs_per_sec = 0;
  core::DistanceMatrixStats stats;
  size_t nclusters = 0;
  size_t nsignatures = 0;
};

void AppendRowJson(std::string* json, const Row& r, bool last) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"n\": %zu, \"pairs\": %zu, \"matrix_ms\": %.2f, "
      "\"matrix_naive_ms\": %.2f, \"matrix_speedup\": %.2f, "
      "\"pairs_per_sec\": %.1f, \"cluster_ms\": %.2f, "
      "\"cluster_naive_ms\": %.2f, \"siggen_ms\": %.2f, "
      "\"distinct_content_strings\": %zu, \"distinct_hosts\": %zu, "
      "\"singleton_compressions\": %zu, \"ncd_pair_hits\": %llu, "
      "\"ncd_pairs_computed\": %llu, \"ncd_hit_rate\": %.4f, "
      "\"host_pairs_computed\": %llu, \"clusters\": %zu, "
      "\"signatures\": %zu}%s\n",
      r.n, r.pairs, r.matrix_ms, r.matrix_naive_ms,
      r.matrix_naive_ms > 0 ? r.matrix_naive_ms / r.matrix_ms : 0.0,
      r.pairs_per_sec, r.cluster_ms, r.cluster_naive_ms, r.siggen_ms,
      r.stats.distinct_content_strings, r.stats.distinct_hosts,
      r.stats.singleton_compressions,
      static_cast<unsigned long long>(r.stats.ncd_pair_hits),
      static_cast<unsigned long long>(r.stats.ncd_pairs_computed),
      r.stats.ncd_hit_rate(),
      static_cast<unsigned long long>(r.stats.host_pairs_computed),
      r.nclusters, r.nsignatures, last ? "" : ",");
  *json += buf;
}

bool MatricesIdentical(const core::DistanceMatrix& a,
                       const core::DistanceMatrix& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      if (a.at(i, j) != b.at(i, j)) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  sim::TrafficConfig config;
  config.seed = args.seed;
  config.scale = args.scale;
  std::printf("generating trace (scale=%.3f seed=%llu)...\n", args.scale,
              static_cast<unsigned long long>(args.seed));
  sim::Trace trace = sim::GenerateTrace(config);
  std::vector<core::HttpPacket> suspicious, normal;
  trace.SplitByTruth(&suspicious, &normal);
  std::printf("  %zu suspicious / %zu normal packets\n\n", suspicious.size(),
              normal.size());

  auto compressor = compress::MakeCompressor(args.compressor);
  if (!compressor.ok()) {
    std::fprintf(stderr, "bad compressor: %s\n", args.compressor.c_str());
    return 2;
  }

  std::vector<std::string> normal_corpus;
  for (size_t i = 0; i < normal.size() && i < 2000; ++i) {
    normal_corpus.push_back(core::PacketContent(normal[i]));
  }

  const core::DistanceOptions distance_options;
  const double cut_height = 2.0;
  bool selfcheck_failed = false;
  std::vector<Row> rows;

  for (size_t n : args.sizes) {
    if (n > suspicious.size()) {
      std::printf("N=%zu skipped (only %zu suspicious packets; raise "
                  "--scale)\n",
                  n, suspicious.size());
      continue;
    }
    std::vector<core::HttpPacket> sample(suspicious.begin(),
                                         suspicious.begin() +
                                             static_cast<long>(n));
    Row row;
    row.n = n;
    row.pairs = n * (n - 1) / 2;

    auto t0 = std::chrono::steady_clock::now();
    core::DistanceMatrix matrix = core::ComputeDistanceMatrixParallel(
        sample, compressor->get(), distance_options, args.threads, &row.stats);
    row.matrix_ms = MillisSince(t0);
    row.pairs_per_sec = row.matrix_ms > 0
                            ? static_cast<double>(row.pairs) /
                                  (row.matrix_ms / 1000.0)
                            : 0.0;

    if (n <= args.naive_max) {
      compress::NcdCalculator calc(compressor->get());
      core::PacketDistance metric(&calc, distance_options);
      t0 = std::chrono::steady_clock::now();
      core::DistanceMatrix reference = core::ComputeDistanceMatrix(sample,
                                                                   metric);
      row.matrix_naive_ms = MillisSince(t0);
      if (args.selfcheck && !MatricesIdentical(matrix, reference)) {
        std::fprintf(stderr, "SELFCHECK FAILED: fast matrix != reference at "
                             "N=%zu\n",
                     n);
        selfcheck_failed = true;
      }
    }

    t0 = std::chrono::steady_clock::now();
    core::Dendrogram dendrogram = core::ClusterGroupAverage(matrix);
    row.cluster_ms = MillisSince(t0);
    std::vector<std::vector<int32_t>> clusters =
        dendrogram.CutAtHeight(cut_height);
    row.nclusters = clusters.size();

    if (n <= args.naive_max) {
      t0 = std::chrono::steady_clock::now();
      core::Dendrogram naive = core::ClusterGroupAverageNaive(matrix);
      row.cluster_naive_ms = MillisSince(t0);
      if (args.selfcheck && dendrogram.CutAtHeight(cut_height) !=
                                naive.CutAtHeight(cut_height)) {
        std::fprintf(stderr, "SELFCHECK FAILED: NN-chain cut != naive cut at "
                             "N=%zu\n",
                     n);
        selfcheck_failed = true;
      }
    }

    t0 = std::chrono::steady_clock::now();
    core::SignatureGenerator generator(core::SiggenOptions{});
    match::SignatureSet signatures =
        generator.Generate(sample, clusters, normal_corpus, nullptr);
    row.siggen_ms = MillisSince(t0);
    row.nsignatures = signatures.size();

    std::printf("N=%4zu matrix %8.1fms (naive %8.1fms)  cluster %7.1fms "
                "(naive %7.1fms)  siggen %6.1fms  ncd_hit_rate %.3f  "
                "%zu clusters\n",
                n, row.matrix_ms, row.matrix_naive_ms, row.cluster_ms,
                row.cluster_naive_ms, row.siggen_ms, row.stats.ncd_hit_rate(),
                row.nclusters);
    rows.push_back(row);
  }

  std::string json = "{\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"config\": {\"scale\": %.3f, \"seed\": %llu, "
                  "\"threads\": %u, \"compressor\": \"%s\", "
                  "\"cut_height\": %.2f, \"naive_max\": %zu},\n",
                  args.scale,
                  static_cast<unsigned long long>(args.seed), args.threads,
                  args.compressor.c_str(), cut_height, args.naive_max);
    json += buf;
  }
  json += "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendRowJson(&json, rows[i], i + 1 == rows.size());
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", args.out.c_str());

  if (args.selfcheck && rows.empty()) {
    std::fprintf(stderr, "SELFCHECK FAILED: no sizes were runnable\n");
    selfcheck_failed = true;
  }
  return selfcheck_failed ? 1 : 0;
}
