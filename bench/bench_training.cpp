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
// Corpus mode (the incremental, out-of-core trainer at million-packet
// scale) runs in addition when --corpus is given:
//   bench_training --corpus=100000,1000000 [--corpus-sample=1000]
//                  [--corpus-distinct=1500] [--corpus-dir=PATH]
//                  [--rss-ceiling-mb=0]
// For each corpus size it trains an epoch, grows the corpus, and times a
// cold trainer (no carried state: every pair recompressed, full NN-chain)
// against the warmed trainer (persistent NCD cache + dendrogram replay) on
// the *same* tiled out-of-core path — the before/after of incrementality
// with the machinery held constant. Peak RSS (VmHWM) is recorded, and
// --rss-ceiling-mb turns it into a hard bound under --selfcheck, as is the
// bit-identity of the incremental feed against the from-scratch oracle.
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
#include "store/file.h"
#include "train/trainer.h"
#include "util/rng.h"

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
  std::vector<size_t> corpus_sizes;  // empty = corpus mode off
  size_t corpus_sample = 1000;
  size_t corpus_distinct = 1100;
  std::string corpus_dir = "bench_training_corpus.data";
  size_t rss_ceiling_mb = 0;  // 0 = record only
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
    } else if (std::strncmp(a, "--corpus=", 9) == 0) {
      for (const char* p = a + 9; *p != '\0';) {
        args.corpus_sizes.push_back(
            static_cast<size_t>(std::strtoull(p, nullptr, 10)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strncmp(a, "--corpus-sample=", 16) == 0) {
      args.corpus_sample = static_cast<size_t>(std::atoll(a + 16));
    } else if (std::strncmp(a, "--corpus-distinct=", 18) == 0) {
      args.corpus_distinct = static_cast<size_t>(std::atoll(a + 18));
    } else if (std::strncmp(a, "--corpus-dir=", 13) == 0) {
      args.corpus_dir = a + 13;
    } else if (std::strncmp(a, "--rss-ceiling-mb=", 17) == 0) {
      args.rss_ceiling_mb = static_cast<size_t>(std::atoll(a + 17));
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

// ---------------------------------------------------------------------------
// Corpus mode: the incremental trainer at out-of-core scale.

/// Peak resident set of this process in MiB (VmHWM), or -1 if unreadable.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  double mb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) mb = std::atof(line + 6) / 1024.0;
  }
  std::fclose(f);
  return mb;
}

/// Template tag over letters the volatile-run mask never touches, so each
/// tag is a distinct dedup class no matter what identifier fills it.
std::string CorpusTag(size_t i) {
  std::string tag;
  size_t v = i;
  do {
    tag.push_back(static_cast<char>('g' + v % 20));
    v /= 20;
  } while (v != 0);
  return tag;
}

core::HttpPacket CorpusPacket(size_t tmpl, Rng* rng) {
  static const char* kIps[] = {"20.1.2.3", "121.9.8.7", "93.4.4.1",
                               "203.0.113.9"};
  core::HttpPacket p;
  std::string tag = CorpusTag(tmpl);
  p.destination.host = "sdk" + CorpusTag(tmpl % 23) + ".ads.example";
  p.destination.ip = *net::Ipv4Address::Parse(kIps[tmpl % 4]);
  p.destination.port = 80;
  // Realistic tracker beacons: several device identifiers plus a session
  // token, all long volatile hex runs the template fingerprint masks away.
  p.request_line = "GET /track/" + tag + "?udid=" + rng->RandomHex(16) +
                   "&aaid=" + rng->RandomHex(16) + "&andid=" +
                   rng->RandomHex(16) + "&sess=" + rng->RandomHex(24) +
                   "&svc=" + tag + " HTTP/1.1";
  return p;
}

/// Appends `count` packets drawn from templates [0, distinct) with random
/// identifier fills: a duplicate-heavy stream whose distinct-content size is
/// bounded by `distinct` regardless of `count`.
void AppendCorpus(size_t count, size_t distinct, Rng* rng,
                  std::vector<core::HttpPacket>* corpus) {
  corpus->reserve(corpus->size() + count);
  for (size_t i = 0; i < count; ++i) {
    corpus->push_back(CorpusPacket(rng->UniformInt(distinct), rng));
  }
}

struct CorpusRow {
  size_t n = 0;
  uint64_t distinct = 0;
  uint64_t duplicates = 0;
  size_t sample = 0;
  double epoch0_ms = 0;
  double scratch_ms = 0;      // cold trainer, no carried state
  double incremental_ms = 0;  // warmed trainer, same machinery
  uint64_t cache_pair_hits = 0;
  uint64_t cache_pair_misses = 0;
  uint64_t tiles_total = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t replayed_merges = 0;
  double peak_rss_mb = 0;
  bool bit_identical = false;
};

void AppendCorpusRowJson(std::string* json, const CorpusRow& r, bool last) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"n\": %zu, \"distinct\": %llu, \"duplicates\": %llu, "
      "\"sample\": %zu, \"epoch0_ms\": %.1f, \"scratch_ms\": %.1f, "
      "\"incremental_ms\": %.1f, \"incremental_speedup\": %.2f, "
      "\"cache_pair_hits\": %llu, \"pair_hit_rate\": %.4f, "
      "\"tiles_total\": %llu, "
      "\"spill_bytes_written\": %llu, \"replayed_merges\": %llu, "
      "\"peak_rss_mb\": %.1f, \"bit_identical\": %s}%s\n",
      r.n, static_cast<unsigned long long>(r.distinct),
      static_cast<unsigned long long>(r.duplicates), r.sample, r.epoch0_ms,
      r.scratch_ms, r.incremental_ms,
      r.incremental_ms > 0 ? r.scratch_ms / r.incremental_ms : 0.0,
      static_cast<unsigned long long>(r.cache_pair_hits),
      r.cache_pair_hits + r.cache_pair_misses > 0
          ? static_cast<double>(r.cache_pair_hits) /
                static_cast<double>(r.cache_pair_hits + r.cache_pair_misses)
          : 0.0,
      static_cast<unsigned long long>(r.tiles_total),
      static_cast<unsigned long long>(r.spill_bytes_written),
      static_cast<unsigned long long>(r.replayed_merges), r.peak_rss_mb,
      r.bit_identical ? "true" : "false", last ? "" : ",");
  *json += buf;
}

/// One corpus-mode measurement. Returns false on a selfcheck violation.
bool RunCorpusSize(const Args& args, size_t n, CorpusRow* row) {
  store::Dir* dir = store::Dir::Real();
  (void)dir->CreateDir(args.corpus_dir);
  std::string base = args.corpus_dir + "/n" + std::to_string(n);
  (void)dir->CreateDir(base);
  for (const char* leg : {"warm", "cold"}) {
    // Drop any state a previous run left behind: cold must stay cold.
    std::string leg_dir = base + "/" + leg;
    (void)dir->Remove(leg_dir + "/ncd-cache");
    (void)train::RemoveSpillTiles(dir, leg_dir + "/spill");
  }

  size_t distinct = args.corpus_distinct;
  size_t sample_size = args.corpus_sample < distinct ? args.corpus_sample
                                                     : distinct / 2;
  Rng rng(args.seed);
  std::vector<core::HttpPacket> corpus;
  AppendCorpus(n, distinct, &rng, &corpus);
  std::vector<core::HttpPacket> normal;
  for (size_t i = 0; i < 2000; ++i) {
    core::HttpPacket p;
    p.destination.host = "cdn.benign.example";
    p.destination.ip = *net::Ipv4Address::Parse("55.5.5.5");
    p.destination.port = 80;
    p.request_line = "GET /static/img" + CorpusTag(i % 9) + "/" +
                     rng.RandomHex(8) + ".png HTTP/1.1";
    normal.push_back(p);
  }

  core::PipelineOptions pipeline;
  pipeline.sample_size = sample_size;
  pipeline.normal_corpus_size = 200;
  pipeline.seed = args.seed;
  pipeline.num_threads = args.threads;
  pipeline.compressor = args.compressor;

  train::IncrementalTrainerOptions warm_opts;
  warm_opts.data_dir = base + "/warm";
  warm_opts.append_only_pool = true;  // the pool only ever grows here
  train::IncrementalTrainer warm(warm_opts);

  // Warm-up epochs: the persistent NCD cache accumulates pair coverage
  // across the decorrelated per-epoch samples, which is exactly the steady
  // state a long-running trainer converges to. Between epochs the corpus
  // grows the way a live feed does: mostly duplicates of known templates
  // plus a small batch of new ones.
  const uint64_t kWarmEpochs = 3;
  for (uint64_t e = 0; e < kWarmEpochs; ++e) {
    std::printf("corpus N=%zu: warm epoch %llu (%zu packets, sample %zu)...\n",
                n, static_cast<unsigned long long>(e), corpus.size(),
                sample_size);
    pipeline.feed_version = e;
    auto t0_warm = std::chrono::steady_clock::now();
    auto epoch = warm.TrainPools(corpus, normal, pipeline);
    if (e == 0) row->epoch0_ms = MillisSince(t0_warm);
    if (!epoch.ok()) {
      std::fprintf(stderr, "corpus warm epoch failed: %s\n",
                   epoch.status().message().c_str());
      return false;
    }
    AppendCorpus(n / 50, distinct + distinct / 20, &rng, &corpus);
  }
  pipeline.feed_version = kWarmEpochs;
  std::chrono::steady_clock::time_point t0;

  train::IncrementalTrainerOptions cold_opts;
  cold_opts.data_dir = base + "/cold";
  train::IncrementalTrainer cold(cold_opts);
  std::printf("corpus N=%zu: cold epoch 1 (no carried state)...\n", n);
  t0 = std::chrono::steady_clock::now();
  auto scratch = cold.TrainPools(corpus, normal, pipeline);
  row->scratch_ms = MillisSince(t0);
  if (!scratch.ok()) {
    std::fprintf(stderr, "corpus cold epoch failed: %s\n",
                 scratch.status().message().c_str());
    return false;
  }

  std::printf("corpus N=%zu: incremental epoch 1 (warm cache + replay)...\n",
              n);
  t0 = std::chrono::steady_clock::now();
  auto incremental = warm.TrainPools(corpus, normal, pipeline);
  row->incremental_ms = MillisSince(t0);
  if (!incremental.ok()) {
    std::fprintf(stderr, "corpus incremental epoch failed: %s\n",
                 incremental.status().message().c_str());
    return false;
  }

  const train::EpochStats& epoch = warm.last_epoch();
  row->n = n;
  row->distinct = epoch.distinct;
  row->duplicates = epoch.duplicates;
  row->sample = epoch.sample_size;
  row->cache_pair_hits = epoch.tiles.cache_pair_hits;
  row->cache_pair_misses = epoch.tiles.cache_pair_misses;
  row->tiles_total = epoch.tiles.tiles_total;
  row->spill_bytes_written = epoch.tiles.spill_bytes_written;
  row->replayed_merges = epoch.cluster.replayed_merges;
  row->peak_rss_mb = PeakRssMb();
  row->bit_identical =
      incremental->signatures.Serialize() == scratch->signatures.Serialize() &&
      incremental->clusters == scratch->clusters;

  std::printf("corpus N=%zu: scratch %.1fms  incremental %.1fms (%.1fx)  "
              "dedup %llu->%llu  peak rss %.1f MB  bit_identical=%s\n\n",
              n, row->scratch_ms, row->incremental_ms,
              row->incremental_ms > 0 ? row->scratch_ms / row->incremental_ms
                                      : 0.0,
              static_cast<unsigned long long>(epoch.ingested),
              static_cast<unsigned long long>(epoch.distinct),
              row->peak_rss_mb, row->bit_identical ? "true" : "false");

  bool ok = true;
  if (args.selfcheck) {
    if (!row->bit_identical) {
      std::fprintf(stderr, "SELFCHECK FAILED: incremental feed != cold feed "
                           "at corpus N=%zu\n",
                   n);
      ok = false;
    }
    // And against the designated oracle: the in-memory parallel pipeline
    // path, no tiles, no cache, from-scratch clustering.
    auto oracle = warm.TrainPoolsFromScratch(corpus, normal, pipeline);
    if (!oracle.ok() ||
        oracle->signatures.Serialize() != incremental->signatures.Serialize()) {
      std::fprintf(stderr, "SELFCHECK FAILED: incremental feed != from-scratch "
                           "oracle at corpus N=%zu\n",
                   n);
      ok = false;
    }
    if (args.rss_ceiling_mb > 0 &&
        row->peak_rss_mb > static_cast<double>(args.rss_ceiling_mb)) {
      std::fprintf(stderr, "SELFCHECK FAILED: peak RSS %.1f MB exceeds "
                           "ceiling %zu MB at corpus N=%zu\n",
                   row->peak_rss_mb, args.rss_ceiling_mb, n);
      ok = false;
    }
  }
  return ok;
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

  std::vector<CorpusRow> corpus_rows;
  for (size_t n : args.corpus_sizes) {
    CorpusRow row;
    if (!RunCorpusSize(args, n, &row)) selfcheck_failed = true;
    if (row.n != 0) corpus_rows.push_back(row);
  }

  std::string json = "{\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"config\": {\"scale\": %.3f, \"seed\": %llu, "
                  "\"threads\": %u, \"compressor\": \"%s\", "
                  "\"cut_height\": %.2f, \"naive_max\": %zu, "
                  "\"corpus_sample\": %zu, \"corpus_distinct\": %zu, "
                  "\"rss_ceiling_mb\": %zu},\n",
                  args.scale,
                  static_cast<unsigned long long>(args.seed), args.threads,
                  args.compressor.c_str(), cut_height, args.naive_max,
                  args.corpus_sample, args.corpus_distinct,
                  args.rss_ceiling_mb);
    json += buf;
  }
  json += "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendRowJson(&json, rows[i], i + 1 == rows.size());
  }
  json += "  ],\n";
  json += "  \"corpus_results\": [\n";
  for (size_t i = 0; i < corpus_rows.size(); ++i) {
    AppendCorpusRowJson(&json, corpus_rows[i], i + 1 == corpus_rows.size());
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
