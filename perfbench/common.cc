#include "common.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "crypto/sha1.h"
#include "sim/trafficgen.h"

namespace perfbench {

double TraceScale(const Args& args) { return args.self_check() ? 0.05 : 0.3; }

Inputs MakeInputs(const Args& args) {
  Inputs in;
  leakdet::sim::TrafficConfig config;
  config.seed = args.seed;
  config.scale = TraceScale(args);
  const leakdet::sim::Trace trace = leakdet::sim::GenerateTrace(config);
  in.packets = trace.RawPackets();
  in.oracle = std::make_unique<leakdet::core::PayloadCheck>(
      std::vector<leakdet::core::DeviceTokens>{trace.device.ToTokens()});
  // PayloadCheck::Split, one call at a time so the check's own cost is
  // measured where it happens.
  for (const leakdet::core::HttpPacket& packet : in.packets) {
    int64_t start = NowNs();
    bool sensitive = in.oracle->IsSensitive(packet);
    in.payload_check_ns += static_cast<uint64_t>(NowNs() - start);
    (sensitive ? in.suspicious : in.normal).push_back(packet);
  }
  return in;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

namespace {

cpu_set_t g_allowed_cpus;
int g_generator_cpu = -1;  // -1: nothing reserved

}  // namespace

void ReserveGeneratorCpu() {
  if (sched_getaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus) != 0 ||
      CPU_COUNT(&g_allowed_cpus) < 2) {
    return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &g_allowed_cpus)) {
      g_generator_cpu = cpu;
      break;
    }
  }
  cpu_set_t others = g_allowed_cpus;
  CPU_CLR(g_generator_cpu, &others);
  if (sched_setaffinity(0, sizeof(others), &others) != 0) g_generator_cpu = -1;
}

void PinToGeneratorCpu() {
  if (g_generator_cpu < 0) return;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(g_generator_cpu, &mine);
  sched_setaffinity(0, sizeof(mine), &mine);
}

void ReleaseGeneratorCpu() {
  if (g_generator_cpu < 0) return;
  sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double SlicedQuantile(const std::vector<std::pair<int64_t, double>>& samples,
                      int64_t slice_ns, double q, size_t min_samples) {
  if (samples.empty()) return 0;
  int64_t first = samples.front().first;
  for (const auto& sample : samples) first = std::min(first, sample.first);
  std::map<int64_t, std::vector<double>> slices;
  for (const auto& [at, value] : samples) {
    slices[(at - first) / slice_ns].push_back(value);
  }
  std::vector<double> per_slice;
  for (auto& [slice, values] : slices) {
    if (values.size() >= min_samples) {
      per_slice.push_back(Quantile(std::move(values), q));
    }
  }
  if (per_slice.empty()) {
    std::vector<double> all;
    for (const auto& sample : samples) all.push_back(sample.second);
    return Quantile(std::move(all), q);
  }
  return Median(std::move(per_slice));
}

std::string Sha1Hex(const std::string& data) {
  return leakdet::crypto::Sha1Hex(data);
}

leakdet::core::PipelineOptions TrainingOptions(unsigned threads) {
  leakdet::core::PipelineOptions options;
  options.sample_size = 300;
  options.cut_height = 2.0;
  options.compressor = "lzw";
  options.seed = 1;
  options.num_threads = threads;
  return options;
}

void TrainingStats::Add(const leakdet::core::DistanceMatrixStats& stats) {
  ++epochs_;
  distance_ns_ += stats.distance_build_ns;
  cluster_ns_ += stats.cluster_ns;
  siggen_ns_ += stats.siggen_ns;
  pair_hits_ += stats.ncd_pair_hits;
  pairs_computed_ += stats.ncd_pairs_computed;
  singletons_ += stats.singleton_compressions;
}

void TrainingStats::Report(Result& r) const {
  const double epochs = static_cast<double>(std::max<uint64_t>(1, epochs_));
  r.Set("core.distance_ms", static_cast<double>(distance_ns_) / 1e6 / epochs,
        "ms");
  r.Set("core.cluster_ms", static_cast<double>(cluster_ns_) / 1e6 / epochs,
        "ms");
  r.Set("core.siggen_ms", static_cast<double>(siggen_ns_) / 1e6 / epochs,
        "ms");
  const uint64_t probes = pair_hits_ + pairs_computed_;
  r.Set("compress.ncd_hit_rate",
        probes == 0 ? 0.0
                    : static_cast<double>(pair_hits_) /
                          static_cast<double>(probes),
        "ratio");
  r.Set("compress.ncd_pairs_computed",
        static_cast<double>(pairs_computed_) / epochs, "count");
  r.Set("compress.singleton_compressions",
        static_cast<double>(singletons_) / epochs, "count");
}

FeedFetch StaticFeed::Fetch() const {
  FeedFetch result;
  int64_t start = NowNs();
  auto fetched = leakdet::io::FetchFeed(server_->port());
  result.fetch_ns = NowNs() - start;
  if (!fetched.ok()) return result;
  result.ok = true;
  result.version = fetched->version;
  result.payload = std::move(fetched->payload);
  return result;
}

StaticFeed::StaticFeed(uint64_t version, std::string payload)
    : version_(version), payload_(std::move(payload)) {
  server_ = std::make_unique<leakdet::io::FeedServer>(
      [this] { return std::make_pair(version_, payload_); });
  started_ = server_->Start(0).ok();
}

StaticFeed::~StaticFeed() { server_->Stop(); }

ScratchDir::ScratchDir(const std::string& root, const std::string& tag) {
  static std::atomic<int> counter{0};
  std::filesystem::path dir =
      std::filesystem::path(root) /
      (tag + "-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  path_ = dir.string();
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

void Result::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

std::string Result::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value_unit] : metrics) {
    double value = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << value_unit.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"pkts_per_s", "pkt/s"},
      {"cpu_ns_per_pkt", "ns"},
      {"verdict_p50_us", "us"},
      {"epoch_ms_p50", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"gateway.submit_ns", "ns"},
      {"gateway.handoff_us", "us"},
      {"gateway.verdict_p90_us", "us"},
      {"gateway.verdict_p99_us", "us"},
      {"gateway.publish_us", "us"},
      {"gateway.swaps", "count"},
      {"gateway.dropped", "count"},
      {"gateway.swap_interval_ms", "ms"},
      {"gateway.trainer_shed_ratio", "ratio"},
      {"gateway.trainer_items_per_s", "1/s"},
      {"core.content_ns", "ns"},
      {"core.payload_check_ns", "ns"},
      {"core.ingest_us", "us"},
      {"core.retrain_ms", "ms"},
      {"core.distance_ms", "ms"},
      {"core.cluster_ms", "ms"},
      {"core.siggen_ms", "ms"},
      {"net.domain_ns", "ns"},
      {"prefilter.scan_ns", "ns"},
      {"prefilter.skip_ratio", "ratio"},
      {"prefilter.false_candidate_ratio", "ratio"},
      {"match.prefiltered_ns", "ns"},
      {"match.dfa_ns", "ns"},
      {"match.compile_ms", "ms"},
      {"match.table_mb", "MB"},
      {"match.states", "count"},
      {"match.signatures", "count"},
      {"compress.ncd_hit_rate", "ratio"},
      {"compress.ncd_pairs_computed", "count"},
      {"compress.singleton_compressions", "count"},
      {"store.append_us", "us"},
      {"store.snapshot_ms", "ms"},
      {"store.compact_ms", "ms"},
      {"store.wal_bytes_per_record", "B"},
      {"io.feed_fetch_ms", "ms"},
      {"io.feed_bytes", "B"},
      {"loadgen.late_ms_max", "ms"},
      {"loadgen.offered_pps", "pkt/s"},
      {"coverage_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
