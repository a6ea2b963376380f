// Shared pieces of the end-to-end benchmark: command-line arguments, the
// generated input trace, clocks and resource probes, the result record every
// workload fills in, and the per-shard FIFO plan the verdict checks rely on.
#ifndef LEAKDET_PERFBENCH_COMMON_H_
#define LEAKDET_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/packet.h"
#include "core/payload_check.h"
#include "core/pipeline.h"
#include "io/feed_server.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 42;
  /// Length of the measured window.
  double seconds = 10;
  /// 0: end-to-end metrics, tracing off. 1: per-layer metrics from a traced
  /// run.
  bool trace = false;
  /// "full" is the benchmark; "self" is the seconds-long self-check size the
  /// benchmark's own tests run (smaller trace, fixed amount of work).
  std::string size = "full";
  /// Scratch root for data directories and span dumps (inside the checkout).
  std::string work_dir = ".bench_build/perfbench-work";

  bool self_check() const { return size == "self"; }
};

/// Trace scale: 0.3 gives ~32k packets, ~21% of them sensitive.
double TraceScale(const Args& args);

/// The generated load. The program under test only ever sees `packets` (and
/// the device tokens that build its payload check).
struct Inputs {
  std::unique_ptr<leakdet::core::PayloadCheck> oracle;
  std::vector<leakdet::core::HttpPacket> packets;
  /// PayloadCheck split of `packets`, order-preserving.
  std::vector<leakdet::core::HttpPacket> suspicious;
  std::vector<leakdet::core::HttpPacket> normal;
  /// Sum of PayloadCheck::IsSensitive time over the split (ns).
  uint64_t payload_check_ns = 0;
};

/// GenerateTrace at TraceScale(args) with args.seed, then the payload-check
/// split. Deterministic in (seed, size).
Inputs MakeInputs(const Args& args);

int64_t NowNs();              ///< steady clock
int64_t ProcessCpuNs();       ///< CPU time of the whole process
int64_t ThreadCpuNs();        ///< CPU time of the calling thread
double PeakRssMb();           ///< VmHWM
double Seconds(int64_t ns);

/// CPU placement of the load generator, which spins between packets: a
/// program thread that wakes on the spinning CPU waits for the spinner's
/// timeslice to end. ReserveGeneratorCpu() confines the calling thread, and
/// every thread it creates from then on, to all allowed CPUs but the last;
/// PinToGeneratorCpu() moves the calling thread onto that last CPU;
/// ReleaseGeneratorCpu() gives the calling thread every allowed CPU back.
/// No-ops when fewer than two CPUs are allowed.
void ReserveGeneratorCpu();
void PinToGeneratorCpu();
void ReleaseGeneratorCpu();

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Quantile q of each `slice_ns`-long slice of the timestamped `samples`
/// that holds at least `min_samples`, then the median over those slices:
/// a tail percentile a single stall cannot move. Falls back to the plain
/// quantile when no slice is full enough.
double SlicedQuantile(const std::vector<std::pair<int64_t, double>>& samples,
                      int64_t slice_ns, double q, size_t min_samples);

std::string Sha1Hex(const std::string& data);

/// Per shard, the trace indices routed to it, in submission order. With
/// device-id routing and FIFO shards, the k-th verdict a shard delivers is
/// for trace index plan[shard][k % plan[shard].size()] of round
/// k / plan[shard].size() — the identity every verdict check reconstructs
/// without any cross-thread bookkeeping.
using ShardPlan = std::vector<std::vector<uint32_t>>;
template <typename Gateway>
ShardPlan MakeShardPlan(const Gateway& gateway,
                        const std::vector<leakdet::core::HttpPacket>& packets) {
  ShardPlan plan(gateway.num_shards());
  for (size_t i = 0; i < packets.size(); ++i) {
    plan[gateway.shard_of(packets[i].app_id)].push_back(
        static_cast<uint32_t>(i));
  }
  return plan;
}

/// Retrain stage times and NCD cache counters (core::DistanceMatrixStats)
/// averaged over the epochs of a run.
class TrainingStats {
 public:
  void Add(const leakdet::core::DistanceMatrixStats& stats);
  /// Sets core.distance_ms, core.cluster_ms, core.siggen_ms and the
  /// compress.* metrics (per-epoch means; the hit rate over all probes).
  void Report(struct Result& r) const;

 private:
  uint64_t epochs_ = 0;
  uint64_t distance_ns_ = 0, cluster_ns_ = 0, siggen_ns_ = 0;
  uint64_t pair_hits_ = 0, pairs_computed_ = 0, singletons_ = 0;
};

/// The paper's server-side settings every workload trains with: N=300,
/// cut 2.0, LZW, seed 1, on `threads` distance-matrix workers.
leakdet::core::PipelineOptions TrainingOptions(unsigned threads);

/// One device-side feed fetch (Fig. 3b) with io::FetchFeed, which verifies
/// the payload against X-Feed-Digest.
struct FeedFetch {
  bool ok = false;
  uint64_t version = 0;
  std::string payload;
  int64_t fetch_ns = 0;
};
/// A loopback io::FeedServer serving one fixed (version, payload). Stopping
/// it waits out the accept loop's poll, so keep it out of timed regions.
class StaticFeed {
 public:
  StaticFeed(uint64_t version, std::string payload);
  ~StaticFeed();
  StaticFeed(const StaticFeed&) = delete;
  StaticFeed& operator=(const StaticFeed&) = delete;
  bool started() const { return started_; }
  FeedFetch Fetch() const;

 private:
  uint64_t version_;
  std::string payload_;
  std::unique_ptr<leakdet::io::FeedServer> server_;
  bool started_ = false;
};

/// A fresh directory under `root`, removed with everything in it on
/// destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// What one run reports: the contract's final JSON line plus the failed
/// checks, printed to stderr.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed output check.
  void Fail(const std::string& what);
  /// Fails unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  std::string Json() const;
};

/// The per-layer metric catalog (name -> unit). Every traced run reports all
/// of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// The end-to-end catalog, reported by every untraced run.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

}  // namespace perfbench

#endif  // LEAKDET_PERFBENCH_COMMON_H_
