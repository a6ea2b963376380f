// retrain_steady: training only, in lock-step. The benchmark thread is the
// training thread and performs gateway::TrainerLoop::Run's sequence through
// public calls: per record StoreManager::Append then SignatureServer::Ingest;
// the feed observer compiles a CompiledSignatureSet and publishes it to the
// gateway; a new version is snapshotted and compacted. Pools start full
// (SignatureServer::Restore), so the window measures the steady state of a
// long-running server. The window ends at an epoch boundary, so the final
// feed is a pure function of the seed and the number of records.
//
// Checks: the final feed's SHA-1 equals (a) a fresh SignatureServer after
// StoreManager::Recover on the run's data directory and (b) RunPipeline
// re-run on the final pools with the same (seed, feed_version); the feed a
// device fetches over io::FeedServer matches too.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "match/compiled_set.h"
#include "openloop.h"
#include "store/file.h"
#include "store/store_manager.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using leakdet::core::HttpPacket;
using leakdet::core::SignatureServer;

constexpr size_t kPrimeNormal = 20000;

SignatureServer::Options ServerOptions() {
  SignatureServer::Options options;
  options.retrain_after = 200;
  options.pipeline = TrainingOptions(2);
  return options;
}

leakdet::store::StoreOptions StoreOpts() {
  leakdet::store::StoreOptions options;
  options.wal.sync_policy = leakdet::store::SyncPolicy::kEveryN;
  options.wal.sync_every_n = 256;
  return options;
}

/// Pools full of the trace's own traffic: every suspicious packet and the
/// first kPrimeNormal normal ones.
SignatureServer::State PrimedState(const Inputs& in) {
  SignatureServer::State state;
  state.suspicious = in.suspicious;
  size_t normal = std::min(kPrimeNormal, in.normal.size());
  state.normal.assign(in.normal.begin(),
                      in.normal.begin() + static_cast<long>(normal));
  return state;
}

struct Stack {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<ScratchDir> data;
  std::unique_ptr<leakdet::store::StoreManager> store;
  std::unique_ptr<SignatureServer> server;
  std::unique_ptr<leakdet::gateway::DetectionGateway> gateway;
  std::shared_ptr<const leakdet::match::CompiledSignatureSet> last_epoch;
  std::map<uint64_t, std::string> feed_sha1;  ///< by version
  std::vector<int64_t> published_ns;
};

/// Trace, store, primed server (the priming persisted as a snapshot so
/// recovery reproduces it), gateway, and the publish observer.
std::unique_ptr<Stack> BuildStack(const Args& args, Tracer& tracer,
                                  Result& r) {
  auto stack = std::make_unique<Stack>();
  Stack& s = *stack;
  s.in = std::make_unique<Inputs>(MakeInputs(args));
  s.data = std::make_unique<ScratchDir>(args.work_dir, "retrain_steady");
  auto opened = leakdet::store::StoreManager::Open(
      leakdet::store::Dir::Real(), s.data->path(), StoreOpts());
  if (!opened.ok()) {
    r.Fail("StoreManager::Open: " + opened.status().ToString());
    return nullptr;
  }
  s.store = std::move(*opened);
  s.server = std::make_unique<SignatureServer>(s.in->oracle.get(),
                                               ServerOptions());
  leakdet::gateway::GatewayOptions gw;
  gw.num_shards = 2;
  s.gateway = std::make_unique<leakdet::gateway::DetectionGateway>(gw);
  Stack* raw = &s;
  s.server->SetFeedObserver([raw, &tracer](
                                uint64_t version,
                                const leakdet::match::SignatureSet& set) {
    std::shared_ptr<const leakdet::match::CompiledSignatureSet> compiled;
    {
      Span span(tracer, "match.compile", version);
      compiled =
          std::make_shared<const leakdet::match::CompiledSignatureSet>(set,
                                                                       version);
    }
    {
      Span span(tracer, "gateway.publish", version);
      raw->gateway->Publish(compiled);
    }
    raw->published_ns.push_back(NowNs());
    raw->last_epoch = std::move(compiled);
    Span span(tracer, "bench.digest", version);
    raw->feed_sha1[version] = Sha1Hex(set.Serialize());
  });
  s.server->Restore(PrimedState(*s.in));
  if (auto st = s.store->WriteSnapshot(*s.server); !st.ok()) {
    r.Fail("priming snapshot: " + st.ToString());
    return nullptr;
  }
  return stack;
}

}  // namespace

Result RunRetrainSteady(const Args& args, Tracer& tracer) {
  Result r;
  const int setups = args.self_check() ? 2 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < setups; ++rep) {
    stack.reset();
    int64_t start = NowNs();
    stack = BuildStack(args, tracer, r);
    if (stack == nullptr) return r;
    setup_s.push_back(Seconds(NowNs() - start));
  }
  Stack& s = *stack;
  SignatureServer& server = *s.server;
  leakdet::store::StoreManager& store = *s.store;
  const std::vector<HttpPacket>& packets = s.in->packets;
  const size_t n = packets.size();

  // The self-check runs a fixed number of epochs; the benchmark runs whole
  // epochs until --seconds have passed.
  const uint64_t fixed_epochs = args.self_check() ? 3 : 0;
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t give_up = start + static_cast<int64_t>(args.seconds * 4e9);
  const int64_t top_before = tracer.top_level_ns();
  std::vector<std::pair<int64_t, double>> record_us;
  std::vector<double> epoch_ms;
  uint64_t records = 0;
  uint64_t epochs = 0;
  uint64_t append_errors = 0, snapshot_errors = 0;
  TrainingStats training;
  for (size_t i = 0;; i = (i + 1) % n) {
    const HttpPacket& packet = packets[i];
    const int64_t record_start = NowNs();
    leakdet::store::FeedRecord record;
    record.feed_version = server.feed_version();
    record.packet = packet;
    {
      Span span(tracer, "store.append", records);
      if (!store.Append(std::move(record)).ok()) ++append_errors;
    }
    const uint64_t version_before = server.feed_version();
    bool retrained;
    {
      Span span(tracer, "core.ingest", records);
      retrained = server.Ingest(packet);
      if (retrained) span.Rename("core.retrain");
    }
    ++records;
    if (retrained && server.feed_version() == version_before + 1) {
      training.Add(server.last_distance_stats());
      {
        Span span(tracer, "store.snapshot", server.feed_version());
        if (!store.WriteSnapshot(server).ok()) ++snapshot_errors;
      }
      {
        Span span(tracer, "store.compact", server.feed_version());
        if (!store.Compact().ok()) ++snapshot_errors;
      }
      ++epochs;
      const int64_t now = NowNs();
      epoch_ms.push_back(static_cast<double>(now - record_start) / 1e6);
      record_us.emplace_back(record_start,
                             static_cast<double>(now - record_start) / 1e3);
      if (fixed_epochs != 0 ? epochs >= fixed_epochs : now >= deadline) break;
      continue;
    }
    const int64_t now = NowNs();
    record_us.emplace_back(record_start,
                             static_cast<double>(now - record_start) / 1e3);
    if (now >= give_up) {
      r.Fail("no epoch boundary within 4x --seconds");
      break;
    }
  }
  const int64_t end = NowNs();
  const int64_t cpu_end = ProcessCpuNs();
  const double covered =
      static_cast<double>(tracer.top_level_ns() - top_before);
  {
    Span span(tracer, "store.sync", 0);
    if (!store.Sync().ok()) r.Fail("final StoreManager::Sync failed");
  }
  r.attempted = records;
  r.failed = append_errors + snapshot_errors;
  r.Check(append_errors == 0, "WAL appends failed");
  r.Check(snapshot_errors == 0, "snapshots or compactions failed");

  // Output checks, all pure functions of (seed, records).
  const uint64_t final_version = server.feed_version();
  const std::string final_feed = server.Feed();
  const std::string final_sha1 = Sha1Hex(final_feed);
  std::fprintf(stderr, "retrain_steady: %llu records, %llu epochs, final "
               "feed v%llu sha1 %s\n",
               static_cast<unsigned long long>(records),
               static_cast<unsigned long long>(epochs),
               static_cast<unsigned long long>(final_version),
               final_sha1.c_str());
  r.Check(epochs > 0, "no epoch published");
  r.Check(s.feed_sha1[final_version] == final_sha1,
          "published feed differs from SignatureServer::Feed()");
  {
    leakdet::core::PipelineOptions options = server.options().pipeline;
    options.feed_version = final_version - 1;
    auto rerun = leakdet::core::RunPipeline(server.suspicious_pool(),
                                            server.normal_pool(), options);
    r.Check(rerun.ok() && Sha1Hex(rerun->signatures.Serialize()) == final_sha1,
            "RunPipeline re-run on the final pools gives another feed");
  }
  {
    // Recovery: close the store, reopen the directory into a fresh server.
    s.store.reset();
    auto reopened = leakdet::store::StoreManager::Open(
        leakdet::store::Dir::Real(), s.data->path(), StoreOpts());
    if (!reopened.ok()) {
      r.Fail("reopening the data directory: " + reopened.status().ToString());
    } else {
      SignatureServer fresh(s.in->oracle.get(), ServerOptions());
      std::map<uint64_t, std::string> recovered;
      fresh.SetFeedObserver(
          [&](uint64_t version, const leakdet::match::SignatureSet& set) {
            recovered[version] = Sha1Hex(set.Serialize());
          });
      auto stats = (*reopened)->Recover(&fresh);
      r.Check(stats.ok(), "StoreManager::Recover failed");
      r.Check(fresh.feed_version() == final_version &&
                  Sha1Hex(fresh.Feed()) == final_sha1,
              "recovered feed differs from the run's final feed");
      r.Check(fresh.suspicious_pool() == server.suspicious_pool() &&
                  fresh.normal_pool() == server.normal_pool(),
              "recovered pools differ from the run's final pools");
      for (const auto& [version, sha1] : recovered) {
        r.Check(s.feed_sha1[version] == sha1,
                "recovery republished version " + std::to_string(version) +
                    " with another feed");
      }
    }
  }
  StaticFeed served(final_version, final_feed);
  FeedFetch fetched;
  if (served.started()) {
    Span span(tracer, "io.fetch", final_version);
    fetched = served.Fetch();
  }
  r.Check(fetched.ok && fetched.version == final_version &&
              Sha1Hex(fetched.payload) == final_sha1,
          "feed fetched over io::FeedServer differs from the final feed");

  const double wall = Seconds(end - start);
  if (!args.trace) {
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("pkts_per_s", static_cast<double>(records) / wall, "pkt/s");
    r.Set("cpu_ns_per_pkt",
          static_cast<double>(cpu_end - cpu_start) /
              static_cast<double>(records),
          "ns");
    r.Set("verdict_p50_us", SlicedQuantile(record_us, kSliceNs, 0.50, 100),
          "us");
    r.Set("epoch_ms_p50", Quantile(epoch_ms, 0.50), "ms");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }

  std::vector<double> intervals;
  for (size_t k = 1; k < s.published_ns.size(); ++k) {
    intervals.push_back(
        static_cast<double>(s.published_ns[k] - s.published_ns[k - 1]) / 1e6);
  }
  const auto& compiled = *s.last_epoch;
  r.Set("gateway.publish_us", tracer.MeanSelfNs("gateway.publish") / 1e3,
        "us");
  r.Set("gateway.swaps", static_cast<double>(s.gateway->swaps()), "count");
  r.Set("gateway.dropped", static_cast<double>(s.gateway->dropped()), "count");
  r.Set("gateway.swap_interval_ms", Median(intervals), "ms");
  r.Set("gateway.trainer_items_per_s", static_cast<double>(records) / wall,
        "1/s");
  r.Set("core.payload_check_ns",
        static_cast<double>(s.in->payload_check_ns) / static_cast<double>(n),
        "ns");
  r.Set("core.ingest_us", tracer.MeanSelfNs("core.ingest") / 1e3, "us");
  r.Set("core.retrain_ms", tracer.MeanSelfNs("core.retrain") / 1e6, "ms");
  training.Report(r);
  r.Set("match.compile_ms", tracer.MeanSelfNs("match.compile") / 1e6, "ms");
  r.Set("match.table_mb", static_cast<double>(compiled.table_bytes()) / 1e6,
        "MB");
  r.Set("match.states", static_cast<double>(compiled.num_states()), "count");
  r.Set("match.signatures", static_cast<double>(compiled.num_signatures()),
        "count");
  r.Set("store.append_us", tracer.MeanSelfNs("store.append") / 1e3, "us");
  r.Set("store.snapshot_ms", tracer.MeanSelfNs("store.snapshot") / 1e6, "ms");
  r.Set("store.compact_ms", tracer.MeanSelfNs("store.compact") / 1e6, "ms");
  double framed_bytes = 0;
  const size_t framed = std::min<uint64_t>(records, n);
  for (size_t i = 0; i < framed; ++i) {
    leakdet::store::FeedRecord record;
    record.packet = packets[i];
    framed_bytes += static_cast<double>(leakdet::store::FrameRecord(record).size());
  }
  r.Set("store.wal_bytes_per_record",
        framed_bytes / static_cast<double>(framed), "B");
  r.Set("io.feed_fetch_ms", static_cast<double>(fetched.fetch_ns) / 1e6,
        "ms");
  r.Set("io.feed_bytes", static_cast<double>(fetched.payload.size()), "B");
  r.Set("coverage_ratio", covered / static_cast<double>(end - start), "ratio");
  r.Set("trace.overhead_ratio",
        static_cast<double>(tracer.spans()) * Tracer::CalibrateSpanNs() /
            static_cast<double>(end - start),
        "ratio");
  return r;
}

}  // namespace perfbench
