// live_loop: the full `leakdet serve` stack at once. A 2-shard gateway feeds
// a TrainerLoop (durable store, every-N WAL, forward_normal_every=8, one
// pipeline thread); the gateway's live epoch is served by an io::FeedServer
// that a device polls with io::FetchFeed every 100 ms. The load is an open
// loop at a fixed kRatePps: packet g is due at t0 + g / kRatePps, and every
// verdict is timed from its due time, so a stall shows as latency.
//
// Checks: every verdict equals core::Detector for its archived epoch
// (TrainerLoop::SetForVersion); submitted == processed, dropped == 0; every
// fetched feed matches the archived epoch's serialization; the backlog does
// not grow and the generator itself did not stall.
//
// Retrains are timed from outside through SignatureServer's public training
// hook, installed as a pass-through to core::RunPipeline; an epoch's time is
// retrain start -> first verdict matched under it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/pipeline.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "io/feed_server.h"
#include "obs/metrics.h"
#include "openloop.h"
#include "store/file.h"
#include "store/store_manager.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using leakdet::core::HttpPacket;
using leakdet::core::SignatureServer;
using leakdet::gateway::Verdict;

constexpr double kRatePps = kOpenLoopRatePps;
constexpr int64_t kPollNs = 100'000'000;
constexpr size_t kPrimeNormal = 20000;

struct VerdictRec {
  uint32_t version;
  uint32_t matches;
};

/// One shard's sink-side record, written only by that shard's worker.
struct alignas(64) LiveShard {
  uint64_t delivered = 0;
  uint64_t in_window = 0;
  uint64_t mailbox_accepted = 0;
  uint64_t last_version = 0;
  std::vector<VerdictRec> verdicts;
  std::vector<float> latency_us;  ///< due -> sink
  std::vector<int64_t> sink_ns;   ///< traced runs only (handoff)
  std::vector<std::pair<uint64_t, int64_t>> first_seen;  ///< (version, ns)
};

/// Schedule shared with the sink; written before the first Submit.
struct Schedule {
  int64_t t0 = 0;
  double period_ns = 1e9 / kRatePps;
  int64_t window_start = 0;
  int64_t window_end = 0;
  bool traced = false;
};

struct Retrain {
  uint64_t version;
  int64_t start_ns;
  int64_t end_ns;
  leakdet::core::DistanceMatrixStats stats;
};

struct Stack {
  ~Stack() {
    if (feed_server) feed_server->Stop();
    if (gateway) gateway->Stop();
    if (trainer) trainer->Stop();
  }

  std::unique_ptr<Inputs> in;
  std::unique_ptr<ScratchDir> data;
  leakdet::obs::Registry store_registry;
  std::unique_ptr<leakdet::store::StoreManager> store;
  std::unique_ptr<SignatureServer> server;
  std::unique_ptr<leakdet::gateway::DetectionGateway> gateway;
  std::unique_ptr<leakdet::gateway::TrainerLoop> trainer;
  std::unique_ptr<leakdet::io::FeedServer> feed_server;
  ShardPlan plan;
  std::vector<LiveShard> shards;
  Schedule schedule;
  std::mutex retrain_mu;
  std::vector<Retrain> retrains;  ///< guarded by retrain_mu
};

std::unique_ptr<Stack> BuildStack(const Args& args, Result& r) {
  auto stack = std::make_unique<Stack>();
  Stack& s = *stack;
  s.in = std::make_unique<Inputs>(MakeInputs(args));
  s.data = std::make_unique<ScratchDir>(args.work_dir, "live_loop");
  leakdet::store::StoreOptions store_options;
  store_options.wal.sync_policy = leakdet::store::SyncPolicy::kEveryN;
  store_options.wal.sync_every_n = 256;
  store_options.registry = &s.store_registry;
  auto opened = leakdet::store::StoreManager::Open(
      leakdet::store::Dir::Real(), s.data->path(), store_options);
  if (!opened.ok()) {
    r.Fail("StoreManager::Open: " + opened.status().ToString());
    return nullptr;
  }
  s.store = std::move(*opened);

  SignatureServer::Options server_options;
  server_options.retrain_after = 200;
  server_options.pipeline = TrainingOptions(1);
  s.server = std::make_unique<SignatureServer>(s.in->oracle.get(),
                                               server_options);
  Stack* raw = &s;
  s.server->SetTrainingBackend(
      [raw](const std::vector<HttpPacket>& suspicious,
            const std::vector<HttpPacket>& normal,
            const leakdet::core::PipelineOptions& options) {
        int64_t start = NowNs();
        auto result = leakdet::core::RunPipeline(suspicious, normal, options);
        int64_t end = NowNs();
        std::lock_guard<std::mutex> lock(raw->retrain_mu);
        raw->retrains.push_back(
            Retrain{options.feed_version + 1, start, end,
                    result.ok() ? result->distance_stats
                                : leakdet::core::DistanceMatrixStats{}});
        return result;
      });
  // Primed like retrain_steady: the steady state of a long-running server.
  SignatureServer::State state;
  state.suspicious = s.in->suspicious;
  state.normal.assign(
      s.in->normal.begin(),
      s.in->normal.begin() +
          static_cast<long>(std::min(kPrimeNormal, s.in->normal.size())));
  s.server->Restore(std::move(state));
  if (auto st = s.store->WriteSnapshot(*s.server); !st.ok()) {
    r.Fail("priming snapshot: " + st.ToString());
    return nullptr;
  }

  leakdet::gateway::GatewayOptions gw;
  gw.num_shards = 2;
  gw.queue_capacity = 4096;
  gw.pop_batch = 64;
  gw.overload = leakdet::gateway::OverloadPolicy::kBlock;
  s.gateway = std::make_unique<leakdet::gateway::DetectionGateway>(gw);
  leakdet::gateway::TrainerOptions trainer_options;
  trainer_options.forward_normal_every = 8;
  trainer_options.store = s.store.get();
  s.trainer = std::make_unique<leakdet::gateway::TrainerLoop>(
      s.server.get(), s.gateway.get(), trainer_options);

  s.plan = MakeShardPlan(*s.gateway, s.in->packets);
  s.shards = std::vector<LiveShard>(s.plan.size());
  const size_t n = s.in->packets.size();
  s.gateway->set_sink([raw, n](const HttpPacket& packet,
                               const Verdict& verdict) {
    LiveShard& shard = raw->shards[verdict.shard];
    const Schedule& sched = raw->schedule;
    const int64_t now = NowNs();
    const std::vector<uint32_t>& order = raw->plan[verdict.shard];
    const uint64_t k = shard.delivered++;
    const uint64_t g = (k / order.size()) * n + order[k % order.size()];
    const int64_t due = DueNs(sched.t0, sched.period_ns, g);
    shard.verdicts.push_back(
        VerdictRec{static_cast<uint32_t>(verdict.feed_version),
                   verdict.sensitive ? verdict.num_matches : 0});
    shard.latency_us.push_back(static_cast<float>(now - due) / 1e3f);
    if (sched.traced) shard.sink_ns.push_back(now);
    if (verdict.feed_version != shard.last_version) {
      shard.first_seen.emplace_back(verdict.feed_version, now);
      shard.last_version = verdict.feed_version;
    }
    if (now >= sched.window_start && now < sched.window_end) {
      ++shard.in_window;
    }
    if (raw->trainer->Offer(packet, verdict)) ++shard.mailbox_accepted;
  });
  leakdet::gateway::DetectionGateway* gateway = s.gateway.get();
  s.feed_server = std::make_unique<leakdet::io::FeedServer>([gateway] {
    auto set = gateway->current_set();
    if (set == nullptr) return std::make_pair(uint64_t{0}, std::string());
    return std::make_pair(set->version(), set->set().Serialize());
  });
  if (!s.gateway->Start().ok() || !s.trainer->Start().ok() ||
      !s.feed_server->Start(0).ok()) {
    r.Fail("serve stack did not start");
    return nullptr;
  }
  return stack;
}

struct Fetch {
  bool ok;
  uint64_t version;
  std::string sha1;
  size_t bytes;
  int64_t fetch_ns;
};

double HistogramMeanMs(leakdet::obs::Histogram* histogram) {
  auto snap = histogram->Take();
  return snap.count == 0 ? 0.0
                         : static_cast<double>(snap.sum) /
                               static_cast<double>(snap.count) / 1e6;
}

}  // namespace

Result RunLiveLoop(const Args& args, Tracer& tracer) {
  Result r;
  const int setups = args.self_check() ? 2 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < setups; ++rep) {
    stack.reset();
    int64_t start = NowNs();
    stack = BuildStack(args, r);
    if (stack == nullptr) return r;
    setup_s.push_back(Seconds(NowNs() - start));
  }
  Stack& s = *stack;
  const std::vector<HttpPacket>& packets = s.in->packets;
  const size_t n = packets.size();
  leakdet::gateway::DetectionGateway& gateway = *s.gateway;
  leakdet::gateway::TrainerLoop& trainer = *s.trainer;

  const double warm_s = args.self_check() ? 0.5 : 1.0;
  const uint64_t window_first =
      static_cast<uint64_t>(warm_s * kRatePps);  // first packet due in window
  const uint64_t total =
      static_cast<uint64_t>((warm_s + args.seconds) * kRatePps);
  const size_t expected = total / s.plan.size() + total / 8;
  std::vector<std::vector<int64_t>> return_ns(s.plan.size());
  for (size_t shard = 0; shard < s.plan.size(); ++shard) {
    LiveShard& ls = s.shards[shard];
    ls.verdicts.reserve(expected);
    ls.latency_us.reserve(expected);
    if (args.trace) {
      ls.sink_ns.reserve(expected);
      return_ns[shard].reserve(expected);
    }
  }
  std::vector<uint32_t> shard_of(n);
  for (size_t shard = 0; shard < s.plan.size(); ++shard) {
    for (uint32_t idx : s.plan[shard]) {
      shard_of[idx] = static_cast<uint32_t>(shard);
    }
  }

  // The device: polls the feed server every kPollNs.
  std::atomic<bool> polling{true};
  std::vector<Fetch> fetches;
  const uint16_t port = s.feed_server->port();
  std::thread poller([&] {
    int64_t next = NowNs();
    while (polling.load()) {
      int64_t start = NowNs();
      auto fetched = leakdet::io::FetchFeed(port);
      int64_t end = NowNs();
      fetches.push_back(Fetch{fetched.ok(), fetched.ok() ? fetched->version : 0,
                              fetched.ok() ? Sha1Hex(fetched->payload) : "",
                              fetched.ok() ? fetched->payload.size() : 0,
                              end - start});
      next += kPollNs;
      while (polling.load() && NowNs() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  });

  Schedule& sched = s.schedule;
  sched.traced = args.trace;
  sched.t0 = NowNs() + 1'000'000;
  sched.window_start = sched.t0 + static_cast<int64_t>(warm_s * 1e9);
  sched.window_end =
      sched.window_start + static_cast<int64_t>(args.seconds * 1e9);
  const double period = sched.period_ns;

  int64_t cpu_start = 0;
  int64_t generator_cpu_start = 0;
  uint64_t items_start = 0;
  bool refused = false;
  // The generator sleeps between packets and leaves every CPU to the
  // program: reserving one for a spinning generator left the trainer and
  // two shards three CPUs, and whole runs' p50 then moved by 1.6x.
  const OpenLoopStats open = RunOpenLoop(
      sched.t0, period, total, window_first, /*spin=*/false, tracer,
      [&](uint64_t g) {
        const size_t i = g % n;
        bool accepted;
        {
          Span span(tracer, "gateway.submit", g);
          accepted = gateway.Submit(packets[i].app_id, packets[i]);
        }
        if (args.trace) return_ns[shard_of[i]].push_back(NowNs());
        if (!accepted) refused = true;
      },
      [&] {
        cpu_start = ProcessCpuNs();
        generator_cpu_start = ThreadCpuNs();
        items_start = trainer.items_processed();
      });
  const double late_ms_max = open.late_ms_max;
  const int64_t first_submit = open.first_window_submit_ns;
  // The program's CPU: the process minus this thread, the load generator.
  const int64_t cpu_end = ProcessCpuNs() - (ThreadCpuNs() - generator_cpu_start);
  const uint64_t items_end = trainer.items_processed();
  const int64_t producer_end = NowNs();
  const double covered = static_cast<double>(tracer.top_level_ns());

  // Drain: every submitted packet must get its verdict promptly.
  const int64_t drain_deadline = NowNs() + 5'000'000'000LL;
  while (gateway.processed() < total && NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double drain_ms = static_cast<double>(NowNs() - producer_end) / 1e6;
  polling.store(false);
  poller.join();
  const uint64_t drops = trainer.training_drops();
  s.feed_server->Stop();
  gateway.Stop();
  trainer.Stop();

  // Conservation and backlog.
  uint64_t delivered = 0, in_window = 0, mailbox_accepted = 0;
  for (const LiveShard& ls : s.shards) {
    delivered += ls.delivered;
    in_window += ls.in_window;
    mailbox_accepted += ls.mailbox_accepted;
  }
  r.attempted = total - window_first;
  r.Check(!refused, "gateway refused a packet under kBlock");
  r.Check(gateway.submitted() == total && gateway.processed() == total &&
              delivered == total && gateway.dropped() == 0,
          "conservation: submitted " + std::to_string(gateway.submitted()) +
              ", processed " + std::to_string(gateway.processed()) +
              ", delivered " + std::to_string(delivered) + " of " +
              std::to_string(total) + ", dropped " +
              std::to_string(gateway.dropped()));
  const double offered_in_window = args.seconds * kRatePps;
  r.Check(static_cast<double>(in_window) >= 0.98 * offered_in_window &&
              drain_ms < 1000,
          "backlog grew: " + std::to_string(in_window) + " verdicts in the "
          "window for " + std::to_string(offered_in_window) +
          " offered, drain took " + std::to_string(drain_ms) + " ms");
  r.Check(late_ms_max <= kMaxGeneratorLateMs,
          "the generator stalled for " + std::to_string(late_ms_max) + " ms");

  // Every verdict against the Detector for its archived epoch, one checker
  // per shard with its own per-version memo.
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> missing{0};
  {
    std::vector<std::thread> checkers;
    for (size_t shard = 0; shard < s.plan.size(); ++shard) {
      checkers.emplace_back([&, shard] {
        const std::vector<uint32_t>& order = s.plan[shard];
        std::map<uint64_t, std::unique_ptr<leakdet::core::Detector>> detectors;
        std::map<uint64_t, std::vector<int32_t>> memo;
        const std::vector<VerdictRec>& got = s.shards[shard].verdicts;
        for (size_t k = 0; k < got.size(); ++k) {
          const uint32_t idx = order[k % order.size()];
          const uint64_t version = got[k].version;
          std::vector<int32_t>& m = memo[version];
          if (m.empty()) m.assign(n, -1);
          if (m[idx] < 0) {
            auto it = detectors.find(version);
            if (it == detectors.end()) {
              leakdet::match::SignatureSet set;
              if (version != 0) {
                auto archived = trainer.SetForVersion(version);
                if (archived == nullptr) {
                  missing.fetch_add(1);
                  return;
                }
                set = archived->set();
              }
              it = detectors
                       .emplace(version,
                                std::make_unique<leakdet::core::Detector>(
                                    std::move(set)))
                       .first;
            }
            m[idx] = static_cast<int32_t>(
                it->second->MatchedSignatureIds(packets[idx]).size());
          }
          if (static_cast<uint32_t>(m[idx]) != got[k].matches) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }
  r.failed = mismatches.load();
  r.Check(missing.load() == 0, "a verdict names an epoch that was never "
                               "archived");
  r.Check(mismatches.load() == 0,
          std::to_string(mismatches.load()) +
              " verdicts differ from core::Detector for their epoch");

  // Every fetched feed is the archived epoch's serialization.
  std::map<uint64_t, std::string> archived_sha1;
  uint64_t fetch_failures = 0, fetch_mismatches = 0;
  std::vector<double> fetch_ms;
  double fetch_bytes = 0;
  for (const Fetch& f : fetches) {
    if (!f.ok) {
      ++fetch_failures;
      continue;
    }
    fetch_ms.push_back(static_cast<double>(f.fetch_ns) / 1e6);
    fetch_bytes += static_cast<double>(f.bytes);
    auto it = archived_sha1.find(f.version);
    if (it == archived_sha1.end()) {
      std::string expected = Sha1Hex("");
      if (f.version != 0) {
        auto archived = trainer.SetForVersion(f.version);
        expected = archived == nullptr ? std::string("missing")
                                       : Sha1Hex(archived->set().Serialize());
      }
      it = archived_sha1.emplace(f.version, expected).first;
    }
    if (it->second != f.sha1) ++fetch_mismatches;
  }
  r.Check(!fetches.empty() && fetch_failures == 0,
          std::to_string(fetch_failures) + " feed fetches failed");
  r.Check(fetch_mismatches == 0,
          std::to_string(fetch_mismatches) +
              " fetched feeds differ from their archived epoch");

  // Epoch freshness: retrain start -> first verdict under that epoch (or a
  // later one) on any shard.
  std::vector<std::pair<uint64_t, int64_t>> live;  // (version, first seen)
  for (const LiveShard& ls : s.shards) {
    live.insert(live.end(), ls.first_seen.begin(), ls.first_seen.end());
  }
  std::sort(live.begin(), live.end());
  auto live_at = [&](uint64_t version) -> int64_t {
    int64_t best = -1;
    for (const auto& [v, t] : live) {
      if (v >= version && (best < 0 || t < best)) best = t;
    }
    return best;
  };
  std::vector<double> epoch_ms;
  std::vector<double> retrain_ms;
  TrainingStats training;
  std::vector<int64_t> live_times;
  for (const Retrain& rt : s.retrains) {
    if (rt.start_ns < sched.window_start || rt.start_ns >= sched.window_end) {
      continue;
    }
    retrain_ms.push_back(static_cast<double>(rt.end_ns - rt.start_ns) / 1e6);
    training.Add(rt.stats);
    int64_t seen = live_at(rt.version);
    if (seen >= 0) {
      epoch_ms.push_back(static_cast<double>(seen - rt.start_ns) / 1e6);
      live_times.push_back(seen);
    }
  }
  r.Check(!epoch_ms.empty(), "no epoch went live in the measured window");
  std::fprintf(stderr,
               "live_loop: %llu packets, %zu epochs live in window, "
               "%zu fetches, late max %.3f ms, drain %.1f ms\n",
               static_cast<unsigned long long>(total), epoch_ms.size(),
               fetches.size(), late_ms_max, drain_ms);

  // Latency of the packets due in the window; the delivery rate is those
  // verdicts over the time from the window's start to the last of them.
  std::vector<std::pair<int64_t, double>> latency;
  int64_t last_verdict = sched.window_start;
  for (size_t shard = 0; shard < s.plan.size(); ++shard) {
    const LiveShard& ls = s.shards[shard];
    const std::vector<uint32_t>& order = s.plan[shard];
    for (size_t k = 0; k < ls.latency_us.size(); ++k) {
      const uint64_t g = (k / order.size()) * n + order[k % order.size()];
      if (g < window_first) continue;
      const int64_t due = DueNs(sched.t0, period, g);
      latency.emplace_back(due, ls.latency_us[k]);
      last_verdict = std::max(
          last_verdict, due + static_cast<int64_t>(ls.latency_us[k] * 1e3));
    }
  }

  if (!args.trace) {
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("pkts_per_s",
          static_cast<double>(latency.size()) /
              Seconds(last_verdict - sched.window_start),
          "pkt/s");
    r.Set("cpu_ns_per_pkt",
          static_cast<double>(cpu_end - cpu_start) /
              static_cast<double>(total - window_first),
          "ns");
    r.Set("verdict_p50_us", SlicedQuantile(latency, kSliceNs, 0.50, 100),
          "us");
    r.Set("epoch_ms_p50", Quantile(epoch_ms, 0.50), "ms");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }

  std::vector<double> handoff_us;
  for (size_t shard = 0; shard < s.plan.size(); ++shard) {
    const LiveShard& ls = s.shards[shard];
    const std::vector<uint32_t>& order = s.plan[shard];
    const size_t count = std::min(ls.sink_ns.size(), return_ns[shard].size());
    for (size_t k = 0; k < count; ++k) {
      const uint64_t g = (k / order.size()) * n + order[k % order.size()];
      if (g >= window_first) {
        handoff_us.push_back(
            static_cast<double>(ls.sink_ns[k] - return_ns[shard][k]) / 1e3);
      }
    }
  }
  std::sort(live_times.begin(), live_times.end());
  std::vector<double> intervals;
  for (size_t k = 1; k < live_times.size(); ++k) {
    intervals.push_back(
        static_cast<double>(live_times[k] - live_times[k - 1]) / 1e6);
  }
  const double window_wall = Seconds(producer_end - first_submit);
  auto current = gateway.current_set();
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  leakdet::obs::Registry* gw_metrics = gateway.metrics();
  r.Set("gateway.submit_ns", tracer.MeanSelfNs("gateway.submit"), "ns");
  r.Set("gateway.handoff_us", Median(handoff_us), "us");
  r.Set("gateway.verdict_p90_us", SlicedQuantile(latency, kSliceNs, 0.90, 100),
        "us");
  r.Set("gateway.verdict_p99_us", SlicedQuantile(latency, kSliceNs, 0.99, 100),
        "us");
  r.Set("gateway.swaps", static_cast<double>(gateway.swaps()), "count");
  r.Set("gateway.dropped", static_cast<double>(gateway.dropped()), "count");
  r.Set("gateway.swap_interval_ms", Median(intervals), "ms");
  r.Set("gateway.trainer_shed_ratio",
        static_cast<double>(drops) /
            static_cast<double>(std::max<uint64_t>(1, mailbox_accepted + drops)),
        "ratio");
  r.Set("gateway.trainer_items_per_s",
        static_cast<double>(items_end - items_start) / window_wall, "1/s");
  r.Set("core.payload_check_ns",
        static_cast<double>(s.in->payload_check_ns) / static_cast<double>(n),
        "ns");
  r.Set("core.retrain_ms", mean(retrain_ms), "ms");
  training.Report(r);
  r.Set("match.compile_ms",
        HistogramMeanMs(gw_metrics->GetHistogram("trainer.compile_ns")), "ms");
  if (current != nullptr) {
    r.Set("match.table_mb", static_cast<double>(current->table_bytes()) / 1e6,
          "MB");
    r.Set("match.states", static_cast<double>(current->num_states()), "count");
    r.Set("match.signatures", static_cast<double>(current->num_signatures()),
          "count");
  }
  r.Set("store.append_us",
        HistogramMeanMs(s.store_registry.GetHistogram("store.wal_append_ns")) *
            1e3,
        "us");
  r.Set("store.snapshot_ms",
        HistogramMeanMs(
            s.store_registry.GetHistogram("store.snapshot_write_ns")),
        "ms");
  r.Set("io.feed_fetch_ms", Median(fetch_ms), "ms");
  r.Set("io.feed_bytes",
        fetch_ms.empty() ? 0.0
                         : fetch_bytes / static_cast<double>(fetch_ms.size()),
        "B");
  r.Set("loadgen.late_ms_max", late_ms_max, "ms");
  r.Set("loadgen.offered_pps",
        static_cast<double>(open.window_submits - 1) /
            Seconds(open.last_window_submit_ns - open.first_window_submit_ns),
        "pkt/s");
  r.Set("coverage_ratio",
        covered / static_cast<double>(producer_end - sched.t0), "ratio");
  r.Set("trace.overhead_ratio",
        static_cast<double>(tracer.spans()) * Tracer::CalibrateSpanNs() /
            static_cast<double>(producer_end - sched.t0),
        "ratio");
  return r;
}

}  // namespace perfbench
