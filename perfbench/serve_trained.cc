// serve_trained: matching only. Setup trains one feed with core::RunPipeline,
// serves it to a device over io::FeedServer, compiles the fetched feed and
// publishes it once to a 2-shard gateway. One producer then replays the trace
// in a closed loop through backpressure. Every verdict is checked against
// core::Detector on the same feed.
//
// Most of the window is the closed loop (throughput, read in half-second
// slices); the rest is an open loop at kOpenLoopRatePps whose verdicts give
// the latency percentiles, timed from each packet's due time. The rate is
// live_loop's, so the two differ only by training's interference. Before the
// window, a series of retrains on the same pools gives the epoch cost.
//
// Traced run: half the window drives the gateway with a span per Submit and
// the open loop's Submit-return -> sink handoffs; the other half is a layer
// replay on the benchmark thread that times each public call a shard makes
// per packet (PacketContent, RegistrableDomain, Prefilter::Scan,
// MatchIntoPrefiltered) plus the plain DFA, once untraced and once traced
// (the tracing overhead).
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/pipeline.h"
#include "gateway/gateway.h"
#include "match/compiled_set.h"
#include "net/host.h"
#include "openloop.h"
#include "prefilter/prefilter.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using leakdet::core::HttpPacket;
using leakdet::gateway::DetectionGateway;
using leakdet::gateway::Verdict;
using leakdet::match::CompiledSignatureSet;

/// One shard's verdict bookkeeping, touched only by that shard's worker
/// while the gateway runs.
struct alignas(64) ShardSink {
  uint64_t delivered = 0;
  uint64_t mismatches = 0;
  /// First verdict index of the open-loop phase.
  uint64_t open_from = UINT64_MAX;
  std::vector<int64_t> sink_ns;  ///< open-loop sink times, by k - open_from
};

/// Producer-side counterpart of ShardSink.
struct ShardSource {
  uint64_t submitted = 0;
  std::vector<int64_t> due_ns;     ///< open-loop due times
  std::vector<int64_t> return_ns;  ///< open-loop Submit return times
};

struct Setup {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<StaticFeed> feed;
  std::shared_ptr<const CompiledSignatureSet> compiled;
  std::unique_ptr<DetectionGateway> gateway;
  std::string feed_sha1;
  size_t feed_bytes = 0;
  int64_t fetch_ns = 0;
};

/// Trace -> train -> serve and fetch -> compile -> publish into a fresh
/// gateway.
bool BuildSetup(const Args& args, Tracer& tracer, Result& r, Setup* out) {
  Setup s;
  s.in = std::make_unique<Inputs>(MakeInputs(args));
  leakdet::StatusOr<leakdet::core::PipelineResult> trained = [&] {
    Span span(tracer, "core.retrain", 1);
    return leakdet::core::RunPipeline(s.in->suspicious, s.in->normal,
                                      TrainingOptions(2));
  }();
  if (!trained.ok()) {
    r.Fail("RunPipeline: " + trained.status().ToString());
    return false;
  }
  std::string feed = trained->signatures.Serialize();
  s.feed_sha1 = Sha1Hex(feed);
  s.feed = std::make_unique<StaticFeed>(1, feed);
  FeedFetch fetched;
  if (s.feed->started()) {
    Span span(tracer, "io.fetch", 1);
    fetched = s.feed->Fetch();
  }
  if (!fetched.ok || fetched.version != 1 || fetched.payload != feed) {
    r.Fail("feed fetched from io::FeedServer differs from the trained feed");
    return false;
  }
  s.feed_bytes = fetched.payload.size();
  s.fetch_ns = fetched.fetch_ns;
  auto parsed = leakdet::match::SignatureSet::Deserialize(fetched.payload);
  if (!parsed.ok()) {
    r.Fail("fetched feed does not parse: " + parsed.status().ToString());
    return false;
  }
  {
    Span span(tracer, "match.compile", 1);
    s.compiled =
        std::make_shared<const CompiledSignatureSet>(std::move(*parsed), 1);
  }
  leakdet::gateway::GatewayOptions options;
  options.num_shards = 2;
  options.queue_capacity = 4096;
  options.pop_batch = 64;
  options.overload = leakdet::gateway::OverloadPolicy::kBlock;
  s.gateway = std::make_unique<DetectionGateway>(options);
  {
    Span span(tracer, "gateway.publish", 1);
    if (!s.gateway->Publish(s.compiled)) {
      r.Fail("gateway rejected the trained epoch");
      return false;
    }
  }
  *out = std::move(s);
  return true;
}

}  // namespace

Result RunServeTrained(const Args& args, Tracer& tracer) {
  Result r;
  ReserveGeneratorCpu();
  const int setups = args.self_check() ? 2 : 5;
  std::vector<double> setup_s;
  std::vector<double> epoch_ms;
  Setup s;
  for (int rep = 0; rep < setups; ++rep) {
    s.gateway.reset();
    int64_t start = NowNs();
    Setup next;
    if (!BuildSetup(args, tracer, r, &next)) return r;
    setup_s.push_back(Seconds(NowNs() - start));
    if (rep > 0 && next.feed_sha1 != s.feed_sha1) {
      r.Fail("two setups from one seed trained different feeds");
    }
    s = std::move(next);
  }
  const std::vector<HttpPacket>& packets = s.in->packets;
  const size_t n = packets.size();

  // Epoch cost on this trace: the retrains a server would run on these
  // pools (feed versions 1..epochs draw different samples), each compiled
  // and published into a scratch gateway. Outside the measured window.
  TrainingStats training;
  {
    const int epochs = args.self_check() ? 2 : 12;
    DetectionGateway scratch_gateway(leakdet::gateway::GatewayOptions{});
    for (int v = 1; v <= epochs; ++v) {
      const int64_t start = NowNs();
      leakdet::core::PipelineOptions options = TrainingOptions(2);
      options.feed_version = static_cast<uint64_t>(v);
      leakdet::StatusOr<leakdet::core::PipelineResult> trained = [&] {
        Span span(tracer, "core.retrain", v);
        return leakdet::core::RunPipeline(s.in->suspicious, s.in->normal,
                                          options);
      }();
      if (!trained.ok()) {
        r.Fail("RunPipeline: " + trained.status().ToString());
        return r;
      }
      training.Add(trained->distance_stats);
      std::shared_ptr<const CompiledSignatureSet> epoch;
      {
        Span span(tracer, "match.compile", v);
        epoch = std::make_shared<const CompiledSignatureSet>(
            std::move(trained->signatures), static_cast<uint64_t>(v + 1));
      }
      {
        Span span(tracer, "gateway.publish", v);
        r.Check(scratch_gateway.Publish(std::move(epoch)),
                "gateway rejected epoch " + std::to_string(v + 1));
      }
      epoch_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
  }
  DetectionGateway& gateway = *s.gateway;
  const CompiledSignatureSet& compiled = *s.compiled;

  // Oracle: the single-threaded Detector on the same feed, per trace packet.
  std::vector<uint8_t> expect_sensitive(n);
  std::vector<uint32_t> expect_matches(n);
  {
    leakdet::core::Detector detector(compiled.set());
    for (size_t i = 0; i < n; ++i) {
      expect_matches[i] = static_cast<uint32_t>(
          detector.MatchedSignatureIds(packets[i]).size());
      expect_sensitive[i] = detector.IsSensitive(packets[i]) ? 1 : 0;
    }
  }

  // Producer and sinks follow one global order: trace index g % n for the
  // g-th Submit. Per shard, the k-th verdict is for plan[shard][k % size].
  const ShardPlan plan = MakeShardPlan(gateway, packets);
  std::vector<uint32_t> shard_of(n);
  for (size_t shard = 0; shard < plan.size(); ++shard) {
    for (uint32_t idx : plan[shard]) shard_of[idx] = static_cast<uint32_t>(shard);
  }
  std::vector<ShardSink> sinks(plan.size());
  std::vector<ShardSource> sources(plan.size());
  gateway.set_sink([&](const HttpPacket&, const Verdict& verdict) {
    ShardSink& sink = sinks[verdict.shard];
    const std::vector<uint32_t>& order = plan[verdict.shard];
    uint32_t idx = order[sink.delivered % order.size()];
    if (verdict.feed_version != 1 ||
        verdict.sensitive != (expect_sensitive[idx] != 0) ||
        verdict.num_matches != expect_matches[idx]) {
      ++sink.mismatches;
    }
    // open_from is written by the producer only while every shard is idle
    // (after a drain), before the Submit whose pop orders it before here.
    if (sink.delivered >= sink.open_from) sink.sink_ns.push_back(NowNs());
    ++sink.delivered;
  });
  if (!gateway.Start().ok()) {
    r.Fail("gateway did not start");
    return r;
  }

  uint64_t submitted = 0;
  auto submit = [&](uint64_t g) {
    const size_t i = g % n;
    bool accepted;
    {
      Span span(tracer, "gateway.submit", g);
      accepted = gateway.Submit(packets[i].app_id, packets[i]);
    }
    if (!accepted) r.Fail("gateway refused a packet under kBlock");
    ++sources[shard_of[i]].submitted;
    ++submitted;
  };
  auto drain = [&] {
    while (gateway.processed() < submitted) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  // Untimed warm-up round. This thread is the producer from here on.
  PinToGeneratorCpu();
  for (size_t i = 0; i < n; ++i) submit(submitted);
  drain();

  // Throughput window: closed loop through backpressure, read in slices.
  // The latency phase and (traced) the layer replay share the window.
  const double closed_seconds = args.seconds * (args.trace ? 0.35 : 0.7);
  const double open_seconds = args.seconds * (args.trace ? 0.15 : 0.3);
  const int64_t slice_ns = 500'000'000;
  std::vector<double> slice_pps;
  std::vector<double> slice_cpu_ns;
  const uint64_t before = submitted;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(closed_seconds * 1e9);
  int64_t slice_start = start;
  int64_t slice_cpu = ProcessCpuNs();
  uint64_t slice_base = submitted;
  while (true) {
    submit(submitted);
    if ((submitted & 255) != 0) continue;
    const int64_t now = NowNs();
    if (now - slice_start >= slice_ns || now >= deadline) {
      const int64_t cpu = ProcessCpuNs();
      const double count = static_cast<double>(submitted - slice_base);
      slice_pps.push_back(count / Seconds(now - slice_start));
      slice_cpu_ns.push_back(static_cast<double>(cpu - slice_cpu) / count);
      slice_start = now;
      slice_cpu = cpu;
      slice_base = submitted;
    }
    if (now >= deadline) break;
  }
  drain();
  const int64_t closed_end = NowNs();
  const uint64_t closed_packets = submitted - before;

  // Latency phase: open loop at kOpenLoopRatePps, every verdict timed from
  // its due time (and, traced, from its Submit's return).
  for (size_t shard = 0; shard < plan.size(); ++shard) {
    sinks[shard].open_from = sinks[shard].delivered;
  }
  const uint64_t open_first = submitted;
  const uint64_t open_count =
      static_cast<uint64_t>(open_seconds * kOpenLoopRatePps);
  const double period = 1e9 / kOpenLoopRatePps;
  for (size_t shard = 0; shard < plan.size(); ++shard) {
    sinks[shard].sink_ns.reserve(open_count);
    sources[shard].due_ns.reserve(open_count);
    sources[shard].return_ns.reserve(open_count);
  }
  const int64_t t0 = NowNs() + 1'000'000;
  // The generator spins on a CPU of its own: sleeping, it would add the
  // host's wake-up latency (tens of microseconds on a VM) to every packet of
  // a phase whose verdicts take about ten.
  OpenLoopStats open = RunOpenLoop(
      t0, period, open_count, 0, /*spin=*/true, tracer,
      [&](uint64_t g) {
        ShardSource& source = sources[shard_of[(open_first + g) % n]];
        source.due_ns.push_back(DueNs(t0, period, g));
        submit(open_first + g);
        source.return_ns.push_back(NowNs());
      },
      [] {});
  drain();
  const int64_t open_end = NowNs();
  ReleaseGeneratorCpu();
  r.attempted = closed_packets + open_count;

  std::vector<std::pair<int64_t, double>> verdict_us;
  std::vector<double> handoff_us;
  for (size_t shard = 0; shard < plan.size(); ++shard) {
    const ShardSink& sink = sinks[shard];
    const ShardSource& source = sources[shard];
    for (size_t j = 0; j < sink.sink_ns.size() && j < source.due_ns.size();
         ++j) {
      verdict_us.emplace_back(
          source.due_ns[j],
          static_cast<double>(sink.sink_ns[j] - source.due_ns[j]) / 1e3);
      handoff_us.push_back(
          static_cast<double>(sink.sink_ns[j] - source.return_ns[j]) / 1e3);
    }
  }

  // Exact output checks: every verdict equals the Detector, conservation.
  uint64_t mismatches = 0;
  for (size_t shard = 0; shard < plan.size(); ++shard) {
    mismatches += sinks[shard].mismatches;
    r.Check(sinks[shard].delivered == sources[shard].submitted,
            "shard " + std::to_string(shard) + " delivered " +
                std::to_string(sinks[shard].delivered) + " verdicts for " +
                std::to_string(sources[shard].submitted) + " packets");
  }
  r.failed = mismatches;
  r.Check(mismatches == 0, std::to_string(mismatches) +
                               " verdicts differ from core::Detector");
  r.Check(gateway.dropped() == 0 && gateway.processed() == submitted &&
              gateway.submitted() == submitted,
          "gateway accounting: submitted/processed/dropped do not conserve");
  r.Check(open.late_ms_max <= kMaxGeneratorLateMs,
          "the generator stalled for " + std::to_string(open.late_ms_max) +
              " ms");
  r.Check(Seconds(open_end - t0) < open_seconds + 1.0,
          "the open loop left a backlog");
  std::fprintf(stderr,
               "serve_trained: %llu closed-loop packets in %.2f s, %llu "
               "open-loop, late max %.3f ms\n",
               static_cast<unsigned long long>(closed_packets),
               Seconds(closed_end - start),
               static_cast<unsigned long long>(open_count), open.late_ms_max);

  if (!args.trace) {
    r.Set("setup_s", Median(setup_s), "s");
    // Interference from the host only ever slows a slice down, so the
    // throughput is the 10th percentile of the slices (the rate sustained in
    // 90% of them) and the CPU cost the 90th.
    r.Set("pkts_per_s", Quantile(slice_pps, 0.10), "pkt/s");
    r.Set("cpu_ns_per_pkt", Quantile(slice_cpu_ns, 0.90), "ns");
    r.Set("verdict_p50_us", SlicedQuantile(verdict_us, kSliceNs, 0.50, 100),
          "us");
    r.Set("epoch_ms_p50", Quantile(epoch_ms, 0.50), "ms");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    gateway.Stop();
    return r;
  }
  gateway.Stop();

  // Layer replay: the calls a shard makes per packet, on this thread.
  const leakdet::prefilter::Mode mode =
      leakdet::prefilter::Resolve(leakdet::prefilter::Mode::kAuto);
  const leakdet::prefilter::Prefilter& prefilter = compiled.prefilter();
  leakdet::match::MatchScratch scratch;
  leakdet::match::MatchScratch dfa_scratch;
  leakdet::prefilter::ScanScratch scan_scratch;
  uint64_t replayed = 0, skipped = 0, candidates = 0, false_candidates = 0;
  uint64_t replay_mismatches = 0;
  std::string content;
  std::string domain;
  // Back-to-back laps: each call's span ends where the next one's begins.
  auto replay_one = [&](size_t i, Tracer& t) {
    const HttpPacket& packet = packets[i];
    content = leakdet::core::PacketContent(packet);
    t.Lap("core.content", i);
    domain = leakdet::net::RegistrableDomain(packet.destination.host);
    t.Lap("net.domain", i);
    const bool any = prefilter.Scan(content, &scan_scratch, mode);
    t.Lap("prefilter.scan", i);
    leakdet::match::PrefilterOutcome outcome;
    const size_t hits = compiled.MatchIntoPrefiltered(content, domain,
                                                      &scratch, mode, &outcome);
    t.Lap("match.prefiltered", i);
    const size_t dfa_hits = compiled.MatchInto(content, domain, &dfa_scratch);
    t.Lap("match.dfa", i);
    if (hits != dfa_hits || scratch.hits != dfa_scratch.hits ||
        dfa_hits != expect_matches[i] ||
        (!any && outcome != leakdet::match::PrefilterOutcome::kSkipped &&
         outcome != leakdet::match::PrefilterOutcome::kDisabled)) {
      ++replay_mismatches;
    }
    if (outcome == leakdet::match::PrefilterOutcome::kSkipped) ++skipped;
    if (outcome == leakdet::match::PrefilterOutcome::kCandidateHit ||
        outcome == leakdet::match::PrefilterOutcome::kCandidateMiss) {
      ++candidates;
    }
    if (outcome == leakdet::match::PrefilterOutcome::kCandidateMiss) {
      ++false_candidates;
    }
    ++replayed;
    t.Lap("bench.check", i);
  };
  // Same packets twice: untraced (the reference wall), then traced.
  Tracer off(false);
  const double replay_seconds = args.seconds / 4;
  size_t rounds = 0;
  int64_t untraced_ns = 0;
  {
    const int64_t replay_start = NowNs();
    do {
      for (size_t i = 0; i < n; ++i) replay_one(i, off);
      ++rounds;
    } while (NowNs() - replay_start < static_cast<int64_t>(replay_seconds * 1e9));
    untraced_ns = NowNs() - replay_start;
  }
  replayed = skipped = candidates = false_candidates = 0;
  const int64_t traced_start = NowNs();
  tracer.StartLaps();
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < n; ++i) replay_one(i, tracer);
  }
  const int64_t traced_ns = NowNs() - traced_start;
  // Coverage: the share of the replay's wall inside a layer's span (the
  // benchmark's own checks are the rest).
  double covered = 0;
  for (const char* layer : {"core.content", "net.domain", "prefilter.scan",
                            "match.prefiltered", "match.dfa"}) {
    covered += static_cast<double>(tracer.Get(layer).total_ns);
  }
  r.Check(replay_mismatches == 0,
          std::to_string(replay_mismatches) +
              " replayed packets where MatchIntoPrefiltered, MatchInto and "
              "the Detector disagree");

  const double dreplayed = static_cast<double>(replayed);
  r.Set("gateway.submit_ns", tracer.MeanSelfNs("gateway.submit"), "ns");
  r.Set("gateway.handoff_us", Median(handoff_us), "us");
  r.Set("gateway.verdict_p90_us", SlicedQuantile(verdict_us, kSliceNs, 0.90, 100),
        "us");
  r.Set("gateway.verdict_p99_us", SlicedQuantile(verdict_us, kSliceNs, 0.99, 100),
        "us");
  r.Set("gateway.publish_us", tracer.MeanSelfNs("gateway.publish") / 1e3,
        "us");
  r.Set("gateway.swaps", static_cast<double>(gateway.swaps()), "count");
  r.Set("gateway.dropped", static_cast<double>(gateway.dropped()), "count");
  r.Set("core.content_ns", tracer.MeanSelfNs("core.content"), "ns");
  r.Set("core.payload_check_ns",
        static_cast<double>(s.in->payload_check_ns) / static_cast<double>(n),
        "ns");
  r.Set("core.retrain_ms", tracer.MeanSelfNs("core.retrain") / 1e6, "ms");
  training.Report(r);
  r.Set("net.domain_ns", tracer.MeanSelfNs("net.domain"), "ns");
  r.Set("prefilter.scan_ns", tracer.MeanSelfNs("prefilter.scan"), "ns");
  r.Set("prefilter.skip_ratio", static_cast<double>(skipped) / dreplayed,
        "ratio");
  r.Set("prefilter.false_candidate_ratio",
        candidates == 0 ? 0.0
                        : static_cast<double>(false_candidates) /
                              static_cast<double>(candidates),
        "ratio");
  r.Set("match.prefiltered_ns", tracer.MeanSelfNs("match.prefiltered"), "ns");
  r.Set("match.dfa_ns", tracer.MeanSelfNs("match.dfa"), "ns");
  r.Set("match.compile_ms", tracer.MeanSelfNs("match.compile") / 1e6, "ms");
  r.Set("match.table_mb", static_cast<double>(compiled.table_bytes()) / 1e6,
        "MB");
  r.Set("match.states", static_cast<double>(compiled.num_states()), "count");
  r.Set("match.signatures", static_cast<double>(compiled.num_signatures()),
        "count");
  r.Set("io.feed_fetch_ms", static_cast<double>(s.fetch_ns) / 1e6, "ms");
  r.Set("io.feed_bytes", static_cast<double>(s.feed_bytes), "B");
  r.Set("loadgen.late_ms_max", open.late_ms_max, "ms");
  r.Set("loadgen.offered_pps",
        static_cast<double>(open.window_submits - 1) /
            Seconds(open.last_window_submit_ns - open.first_window_submit_ns),
        "pkt/s");
  r.Set("coverage_ratio", covered / static_cast<double>(traced_ns), "ratio");
  r.Set("trace.overhead_ratio",
        static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) - 1,
        "ratio");
  return r;
}

}  // namespace perfbench
