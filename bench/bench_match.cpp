// Match hot-path benchmark: the rare-token prefilter against the dense-DFA
// oracle, written to BENCH_match.json.
//
// Three measurements, all on the same seeded synthetic ad traffic (mostly
// clean packets, one in --leak-every carrying every token of some
// signature):
//
// 1. Prefilter scan cost: ns/packet for Prefilter::Scan alone, plus the
//    skip rate the screen achieves on this workload.
// 2. Match path: ns/packet for the plain DFA (MatchInto) vs the prefiltered
//    path (MatchIntoPrefiltered); "match_speedup_scalar" is the ratio.
// 3. Gateway: end-to-end packets/s through a one-shard DetectionGateway
//    (which matches with the DFA alone) with single-packet drains
//    (pop_batch=1) vs batched drains (pop_batch=64).
//
// The random-hex feed is synthetic: its clean packets share no 4-byte
// window with any signature, so the prefilter skips almost all of them.
// Feeds trained on sim traffic give the prefilter nothing to skip.
//
// Timed phases repeat --reps times; the fastest repetition is reported
// (noise is strictly additive).
//
// Usage:
//   bench_match [--packets=20000] [--num-sigs=64] [--tokens-per-sig=4]
//               [--leak-every=32] [--pad=160] [--reps=3] [--seed=7]
//               [--out=BENCH_match.json] [--selfcheck]
//
// --selfcheck asserts correctness on the benched workload instead of
// timing: MatchIntoPrefiltered must return bit-identical hits to MatchInto
// for every packet, and the batched and unbatched gateway runs must
// produce identical verdict streams. Exits nonzero on violation; used by
// the `perf` ctest smoke run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/packet.h"
#include "gateway/gateway.h"
#include "match/compiled_set.h"
#include "match/signature.h"
#include "prefilter/prefilter.h"
#include "util/rng.h"

namespace {

using namespace leakdet;
using match::CompiledSignatureSet;
using match::ConjunctionSignature;
using match::MatchScratch;
using match::SignatureSet;

struct Args {
  size_t packets = 20000;
  size_t num_sigs = 64;
  size_t tokens_per_sig = 4;
  size_t leak_every = 32;
  size_t pad = 160;
  size_t reps = 3;
  uint64_t seed = 7;
  std::string out = "BENCH_match.json";
  bool selfcheck = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--packets=", 10) == 0) {
      args.packets = static_cast<size_t>(std::atoll(a + 10));
    } else if (std::strncmp(a, "--num-sigs=", 11) == 0) {
      args.num_sigs = static_cast<size_t>(std::atoll(a + 11));
    } else if (std::strncmp(a, "--tokens-per-sig=", 17) == 0) {
      args.tokens_per_sig = static_cast<size_t>(std::atoll(a + 17));
    } else if (std::strncmp(a, "--leak-every=", 13) == 0) {
      args.leak_every = static_cast<size_t>(std::atoll(a + 13));
    } else if (std::strncmp(a, "--pad=", 6) == 0) {
      args.pad = static_cast<size_t>(std::atoll(a + 6));
    } else if (std::strncmp(a, "--reps=", 7) == 0) {
      args.reps = static_cast<size_t>(std::atoll(a + 7));
      if (args.reps == 0) args.reps = 1;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(a + 7));
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      args.out = a + 6;
    } else if (std::strcmp(a, "--selfcheck") == 0) {
      args.selfcheck = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      std::exit(2);
    }
  }
  if (args.packets == 0) args.packets = 1;
  if (args.num_sigs == 0) args.num_sigs = 1;
  if (args.leak_every == 0) args.leak_every = 1;
  return args;
}

SignatureSet MakeSignatures(const Args& args) {
  Rng rng(args.seed);
  std::vector<ConjunctionSignature> sigs;
  for (size_t s = 0; s < args.num_sigs; ++s) {
    ConjunctionSignature sig;
    sig.id = "sig-" + std::to_string(s);
    for (size_t t = 0; t < args.tokens_per_sig; ++t) {
      sig.tokens.push_back("k" + std::to_string(s) + "_" + std::to_string(t) +
                           "=" + rng.RandomHex(10));
    }
    sigs.push_back(std::move(sig));
  }
  return SignatureSet(std::move(sigs));
}

std::vector<std::string> MakeContents(const SignatureSet& set,
                                      const Args& args) {
  Rng rng(args.seed + 11);
  std::vector<std::string> contents;
  contents.reserve(args.packets);
  for (size_t i = 0; i < args.packets; ++i) {
    std::string content = "GET /serve?x=" + rng.RandomHex(24);
    if (i % args.leak_every == 0 && !set.signatures().empty()) {
      const ConjunctionSignature& sig =
          set.signatures()[i % set.signatures().size()];
      for (const std::string& tok : sig.tokens) content += "&" + tok;
    }
    content += "&pad=" + rng.RandomHex(args.pad);
    contents.push_back(std::move(content));
  }
  return contents;
}

double NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Fastest-of-reps ns/packet for `body(packet_index)` over all contents.
template <typename Body>
double BenchNsPerPacket(const Args& args, size_t n, Body&& body) {
  double best = -1;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) body(i);
    double ns = NsSince(start) / static_cast<double>(n);
    if (best < 0 || ns < best) best = ns;
  }
  return best;
}

// One gateway run: submits every content as a packet on a one-shard
// gateway, returns packets/s over the submit+drain wall time and the
// verdict stream (signature hit counts per packet, in order).
double RunGateway(const std::vector<std::string>& contents, size_t pop_batch,
                  std::shared_ptr<const CompiledSignatureSet> compiled,
                  std::vector<uint32_t>* verdicts) {
  gateway::GatewayOptions options;
  options.num_shards = 1;
  options.queue_capacity = 4096;
  options.pop_batch = pop_batch;
  options.overload = gateway::OverloadPolicy::kBlock;
  gateway::DetectionGateway gw(options);
  gw.Publish(std::move(compiled));
  verdicts->clear();
  verdicts->reserve(contents.size());
  gw.set_sink([&](const core::HttpPacket&, const gateway::Verdict& verdict) {
    verdicts->push_back(verdict.num_matches);  // one shard: sink is serial
  });
  if (!gw.Start().ok()) {
    std::fprintf(stderr, "gateway failed to start\n");
    std::exit(1);
  }
  auto start = std::chrono::steady_clock::now();
  // One caller-owned packet, refilled per Submit: the gateway copies it
  // into a ring slot, so the producer's buffers are reused too.
  core::HttpPacket packet;
  packet.destination.host = "ads.bench.example";
  for (size_t i = 0; i < contents.size(); ++i) {
    packet.app_id = static_cast<uint32_t>(i);
    packet.request_line = contents[i];
    gw.Submit(/*device_id=*/7, packet);  // one device, one shard
  }
  gw.Stop();  // drains
  double ns = NsSince(start);
  return static_cast<double>(contents.size()) / (ns / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  SignatureSet set = MakeSignatures(args);
  auto compiled = std::make_shared<const CompiledSignatureSet>(set, 1);
  std::vector<std::string> contents = MakeContents(set, args);
  const prefilter::Mode mode = prefilter::Mode::kScalar;
  const size_t n = contents.size();

  // ---- correctness: the prefiltered path must equal the oracle ----------
  bool all_ok = true;
  size_t skipped = 0;
  {
    MatchScratch oracle, scratch;
    for (size_t i = 0; i < n; ++i) {
      size_t want = compiled->MatchInto(contents[i], {}, &oracle);
      match::PrefilterOutcome outcome;
      size_t got = compiled->MatchIntoPrefiltered(contents[i], {}, &scratch,
                                                  mode, &outcome);
      if (got != want || scratch.hits != oracle.hits) {
        std::fprintf(stderr, "DIVERGENCE packet %zu: got %zu want %zu\n", i,
                     got, want);
        all_ok = false;
      }
      if (outcome == match::PrefilterOutcome::kSkipped) ++skipped;
    }
  }
  const double skip_rate = static_cast<double>(skipped) /
                           static_cast<double>(n);
  std::printf("packets=%zu sigs=%zu skip_rate=%.4f\n", n, args.num_sigs,
              skip_rate);

  // ---- 1. prefilter scan cost -------------------------------------------
  const prefilter::Prefilter& pf = compiled->prefilter();
  double scan_ns;
  {
    prefilter::ScanScratch scratch;
    uint64_t sink = 0;
    scan_ns = BenchNsPerPacket(args, n, [&](size_t i) {
      sink += pf.Scan(contents[i], &scratch, mode) ? 1 : 0;
    });
    if (sink == UINT64_MAX) std::printf("impossible\n");  // keep `sink` live
  }
  std::printf("scan: %.1f ns/packet\n", scan_ns);

  // ---- 2. DFA oracle vs prefiltered match path --------------------------
  MatchScratch scratch;
  double dfa_ns = BenchNsPerPacket(args, n, [&](size_t i) {
    compiled->MatchInto(contents[i], {}, &scratch);
  });
  std::printf("match[dfa]: %.1f ns/packet\n", dfa_ns);
  double prefiltered_ns = BenchNsPerPacket(args, n, [&](size_t i) {
    compiled->MatchIntoPrefiltered(contents[i], {}, &scratch, mode);
  });
  const double speedup = prefiltered_ns > 0 ? dfa_ns / prefiltered_ns : 0;
  std::printf("match[prefiltered]: %.1f ns/packet (%.2fx vs dfa)\n",
              prefiltered_ns, speedup);

  // ---- 3. gateway: unbatched vs batched ---------------------------------
  std::vector<uint32_t> verdicts_single, verdicts_batched;
  double pps_single = 0, pps_batched = 0;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    double a = RunGateway(contents, 1, compiled, &verdicts_single);
    double b = RunGateway(contents, 64, compiled, &verdicts_batched);
    if (a > pps_single) pps_single = a;
    if (b > pps_batched) pps_batched = b;
    if (verdicts_single != verdicts_batched) {
      std::fprintf(stderr, "gateway verdict streams diverged (rep %zu)\n",
                   rep);
      all_ok = false;
    }
  }
  std::printf("gateway: single=%.0f pps batched=%.0f pps\n", pps_single,
              pps_batched);

  if (args.selfcheck) {
    std::printf("selfcheck: %s\n", all_ok ? "ok" : "FAILED");
  }

  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"packets\": %zu,\n  \"num_sigs\": %zu,\n"
                "  \"tokens_per_sig\": %zu,\n  \"leak_every\": %zu,\n"
                "  \"prefilter_skip_rate\": %.4f,\n"
                "  \"scan_ns_per_packet_scalar\": %.1f,\n"
                "  \"match_ns_per_packet_dfa\": %.1f,\n"
                "  \"match_ns_per_packet_scalar\": %.1f,\n"
                "  \"match_speedup_scalar\": %.2f,\n"
                "  \"gateway_pps_single\": %.0f,\n"
                "  \"gateway_pps_batched\": %.0f,\n"
                "  \"gateway_batching_speedup\": %.2f\n"
                "}\n",
                n, args.num_sigs, args.tokens_per_sig, args.leak_every,
                skip_rate, scan_ns, dfa_ns, prefiltered_ns, speedup,
                pps_single, pps_batched,
                pps_single > 0 ? pps_batched / pps_single : 0);
  if (FILE* f = std::fopen(args.out.c_str(), "w"); f != nullptr) {
    std::fputs(buf, f);
    std::fclose(f);
    std::printf("wrote %s\n", args.out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}
