// Gateway hot-path micro-benchmarks: interpreted SignatureSet matching vs
// the dense-DFA CompiledSignatureSet the gateway hot-swaps, plus end-to-end
// shard throughput on synthetic ad traffic.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/packet.h"
#include "gateway/gateway.h"
#include "match/compiled_set.h"
#include "match/signature.h"
#include "util/rng.h"

namespace {

using leakdet::Rng;
using leakdet::core::HttpPacket;
using leakdet::match::CompiledSignatureSet;
using leakdet::match::ConjunctionSignature;
using leakdet::match::MatchScratch;
using leakdet::match::SignatureSet;

SignatureSet MakeSignatures(size_t num_sigs, size_t tokens_per_sig) {
  Rng rng(7);
  std::vector<ConjunctionSignature> sigs;
  for (size_t s = 0; s < num_sigs; ++s) {
    ConjunctionSignature sig;
    sig.id = "sig-" + std::to_string(s);
    for (size_t t = 0; t < tokens_per_sig; ++t) {
      sig.tokens.push_back("k" + std::to_string(s) + "_" + std::to_string(t) +
                           "=" + rng.RandomHex(10));
    }
    sigs.push_back(std::move(sig));
  }
  return SignatureSet(std::move(sigs));
}

std::vector<std::string> MakeContents(const SignatureSet& set, size_t count) {
  Rng rng(11);
  std::vector<std::string> contents;
  for (size_t i = 0; i < count; ++i) {
    std::string content = "GET /serve?x=" + rng.RandomHex(24);
    if (i % 4 == 0 && !set.signatures().empty()) {
      // One in four packets carries every token of some signature.
      const ConjunctionSignature& sig =
          set.signatures()[i % set.signatures().size()];
      for (const std::string& tok : sig.tokens) content += "&" + tok;
    }
    content += "&pad=" + rng.RandomHex(160);
    contents.push_back(std::move(content));
  }
  return contents;
}

void BM_SignatureSetMatch(benchmark::State& state) {
  SignatureSet set = MakeSignatures(static_cast<size_t>(state.range(0)), 4);
  std::vector<std::string> contents = MakeContents(set, 512);
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string& content = contents[i++ % contents.size()];
    benchmark::DoNotOptimize(set.Match(content));
    bytes += content.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SignatureSetMatch)->Arg(16)->Arg(64)->Arg(256);

void BM_CompiledSetMatch(benchmark::State& state) {
  CompiledSignatureSet compiled(
      MakeSignatures(static_cast<size_t>(state.range(0)), 4), 1);
  std::vector<std::string> contents = MakeContents(compiled.set(), 512);
  MatchScratch scratch;
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string& content = contents[i++ % contents.size()];
    benchmark::DoNotOptimize(compiled.MatchInto(content, {}, &scratch));
    bytes += content.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CompiledSetMatch)->Arg(16)->Arg(64)->Arg(256);

void BM_CompiledSetBuild(benchmark::State& state) {
  SignatureSet set = MakeSignatures(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    CompiledSignatureSet compiled(set, 1);
    benchmark::DoNotOptimize(compiled.num_states());
  }
}
BENCHMARK(BM_CompiledSetBuild)->Arg(64)->Arg(256);

void BM_GatewayThroughput(benchmark::State& state) {
  leakdet::gateway::GatewayOptions options;
  options.num_shards = static_cast<size_t>(state.range(0));
  options.queue_capacity = 4096;
  leakdet::gateway::DetectionGateway gateway(options);
  SignatureSet set = MakeSignatures(64, 4);
  std::vector<std::string> contents = MakeContents(set, 512);
  gateway.Publish(std::make_shared<const CompiledSignatureSet>(set, 1));
  std::atomic<uint64_t> verdicts{0};
  gateway.set_sink([&](const HttpPacket&, const leakdet::gateway::Verdict&) {
    verdicts.fetch_add(1, std::memory_order_relaxed);
  });
  if (!gateway.Start().ok()) {
    state.SkipWithError("gateway failed to start");
    return;
  }
  uint64_t device = 0;
  size_t i = 0;
  HttpPacket packet;  // refilled per Submit, which copies it into a slot
  packet.destination.host = "ads.bench.example";
  for (auto _ : state) {
    packet.app_id = static_cast<uint32_t>(device);
    packet.request_line = contents[i++ % contents.size()];
    gateway.Submit(device++, packet);
  }
  gateway.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(verdicts.load()));
}
BENCHMARK(BM_GatewayThroughput)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
