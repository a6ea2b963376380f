// Serving benchmark for the concurrent detection gateway: replays a
// simulated market trace (sim::TrafficGenerator) through gateway shards at
// full speed (or a target rate), with live retraining and matcher hot-swaps
// happening mid-run, then prints the metrics snapshot.
//
// Exactness check (--verify, on by default): every verdict the gateway
// produced is compared against the single-threaded core::Detector baseline
// for the matcher epoch the packet was matched under. Per-device FIFO
// sharding makes this exact: shard k's verdict sequence corresponds 1:1 to
// the order packets were accepted into shard k.
//
// Example (the repo's standing serving benchmark):
//   leakdet_loadgen --shards=4 --repeat=10 --min-swaps=3

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "obs/admin_server.h"
#include "sim/trafficgen.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Flags {
  size_t shards = 4;
  size_t queue_capacity = 4096;
  size_t pop_batch = 64;
  std::string policy = "block";  // block | drop
  double scale = 1.0;
  size_t repeat = 10;
  uint64_t seed = 42;
  double rate = 0;  // target packets/s, 0 = unlimited
  // Tuned to the trainer's sustainable oracle-scan intake (~15k pkt/s):
  // yields a retrain every few hundred ms of wall time, i.e. plenty of live
  // hot-swaps over a multi-second run.
  size_t retrain_after = 1200;
  size_t sample_size = 60;
  size_t normal_corpus = 400;
  size_t forward_normal_every = 8;
  size_t trainer_queue = 8192;
  uint64_t min_swaps = 0;  // fail the run if fewer hot-swaps happened
  bool verify = true;
  long admin_port = -1;  // -1 = no admin server, 0 = ephemeral port
  // Warmup rounds replay the trace before the measured window opens: they
  // warm shard queues, the matcher epoch, and branch predictors, and are
  // excluded from the reported throughput (their verdicts are still
  // verified).
  size_t warmup_repeat = 1;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: leakdet_loadgen [--shards=N] [--queue-capacity=N] "
      "[--pop-batch=N]\n"
      "  [--policy=block|drop] [--scale=F] [--repeat=N] [--seed=N] "
      "[--rate=PPS]\n"
      "  [--retrain-after=N] [--sample-size=N] [--normal-corpus=N]\n"
      "  [--forward-normal-every=N] [--trainer-queue=N] [--min-swaps=N]\n"
      "  [--no-verify] [--admin-port=N] [--warmup-repeat=N]\n");
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "shards", &v)) {
      flags->shards = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "queue-capacity", &v)) {
      flags->queue_capacity = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "pop-batch", &v)) {
      flags->pop_batch = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "policy", &v)) {
      flags->policy = v;
    } else if (ParseFlag(arg, "scale", &v)) {
      flags->scale = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "repeat", &v)) {
      flags->repeat = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seed", &v)) {
      flags->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "rate", &v)) {
      flags->rate = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "retrain-after", &v)) {
      flags->retrain_after = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "sample-size", &v)) {
      flags->sample_size = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "normal-corpus", &v)) {
      flags->normal_corpus = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "forward-normal-every", &v)) {
      flags->forward_normal_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "trainer-queue", &v)) {
      flags->trainer_queue = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "min-swaps", &v)) {
      flags->min_swaps = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "admin-port", &v)) {
      flags->admin_port = std::strtol(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "warmup-repeat", &v)) {
      flags->warmup_repeat = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--no-verify") {
      flags->verify = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return false;
    }
  }
  if (flags->policy != "block" && flags->policy != "drop") {
    std::fprintf(stderr, "--policy must be block or drop\n");
    return false;
  }
  if (flags->shards == 0 || flags->repeat == 0) {
    std::fprintf(stderr, "--shards and --repeat must be positive\n");
    return false;
  }
  return true;
}

/// One recorded gateway verdict: which trace packet, under which epoch.
struct Recorded {
  uint32_t trace_index;
  uint64_t feed_version;
  bool sensitive;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  std::printf("generating trace (scale=%.3g seed=%llu)...\n", flags.scale,
              static_cast<unsigned long long>(flags.seed));
  leakdet::sim::TrafficConfig config;
  config.seed = flags.seed;
  config.scale = flags.scale;
  leakdet::sim::Trace trace = leakdet::sim::GenerateTrace(config);
  size_t sensitive_truth = 0;
  for (const auto& lp : trace.packets) {
    if (lp.sensitive()) ++sensitive_truth;
  }
  std::printf("trace: %zu packets (%zu ground-truth sensitive), %zu apps\n",
              trace.packets.size(), sensitive_truth,
              trace.population.apps.size());

  leakdet::core::PayloadCheck oracle({trace.device.ToTokens()});
  leakdet::core::SignatureServer::Options server_options;
  server_options.retrain_after = flags.retrain_after;
  server_options.pipeline.sample_size = flags.sample_size;
  server_options.pipeline.normal_corpus_size = flags.normal_corpus;
  server_options.pipeline.num_threads = 2;
  leakdet::core::SignatureServer server(&oracle, server_options);

  leakdet::gateway::GatewayOptions gw_options;
  gw_options.num_shards = flags.shards;
  gw_options.queue_capacity = flags.queue_capacity;
  gw_options.pop_batch = flags.pop_batch;
  gw_options.overload = flags.policy == "block"
                            ? leakdet::gateway::OverloadPolicy::kBlock
                            : leakdet::gateway::OverloadPolicy::kDropNewest;
  leakdet::gateway::DetectionGateway gateway(gw_options);

  leakdet::gateway::TrainerOptions trainer_options;
  trainer_options.queue_capacity = flags.trainer_queue;
  trainer_options.forward_normal_every = flags.forward_normal_every;
  leakdet::gateway::TrainerLoop trainer(&server, &gateway, trainer_options);

  // Optional admin plane over the gateway's registry (which the trainer
  // shares), so a scrape mid-run sees live shard queue depths and retrain
  // stage timings.
  leakdet::obs::AdminServerOptions admin_options;
  admin_options.registry = gateway.metrics();
  leakdet::obs::AdminServer admin(admin_options);
  admin.AddStatusSection("gateway", [&gateway] {
    return "epoch_version: " + std::to_string(gateway.current_version()) +
           "\nepoch_age_ns: " + std::to_string(gateway.epoch_age_ns()) + "\n";
  });
  if (flags.admin_port >= 0) {
    leakdet::Status started =
        admin.Start(static_cast<uint16_t>(flags.admin_port));
    if (!started.ok()) {
      std::fprintf(stderr, "admin server: %s\n",
                   started.ToString().c_str());
      return 2;
    }
    std::printf("admin plane at http://127.0.0.1:%u/metrics\n", admin.port());
  }

  size_t instances = trace.packets.size() * flags.repeat;
  // Per-shard verdict sequences; each is appended only by that shard's
  // worker thread, so no locking is needed (vectors are pre-created).
  std::vector<std::vector<Recorded>> verdicts(flags.shards);
  for (auto& v : verdicts) v.reserve(instances / flags.shards + 64);
  // Producer-side: which trace packet the k-th accepted packet of each
  // shard was. Together with FIFO shard order this reconstructs identity.
  std::vector<std::vector<uint32_t>> accepted(flags.shards);
  for (auto& v : accepted) v.reserve(instances / flags.shards + 64);
  std::atomic<uint32_t> current_index{0};

  gateway.set_sink([&](const leakdet::core::HttpPacket& packet,
                       const leakdet::gateway::Verdict& verdict) {
    Recorded r;
    r.trace_index = 0;  // patched from `accepted` during verification
    r.feed_version = verdict.feed_version;
    r.sensitive = verdict.sensitive;
    verdicts[verdict.shard].push_back(r);
    trainer.Offer(packet, verdict);
  });

  if (!gateway.Start().ok() || !trainer.Start().ok()) {
    std::fprintf(stderr, "failed to start gateway/trainer\n");
    return 2;
  }

  std::printf("replaying %zu x %zu = %zu packets through %zu shards "
              "(policy=%s, rate=%s, warmup=%zu rounds)...\n",
              trace.packets.size(), flags.repeat, instances, flags.shards,
              flags.policy.c_str(),
              flags.rate > 0 ? (std::to_string(flags.rate) + " pkt/s").c_str()
                             : "unlimited",
              flags.warmup_repeat);

  size_t submitted_count = 0;
  size_t pace_base = 0;  // accepted count when the current pacing clock began
  Clock::time_point pace_start = Clock::now();
  auto submit_round = [&] {
    for (size_t i = 0; i < trace.packets.size(); ++i) {
      const leakdet::core::HttpPacket& packet = trace.packets[i].packet;
      uint64_t device_id = packet.app_id;  // per-app ordering key
      size_t shard = gateway.shard_of(device_id);
      if (gateway.Submit(device_id, packet)) {
        accepted[shard].push_back(static_cast<uint32_t>(i));
        ++submitted_count;
      }
      if (flags.rate > 0 && (submitted_count & 1023) == 0) {
        double target_elapsed =
            static_cast<double>(submitted_count - pace_base) / flags.rate;
        double actual =
            std::chrono::duration<double>(Clock::now() - pace_start).count();
        if (actual < target_elapsed) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(target_elapsed - actual));
        }
      }
    }
  };
  auto drain = [&] {
    // Every accepted packet has a verdict once processed catches up (kBlock
    // accepts everything; kDropNewest counts drops at submit time).
    while (gateway.processed() < submitted_count) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  // Warmup rounds: replay + drain OUTSIDE the measured window, so one-time
  // costs (trace paging, shard-queue first touch, the first matcher
  // hot-swap) never inflate or deflate the reported throughput. Their
  // verdicts are still recorded and verified like any others.
  for (size_t r = 0; r < flags.warmup_repeat; ++r) submit_round();
  drain();

  const uint64_t processed_before = gateway.processed();
  Clock::time_point run_start = Clock::now();
  pace_start = run_start;
  pace_base = submitted_count;
  for (size_t r = 0; r < flags.repeat; ++r) submit_round();
  drain();  // measured window ends when the last verdict lands, not at Stop
  Clock::time_point run_end = Clock::now();
  gateway.Stop();
  trainer.Stop();
  admin.Stop();

  double wall = std::chrono::duration<double>(run_end - run_start).count();
  uint64_t processed = gateway.processed();
  uint64_t measured = processed - processed_before;
  double throughput = wall > 0 ? static_cast<double>(measured) / wall : 0;
  std::printf("\nrun: submitted=%llu processed=%llu dropped=%llu "
              "matched=%llu swaps=%llu\n",
              static_cast<unsigned long long>(gateway.submitted()),
              static_cast<unsigned long long>(processed),
              static_cast<unsigned long long>(gateway.dropped()),
              static_cast<unsigned long long>(gateway.matched()),
              static_cast<unsigned long long>(gateway.swaps()));
  std::printf("run: measured=%llu wall=%.2fs throughput=%.0f pkt/s "
              "(warmup excluded; feeds published=%llu, training "
              "drops=%llu)\n",
              static_cast<unsigned long long>(measured), wall, throughput,
              static_cast<unsigned long long>(trainer.feeds_published()),
              static_cast<unsigned long long>(trainer.training_drops()));

  std::printf("\n-- metrics --\n%s\n", gateway.metrics()->TextDump().c_str());

  int exit_code = 0;
  if (flags.verify) {
    // Patch identities, then check every verdict against the single-threaded
    // Detector for its epoch. One thread per shard, each with its own
    // per-version Detector cache (Detector construction rebuilds the
    // automaton, so caches are not shared across threads).
    std::printf("verifying %llu verdicts against the single-threaded "
                "Detector baseline...\n",
                static_cast<unsigned long long>(processed));
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> checked{0};
    std::vector<std::thread> checkers;
    for (size_t s = 0; s < flags.shards; ++s) {
      checkers.emplace_back([&, s] {
        if (verdicts[s].size() != accepted[s].size()) {
          std::fprintf(stderr,
                       "shard %zu: %zu verdicts for %zu accepted packets\n", s,
                       verdicts[s].size(), accepted[s].size());
          mismatches.fetch_add(1);
          return;
        }
        std::map<uint64_t, std::unique_ptr<leakdet::core::Detector>> cache;
        // version -> per-trace-index memo (-1 unknown, else 0/1).
        std::map<uint64_t, std::vector<int8_t>> memo;
        for (size_t k = 0; k < verdicts[s].size(); ++k) {
          Recorded& r = verdicts[s][k];
          r.trace_index = accepted[s][k];
          std::vector<int8_t>& m = memo[r.feed_version];
          if (m.empty()) m.assign(trace.packets.size(), -1);
          int8_t& slot = m[r.trace_index];
          if (slot < 0) {
            auto it = cache.find(r.feed_version);
            if (it == cache.end()) {
              leakdet::match::SignatureSet set;  // version 0: empty set
              if (r.feed_version != 0) {
                auto archived = trainer.SetForVersion(r.feed_version);
                if (!archived) {
                  std::fprintf(stderr, "no archived feed for version %llu\n",
                               static_cast<unsigned long long>(
                                   r.feed_version));
                  mismatches.fetch_add(1);
                  return;
                }
                set = archived->set();
              }
              it = cache
                       .emplace(r.feed_version,
                                std::make_unique<leakdet::core::Detector>(
                                    std::move(set)))
                       .first;
            }
            slot = it->second->IsSensitive(trace.packets[r.trace_index].packet)
                       ? 1
                       : 0;
          }
          if ((slot == 1) != r.sensitive) mismatches.fetch_add(1);
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : checkers) t.join();
    std::printf("verify: checked=%llu mismatches=%llu -> %s\n",
                static_cast<unsigned long long>(checked.load()),
                static_cast<unsigned long long>(mismatches.load()),
                mismatches.load() == 0 ? "IDENTICAL to baseline" : "FAILED");
    if (mismatches.load() != 0) exit_code = 1;
  }

  if (gateway.swaps() < flags.min_swaps) {
    std::printf("FAILED: %llu hot-swaps < required --min-swaps=%llu\n",
                static_cast<unsigned long long>(gateway.swaps()),
                static_cast<unsigned long long>(flags.min_swaps));
    exit_code = 1;
  }
  return exit_code;
}
