// Durable-store benchmark: three measurements, written to BENCH_store.json.
//
// 1. Raw WAL append throughput under each fsync policy against an in-memory
//    framing baseline (the identical frames appended to a buffer), isolating
//    exactly what the write(2)/fdatasync(2) pattern of each policy costs.
// 2. Recovery replay speed over each policy's log.
// 3. The acceptance metric: *gateway ingest* throughput with the store in
//    the loop (WAL append before every Ingest, WriteSnapshot on every
//    publish, every-N fsync) versus the same ingest stream fully in memory,
//    plus the time to recover the store-backed run's directory. The
//    training path's per-packet work dominates the WAL frame write, so the
//    durable run must stay within 10% of the in-memory run.
//
// Usage:
//   bench_store [--records=100000] [--ingest-records=2000] [--body-bytes=256]
//               [--sync-every-n=256] [--segment-mb=4] [--seed=42] [--reps=5]
//               [--dir=bench_store_data] [--out=BENCH_store.json]
//               [--selfcheck]
//
// The ingest phase repeats each configuration --reps times (fresh server and
// data directory per repetition; the stream is deterministic) and reports the
// fastest repetition — noise from frequency scaling and page-cache state is
// strictly additive, so min-of-K is the faithful estimate of each
// configuration's cost.
//
// --selfcheck re-replays every policy's log (exact record count and final
// sequence) and requires the store-backed ingest run to end bit-compatible
// with the in-memory run (same feed version, pools, counters); it exits
// nonzero on any mismatch. Used by the `perf` ctest smoke run; timing is
// reported, never asserted — CI machines are too noisy for that.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/packet.h"
#include "core/payload_check.h"
#include "core/signature_server.h"
#include "store/file.h"
#include "store/store_manager.h"
#include "store/wal.h"
#include "util/rng.h"

namespace {

using namespace leakdet;

struct Args {
  size_t records = 100000;
  size_t ingest_records = 2000;
  size_t body_bytes = 256;
  size_t sync_every_n = 256;  // the WalOptions default group-commit size
  size_t segment_mb = 4;
  size_t reps = 5;
  uint64_t seed = 42;
  std::string dir = "bench_store_data";
  std::string out = "BENCH_store.json";
  bool selfcheck = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--records=", 10) == 0) {
      args.records = static_cast<size_t>(std::atoll(a + 10));
    } else if (std::strncmp(a, "--ingest-records=", 17) == 0) {
      args.ingest_records = static_cast<size_t>(std::atoll(a + 17));
    } else if (std::strncmp(a, "--body-bytes=", 13) == 0) {
      args.body_bytes = static_cast<size_t>(std::atoll(a + 13));
    } else if (std::strncmp(a, "--sync-every-n=", 15) == 0) {
      args.sync_every_n = static_cast<size_t>(std::atoll(a + 15));
    } else if (std::strncmp(a, "--segment-mb=", 13) == 0) {
      args.segment_mb = static_cast<size_t>(std::atoll(a + 13));
    } else if (std::strncmp(a, "--reps=", 7) == 0) {
      args.reps = static_cast<size_t>(std::atoll(a + 7));
      if (args.reps == 0) args.reps = 1;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(a + 7));
    } else if (std::strncmp(a, "--dir=", 6) == 0) {
      args.dir = a + 6;
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

/// The record tape: identical for the baseline and every policy, so the
/// byte streams are byte-for-byte the same. About 30% of packets leak one of
/// `device`'s identifiers so the ingest phase exercises real retrains.
std::vector<store::FeedRecord> MakeTape(const Args& args,
                                        const core::DeviceTokens& device) {
  Rng rng(args.seed);
  std::vector<store::FeedRecord> tape;
  tape.reserve(args.records);
  for (size_t i = 0; i < args.records; ++i) {
    store::FeedRecord record;
    record.feed_version = i / 1000;
    record.sensitive = rng.Bernoulli(0.3);
    record.shard = static_cast<uint32_t>(rng.UniformInt(8));
    record.num_matches = static_cast<uint32_t>(rng.UniformInt(4));
    record.packet.app_id = static_cast<uint32_t>(rng.UniformInt(10000));
    record.packet.destination.host = "ad" + std::to_string(rng.UniformInt(50)) +
                                     ".example.com";
    record.packet.destination.port = 80;
    record.packet.request_line =
        "GET /track?id=" + rng.RandomHex(16) + " HTTP/1.1";
    record.packet.cookie = "session=" + rng.RandomHex(24);
    record.packet.body = rng.RandomHex(args.body_bytes);
    if (rng.Bernoulli(0.3)) {
      record.packet.body +=
          (rng.Bernoulli(0.5) ? "&android_id=" + device.android_id
                              : "&imei=" + device.imei);
    }
    tape.push_back(std::move(record));
  }
  return tape;
}

void RemoveDirRecursive(const std::string& path) {
  store::Dir* dir = store::Dir::Real();
  auto names = dir->List(path);
  if (names.ok()) {
    for (const std::string& name : *names) dir->Remove(path + "/" + name);
  }
  std::remove(path.c_str());
}

struct PolicyRow {
  std::string name;
  double append_ms = 0;
  double records_per_sec = 0;
  double mb_per_sec = 0;
  double overhead_vs_memory = 0;  ///< append_ms / baseline_ms - 1
  uint64_t segments = 0;
  uint64_t synced_bytes = 0;
  double replay_ms = 0;
  double replay_records_per_sec = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  core::DeviceTokens device;
  {
    Rng token_rng(args.seed * 131 + 7);
    device.android_id = token_rng.RandomHex(16);
    device.imei = token_rng.RandomDigits(15);
    device.imsi = token_rng.RandomDigits(15);
    device.sim_serial = token_rng.RandomDigits(19);
    device.carrier = "NTT DOCOMO";
  }
  std::printf("framing %zu records (~%zu body bytes each)...\n", args.records,
              args.body_bytes);
  std::vector<store::FeedRecord> tape = MakeTape(args, device);

  // In-memory baseline: the exact frames, appended to a buffer.
  uint64_t framed_bytes = 0;
  auto t0 = std::chrono::steady_clock::now();
  {
    std::string buffer;
    for (size_t i = 0; i < tape.size(); ++i) {
      store::FeedRecord record = tape[i];
      record.sequence = i + 1;
      buffer += store::FrameRecord(record);
    }
    framed_bytes = buffer.size();
  }
  const double baseline_ms = MillisSince(t0);
  const double mb = static_cast<double>(framed_bytes) / (1024.0 * 1024.0);
  std::printf("in-memory baseline: %.1fms  %.0f rec/s  %.1f MB/s\n",
              baseline_ms, tape.size() / (baseline_ms / 1000.0),
              mb / (baseline_ms / 1000.0));

  struct PolicyConfig {
    const char* name;
    store::SyncPolicy policy;
  };
  const PolicyConfig kPolicies[] = {
      {"every-record", store::SyncPolicy::kEveryRecord},
      {"every-n", store::SyncPolicy::kEveryN},
      {"on-rotate", store::SyncPolicy::kOnRotate},
  };

  bool selfcheck_failed = false;
  std::vector<PolicyRow> rows;
  // Deferred: invoked after the ingest phase below. The every-record pass is
  // tens of seconds of back-to-back fdatasyncs; running it first would hand
  // the ingest comparison — the acceptance metric — a hot, dirty machine.
  auto run_raw_phase = [&]() -> bool {
  for (const PolicyConfig& config : kPolicies) {
    const std::string dirpath = args.dir + "_" + config.name;
    RemoveDirRecursive(dirpath);
    store::Dir* dir = store::Dir::Real();
    if (!dir->CreateDir(dirpath).ok()) {
      std::fprintf(stderr, "cannot create %s\n", dirpath.c_str());
      return false;
    }
    store::WalOptions options;
    options.sync_policy = config.policy;
    options.sync_every_n = args.sync_every_n;
    options.segment_bytes = args.segment_mb << 20;
    auto writer = store::WalWriter::Open(dir, dirpath, 1, options);
    if (!writer.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   writer.status().ToString().c_str());
      return false;
    }

    PolicyRow row;
    row.name = config.name;
    t0 = std::chrono::steady_clock::now();
    for (const store::FeedRecord& record : tape) {
      if (!(*writer)->Append(record).ok()) {
        std::fprintf(stderr, "append failed under %s\n", config.name);
        return false;
      }
    }
    if (!(*writer)->Sync().ok()) {
      std::fprintf(stderr, "final sync failed under %s\n", config.name);
      return false;
    }
    row.append_ms = MillisSince(t0);
    row.records_per_sec = tape.size() / (row.append_ms / 1000.0);
    row.mb_per_sec = mb / (row.append_ms / 1000.0);
    row.overhead_vs_memory =
        baseline_ms > 0 ? row.append_ms / baseline_ms - 1.0 : 0.0;
    row.segments = (*writer)->segments_created();
    row.synced_bytes = framed_bytes;
    writer->reset();

    // Recovery replay over what was just written.
    uint64_t replayed = 0;
    t0 = std::chrono::steady_clock::now();
    auto replay = store::ReplayWal(
        dir, dirpath, 0,
        [&replayed](const store::FeedRecord&) {
          ++replayed;
          return Status::OK();
        },
        /*repair=*/false);
    row.replay_ms = MillisSince(t0);
    row.replay_records_per_sec = replayed / (row.replay_ms / 1000.0);
    if (!replay.ok()) {
      std::fprintf(stderr, "replay failed under %s: %s\n", config.name,
                   replay.status().ToString().c_str());
      return false;
    }
    if (args.selfcheck &&
        (replayed != tape.size() || replay->last_sequence != tape.size() ||
         replay->truncated_bytes != 0)) {
      std::fprintf(stderr,
                   "SELFCHECK FAILED under %s: replayed %llu of %zu, "
                   "last_sequence %llu, truncated %llu\n",
                   config.name, static_cast<unsigned long long>(replayed),
                   tape.size(),
                   static_cast<unsigned long long>(replay->last_sequence),
                   static_cast<unsigned long long>(replay->truncated_bytes));
      selfcheck_failed = true;
    }

    std::printf("%-12s append %8.1fms  %8.0f rec/s  %6.1f MB/s  "
                "overhead %+6.1f%%  %llu segs   replay %8.1fms  %8.0f rec/s\n",
                config.name, row.append_ms, row.records_per_sec, row.mb_per_sec,
                row.overhead_vs_memory * 100.0,
                static_cast<unsigned long long>(row.segments), row.replay_ms,
                row.replay_records_per_sec);
    rows.push_back(row);
    RemoveDirRecursive(dirpath);
  }
  return true;
  };

  // --- Gateway ingest: in-memory vs store-backed. Identical packet stream
  // and server options throughout. Two durable configurations:
  //   wal-only — the acceptance metric: WAL append (every-N fsync) before
  //              each Ingest, nothing else; must stay within 10% of memory;
  //   full     — wal-only plus a snapshot + compaction on every publish,
  //              i.e. exactly what the gateway trainer does.
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  core::SignatureServer::Options server_options;
  server_options.retrain_after = 200;
  server_options.pipeline.sample_size = 100;
  server_options.pipeline.normal_corpus_size = 200;
  // Single-threaded retrains: the parallel pool's scheduling noise would
  // otherwise swamp the few-percent differences this phase measures.
  server_options.pipeline.num_threads = 1;
  const size_t ingest_n =
      args.ingest_records < tape.size() ? args.ingest_records : tape.size();

  // min-of-reps: each repetition rebuilds the server from scratch on the
  // same deterministic stream, so every repetition ends in the same state
  // and the fastest one is the noise-free cost. The three configurations
  // (memory / wal-only / full) are interleaved within each repetition —
  // running all of one config first would hand the baseline a cold, fast CPU
  // and the store runs a thermally throttled one.
  std::unique_ptr<core::SignatureServer> mem_server;
  double ingest_mem_ms = 0;
  auto run_mem_ingest = [&] {
    auto server =
        std::make_unique<core::SignatureServer>(&oracle, server_options);
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < ingest_n; ++i) server->Ingest(tape[i].packet);
    const double ms = MillisSince(start);
    if (mem_server == nullptr || ms < ingest_mem_ms) ingest_mem_ms = ms;
    mem_server = std::move(server);
  };

  struct IngestRun {
    double total_ms = 0;
    double snapshot_ms = 0;  ///< spent in WriteSnapshot + Compact
    double overhead = 0;     ///< total_ms / ingest_mem_ms - 1
    double recover_ms = 0;   ///< reopen + Recover of the run's directory
    uint64_t epochs_installed = 0;  ///< publish records recovery installed
    uint64_t records_replayed = 0;  ///< records recovery re-ingested
  };
  auto run_store_ingest = [&](bool snapshots, IngestRun* out) -> bool {
    const std::string dirpath = args.dir + "_ingest";
    RemoveDirRecursive(dirpath);
    store::StoreOptions store_options;
    store_options.wal.sync_policy = store::SyncPolicy::kEveryN;
    store_options.wal.sync_every_n = args.sync_every_n;
    store_options.wal.segment_bytes = args.segment_mb << 20;
    auto store =
        store::StoreManager::Open(store::Dir::Real(), dirpath, store_options);
    if (!store.ok()) {
      std::fprintf(stderr, "ingest store open failed: %s\n",
                   store.status().ToString().c_str());
      return false;
    }
    core::SignatureServer store_server(&oracle, server_options);
    // Settle writeback before timing: dirty pages left by earlier phases
    // (and repetitions) otherwise surface as arbitrary stalls inside this
    // run's fdatasyncs.
    ::sync();
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < ingest_n; ++i) {
      store::FeedRecord record;
      record.feed_version = store_server.feed_version();
      record.sensitive = tape[i].sensitive;
      record.packet = tape[i].packet;
      if (!(*store)->Append(std::move(record)).ok()) {
        std::fprintf(stderr, "ingest append failed\n");
        return false;
      }
      if (store_server.Ingest(tape[i].packet) && snapshots) {
        auto ts = std::chrono::steady_clock::now();
        if (!(*store)->WriteSnapshot(store_server).ok() ||
            !(*store)->Compact().ok()) {
          std::fprintf(stderr, "ingest snapshot/compact failed\n");
          return false;
        }
        out->snapshot_ms += MillisSince(ts);
      }
    }
    if (!(*store)->Sync().ok()) {
      std::fprintf(stderr, "ingest final sync failed\n");
      return false;
    }
    out->total_ms = MillisSince(start);

    if (args.selfcheck &&
        (store_server.feed_version() != mem_server->feed_version() ||
         store_server.Feed() != mem_server->Feed() ||
         store_server.suspicious_pool_size() !=
             mem_server->suspicious_pool_size())) {
      std::fprintf(stderr,
                   "SELFCHECK FAILED: store-backed ingest diverged from "
                   "in-memory (version %llu vs %llu)\n",
                   static_cast<unsigned long long>(store_server.feed_version()),
                   static_cast<unsigned long long>(mem_server->feed_version()));
      selfcheck_failed = true;
    }
    store->reset();
    if (snapshots) {
      // Recovery of what the run left: newest checkpoint, then the logged
      // epochs past it, then the records past the last publish record.
      core::SignatureServer recovered(&oracle, server_options);
      auto recover_start = std::chrono::steady_clock::now();
      auto reopened =
          store::StoreManager::Open(store::Dir::Real(), dirpath, store_options);
      auto stats = reopened.ok() ? (*reopened)->Recover(&recovered)
                                 : StatusOr<store::StoreManager::RecoveryStats>(
                                       reopened.status());
      out->recover_ms = MillisSince(recover_start);
      if (!stats.ok()) {
        std::fprintf(stderr, "ingest recovery failed: %s\n",
                     stats.status().ToString().c_str());
        return false;
      }
      out->epochs_installed = stats->epochs_installed;
      out->records_replayed = stats->records_replayed;
      if (args.selfcheck &&
          (recovered.feed_version() != store_server.feed_version() ||
           recovered.Feed() != store_server.Feed() ||
           recovered.suspicious_pool() != store_server.suspicious_pool() ||
           recovered.normal_pool() != store_server.normal_pool())) {
        std::fprintf(stderr, "SELFCHECK FAILED: recovery diverged from the "
                             "store-backed run\n");
        selfcheck_failed = true;
      }
    }
    RemoveDirRecursive(dirpath);
    return true;
  };

  IngestRun wal_only, full;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    run_mem_ingest();
    IngestRun wal_rep, full_rep;
    if (!run_store_ingest(/*snapshots=*/false, &wal_rep) ||
        !run_store_ingest(/*snapshots=*/true, &full_rep)) {
      return 2;
    }
    if (rep == 0 || wal_rep.total_ms < wal_only.total_ms) wal_only = wal_rep;
    if (rep == 0 || full_rep.total_ms < full.total_ms) full = full_rep;
  }
  wal_only.overhead =
      ingest_mem_ms > 0 ? wal_only.total_ms / ingest_mem_ms - 1.0 : 0.0;
  full.overhead = ingest_mem_ms > 0 ? full.total_ms / ingest_mem_ms - 1.0 : 0.0;
  std::printf("gateway ingest (%zu packets, %llu retrains): in-memory "
              "%8.1fms\n"
              "  wal-only %8.1fms  overhead %+6.1f%%   (acceptance metric)\n"
              "  full     %8.1fms  overhead %+6.1f%%   (%.1fms in "
              "snapshots+compaction)\n"
              "  recover  %8.1fms  (%llu logged epochs installed, %llu "
              "records replayed)\n",
              ingest_n,
              static_cast<unsigned long long>(mem_server->feed_version()),
              ingest_mem_ms, wal_only.total_ms, wal_only.overhead * 100.0,
              full.total_ms, full.overhead * 100.0, full.snapshot_ms,
              full.recover_ms,
              static_cast<unsigned long long>(full.epochs_installed),
              static_cast<unsigned long long>(full.records_replayed));

  if (!run_raw_phase()) return 2;

  std::string json = "{\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"config\": {\"records\": %zu, \"body_bytes\": %zu, "
                  "\"sync_every_n\": %zu, \"segment_mb\": %zu, \"seed\": %llu, "
                  "\"reps\": %zu, \"framed_bytes\": %llu},\n"
                  "  \"baseline\": {\"append_ms\": %.2f, "
                  "\"records_per_sec\": %.1f, \"mb_per_sec\": %.2f},\n",
                  args.records, args.body_bytes, args.sync_every_n,
                  args.segment_mb, static_cast<unsigned long long>(args.seed),
                  args.reps,
                  static_cast<unsigned long long>(framed_bytes), baseline_ms,
                  tape.size() / (baseline_ms / 1000.0),
                  mb / (baseline_ms / 1000.0));
    json += buf;
  }
  json += "  \"policies\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"policy\": \"%s\", \"append_ms\": %.2f, "
        "\"records_per_sec\": %.1f, \"mb_per_sec\": %.2f, "
        "\"overhead_vs_memory\": %.4f, \"segments\": %llu, "
        "\"replay_ms\": %.2f, \"replay_records_per_sec\": %.1f}%s\n",
        r.name.c_str(), r.append_ms, r.records_per_sec, r.mb_per_sec,
        r.overhead_vs_memory, static_cast<unsigned long long>(r.segments),
        r.replay_ms, r.replay_records_per_sec,
        i + 1 == rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n";
  {
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "  \"ingest\": {\"packets\": %zu, \"retrains\": %llu, "
        "\"policy\": \"every-n\", \"in_memory_ms\": %.2f, "
        "\"wal_only_ms\": %.2f, \"wal_only_overhead\": %.4f, "
        "\"full_ms\": %.2f, \"full_overhead\": %.4f, "
        "\"snapshot_ms\": %.2f, \"recover_ms\": %.2f, "
        "\"recover_epochs_installed\": %llu, "
        "\"recover_records_replayed\": %llu}\n",
        ingest_n, static_cast<unsigned long long>(mem_server->feed_version()),
        ingest_mem_ms, wal_only.total_ms, wal_only.overhead, full.total_ms,
        full.overhead, full.snapshot_ms, full.recover_ms,
        static_cast<unsigned long long>(full.epochs_installed),
        static_cast<unsigned long long>(full.records_replayed));
    json += buf;
  }
  json += "}\n";

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", args.out.c_str());
  return selfcheck_failed ? 1 : 0;
}
