// leakdet — command-line frontend for the whole pipeline, operating on
// files so each stage can be scripted and inspected. `leakdet` with no
// arguments lists every subcommand and the flags it reads (from the same
// table that rejects unknown flags); this block adds defaults:
//
//   leakdet generate  --out trace.jsonl --device device.tokens
//                     [--scale 0.1] [--seed 42] [--pcap trace.pcap]
//                     [--with-obfuscated-module]
//   leakdet split     --trace trace.jsonl --device device.tokens
//                     --suspicious sus.jsonl --normal normal.jsonl
//                     [--xor-key KEY]
//   leakdet sign      --suspicious sus.jsonl --normal normal.jsonl
//                     --out feed.sigs [--n 500] [--cut 2.0] [--seed 1]
//                     [--compressor lzw] [--family conj|bayes] [--bayes]
//                     [--scope-by-host]
//   leakdet detect    --signatures feed.sigs --trace trace.jsonl
//                     [--max-print 10] [--explain]
//   leakdet eval      --signatures feed.sigs --trace trace.jsonl [--n N]
//   leakdet report    --out report.md [--scale 0.05] [--seed 42] [--n N]
//   leakdet pcap-export --trace trace.jsonl --out trace.pcap
//   leakdet pcap-import --pcap trace.pcap --out trace.jsonl
//   leakdet train     --trace trace.jsonl --device device.tokens
//                     [--data-dir store/] [--out feed.sigs]
//                     [--retrain-after 200] [--n 500] [--seed 1]
//                     [--sync-policy every-record|every-n|on-rotate]
//   leakdet serve     --signatures feed.sigs [--port P] [--admin-port P]
//                     [--serve-requests N]
//   leakdet serve     --trace trace.jsonl --device device.tokens
//                     [--data-dir store/] [--port P] [--admin-port P]
//                     [--rate 500] [--loops 0] [--retrain-after 200]
//                     [--shards 2] [--n 500] [--seed 1]
//                     [--sync-policy every-record|every-n|on-rotate]
//   leakdet fetch     --port P --out feed.sigs
//   leakdet federate  [--devices 24] [--shards 4] [--events 9000]
//                     [--seed 8086] [--scale 0.05] [--skew 0.3] [--k 2]
//                     [--tenant fleet] [--out feed.sigs] [--eval]
//                     [--holdout 1200] [--shard-export PREFIX]
//                     [--from-shards a.shard,b.shard,...]
//                     [--data-dir root/]
//
// `federate` runs the crowdsourced pipeline end to end: a simulated device
// fleet is partitioned into disjoint shards (device index mod --shards),
// each shard trains its own candidate signatures plus distinct-device
// witness evidence, the exports are merged with the deterministic
// federation protocol, and the K-anonymity gate publishes only tokens seen
// on at least --k devices. --shard-export writes each shard's export to
// PREFIX<i>.shard and stops (ship them between machines); --from-shards
// skips simulation and merges previously exported shard files instead.
// --eval additionally trains a central oracle on the union of all shard
// traffic and prints the merged-vs-central scoreboard on held-out replay.
// --data-dir snapshots the published feed into the tenant's own store
// lineage (<root>/tenant-<name>/) for `leakdet_store --tenant` inspection.
//
// `serve` with --signatures serves a static feed; with --trace/--device it
// stands up the live stack (gateway + trainer + optional durable store) and
// replays the trace through it. --admin-port exposes /metrics (Prometheus),
// /healthz, and /statusz for either form.
//
// `train` streams the trace through the online SignatureServer. With
// --data-dir every packet is WAL-logged before ingestion and every published
// epoch is logged too, so a killed run resumes exactly where the log ends —
// rerun the same command and it recovers, replays, and continues.
//
// Exit status: 0 on success, 1 on any error (message on stderr), 2 on a
// --flag the subcommand does not read.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.h"
#include "core/payload_check.h"
#include "core/pipeline.h"
#include "core/siggen_seq.h"
#include "core/signature_server.h"
#include "eval/metrics.h"
#include "federation/eval.h"
#include "federation/merge.h"
#include "federation/shard_trainer.h"
#include "federation/tenant_store.h"
#include "eval/report.h"
#include "eval/table_format.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "io/feed_server.h"
#include "io/pcap.h"
#include "io/trace_io.h"
#include "obs/admin_server.h"
#include "sim/fleet.h"
#include "sim/trafficgen.h"
#include "store/store_manager.h"

namespace {

using namespace leakdet;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      std::string key(arg.substr(2));
      if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  /// The first --flag given that is not in `known` ("" if none).
  std::string FirstUnknown(const std::vector<std::string_view>& known) const {
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        return key;
      }
    }
    return "";
  }
  std::string Get(const std::string& key, std::string def = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  long GetLong(const std::string& key, long def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atol(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

StatusOr<std::vector<sim::LabeledPacket>> LoadTrace(const std::string& path) {
  LEAKDET_ASSIGN_OR_RETURN(std::string text, io::ReadFile(path));
  return io::ParseJsonl(text);
}

int CmdGenerate(const Args& args) {
  std::string out = args.Get("out");
  std::string device_out = args.Get("device");
  if (out.empty()) return Fail("generate needs --out <trace.jsonl>");

  sim::TrafficConfig config;
  config.scale = args.GetDouble("scale", 0.1);
  config.seed = static_cast<uint64_t>(args.GetLong("seed", 42));
  config.include_obfuscated_module = args.Has("with-obfuscated-module");
  sim::Trace trace = sim::GenerateTrace(config);

  if (Status s = io::WriteFile(out, io::SerializeJsonl(trace.packets));
      !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %zu packets to %s\n", trace.packets.size(), out.c_str());

  if (!device_out.empty()) {
    if (Status s = io::WriteFile(
            out.empty() ? device_out : device_out,
            io::SerializeDeviceTokens({trace.device.ToTokens()}));
        !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote device tokens to %s\n", device_out.c_str());
  }
  if (args.Has("pcap")) {
    io::PcapWriter writer;
    if (Status s = io::WriteFile(args.Get("pcap"),
                                 writer.Write(trace.RawPackets()));
        !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote capture to %s\n", args.Get("pcap").c_str());
  }
  return 0;
}

int CmdSplit(const Args& args) {
  std::string trace_path = args.Get("trace");
  std::string device_path = args.Get("device");
  std::string sus_path = args.Get("suspicious");
  std::string norm_path = args.Get("normal");
  if (trace_path.empty() || device_path.empty() || sus_path.empty() ||
      norm_path.empty()) {
    return Fail("split needs --trace --device --suspicious --normal");
  }
  auto packets = LoadTrace(trace_path);
  if (!packets.ok()) return Fail(packets.status());
  auto device_text = io::ReadFile(device_path);
  if (!device_text.ok()) return Fail(device_text.status());
  auto devices = io::ParseDeviceTokens(*device_text);
  if (!devices.ok()) return Fail(devices.status());

  std::vector<std::string> keys;
  if (args.Has("xor-key")) keys.push_back(args.Get("xor-key"));
  core::PayloadCheck oracle(*devices, keys);

  std::vector<sim::LabeledPacket> suspicious, normal;
  for (const sim::LabeledPacket& lp : *packets) {
    sim::LabeledPacket out = lp;
    out.truth = oracle.Check(lp.packet);  // re-label with the oracle
    (out.truth.empty() ? normal : suspicious).push_back(std::move(out));
  }
  if (Status s = io::WriteFile(sus_path, io::SerializeJsonl(suspicious));
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = io::WriteFile(norm_path, io::SerializeJsonl(normal));
      !s.ok()) {
    return Fail(s);
  }
  std::printf("payload check: %zu suspicious -> %s, %zu normal -> %s\n",
              suspicious.size(), sus_path.c_str(), normal.size(),
              norm_path.c_str());
  return 0;
}

int CmdSign(const Args& args) {
  std::string sus_path = args.Get("suspicious");
  std::string norm_path = args.Get("normal");
  std::string out = args.Get("out");
  if (sus_path.empty() || norm_path.empty() || out.empty()) {
    return Fail("sign needs --suspicious --normal --out");
  }
  auto sus = LoadTrace(sus_path);
  if (!sus.ok()) return Fail(sus.status());
  auto norm = LoadTrace(norm_path);
  if (!norm.ok()) return Fail(norm.status());
  std::vector<core::HttpPacket> suspicious, normal;
  for (const auto& lp : *sus) suspicious.push_back(lp.packet);
  for (const auto& lp : *norm) normal.push_back(lp.packet);

  core::PipelineOptions options;
  options.sample_size = static_cast<size_t>(args.GetLong("n", 500));
  options.cut_height = args.GetDouble("cut", options.cut_height);
  options.compressor = args.Get("compressor", options.compressor);
  options.seed = static_cast<uint64_t>(args.GetLong("seed", 1));
  options.siggen.scope_by_host = args.Has("scope-by-host");

  std::string family = args.Get("family", args.Has("bayes") ? "bayes" : "conj");
  std::string feed;
  size_t count = 0;
  if (family == "bayes") {
    core::BayesPipelineOptions bayes_options;
    bayes_options.base = options;
    auto result = core::RunBayesPipeline(suspicious, normal, bayes_options);
    if (!result.ok()) return Fail(result.status());
    count = result->signatures.size();
    feed = result->signatures.Serialize();
  } else if (family == "seq") {
    auto clustering = core::RunClustering(suspicious, normal, options);
    if (!clustering.ok()) return Fail(clustering.status());
    core::SubsequenceSignatureGenerator gen(options.siggen);
    match::SubsequenceSignatureSet set =
        gen.Generate(clustering->sample, clustering->clusters,
                     clustering->normal_corpus);
    count = set.size();
    feed = set.Serialize();
  } else if (family == "conj") {
    auto result = core::RunPipeline(suspicious, normal, options);
    if (!result.ok()) return Fail(result.status());
    count = result->signatures.size();
    feed = result->signatures.Serialize();
  } else {
    return Fail("--family must be conj, seq, or bayes");
  }
  if (Status s = io::WriteFile(out, feed); !s.ok()) return Fail(s);
  std::printf("wrote %zu %s signatures to %s\n", count, family.c_str(),
              out.c_str());
  return 0;
}

/// Loads either signature format by sniffing the header line.
struct AnyDetector {
  std::unique_ptr<core::Detector> conjunction;
  std::unique_ptr<core::SubsequenceDetector> subsequence;
  std::unique_ptr<core::BayesDetector> bayes;

  bool IsSensitive(const core::HttpPacket& p) const {
    if (conjunction) return conjunction->IsSensitive(p);
    if (subsequence) return subsequence->IsSensitive(p);
    return bayes->IsSensitive(p);
  }
  size_t size() const {
    if (conjunction) return conjunction->signatures().size();
    if (subsequence) return subsequence->signatures().size();
    return bayes->signatures().size();
  }
};

StatusOr<AnyDetector> LoadDetector(const std::string& path) {
  LEAKDET_ASSIGN_OR_RETURN(std::string text, io::ReadFile(path));
  AnyDetector detector;
  if (text.rfind("leakdet-bayes-signatures", 0) == 0) {
    LEAKDET_ASSIGN_OR_RETURN(match::BayesSignatureSet set,
                             match::BayesSignatureSet::Deserialize(text));
    detector.bayes = std::make_unique<core::BayesDetector>(std::move(set));
  } else if (text.rfind("leakdet-subseq-signatures", 0) == 0) {
    LEAKDET_ASSIGN_OR_RETURN(match::SubsequenceSignatureSet set,
                             match::SubsequenceSignatureSet::Deserialize(text));
    detector.subsequence =
        std::make_unique<core::SubsequenceDetector>(std::move(set));
  } else {
    LEAKDET_ASSIGN_OR_RETURN(match::SignatureSet set,
                             match::SignatureSet::Deserialize(text));
    detector.conjunction =
        std::make_unique<core::Detector>(std::move(set));
  }
  return detector;
}

int CmdDetect(const Args& args) {
  std::string sig_path = args.Get("signatures");
  std::string trace_path = args.Get("trace");
  if (sig_path.empty() || trace_path.empty()) {
    return Fail("detect needs --signatures --trace");
  }
  auto detector = LoadDetector(sig_path);
  if (!detector.ok()) return Fail(detector.status());
  auto packets = LoadTrace(trace_path);
  if (!packets.ok()) return Fail(packets.status());

  long max_print = args.GetLong("max-print", 10);
  bool explain = args.Has("explain");
  size_t flagged = 0;
  long printed = 0;
  for (const sim::LabeledPacket& lp : *packets) {
    if (!detector->IsSensitive(lp.packet)) continue;
    ++flagged;
    if (printed < max_print) {
      ++printed;
      std::printf("FLAGGED app=%u host=%s %.*s\n", lp.packet.app_id,
                  lp.packet.destination.host.c_str(), 70,
                  lp.packet.request_line.c_str());
      if (explain && detector->conjunction) {
        for (const auto& why : detector->conjunction->Explain(lp.packet)) {
          std::printf("  by %s:\n", why.signature_id.c_str());
          for (const auto& hit : why.hits) {
            std::printf("    @%-5zu %.60s\n", hit.offset, hit.token.c_str());
          }
        }
      }
    }
  }
  std::printf("%zu of %zu packets flagged by %zu signatures\n", flagged,
              packets->size(), detector->size());
  return 0;
}

int CmdEval(const Args& args) {
  std::string sig_path = args.Get("signatures");
  std::string trace_path = args.Get("trace");
  if (sig_path.empty() || trace_path.empty()) {
    return Fail("eval needs --signatures --trace (with truth labels)");
  }
  auto detector = LoadDetector(sig_path);
  if (!detector.ok()) return Fail(detector.status());
  auto packets = LoadTrace(trace_path);
  if (!packets.ok()) return Fail(packets.status());

  eval::ConfusionCounts counts;
  counts.sample_size = static_cast<size_t>(args.GetLong("n", 0));
  for (const sim::LabeledPacket& lp : *packets) {
    bool flagged = detector->IsSensitive(lp.packet);
    if (!lp.truth.empty()) {
      counts.sensitive_total++;
      if (flagged) counts.detected_sensitive++;
    } else {
      counts.normal_total++;
      if (flagged) counts.detected_normal++;
    }
  }
  eval::DetectionRates paper = eval::ComputePaperRates(counts);
  eval::StandardRates standard = eval::ComputeStandardRates(counts);
  std::printf("sensitive: %zu (detected %zu)   normal: %zu (false alarms %zu)\n",
              counts.sensitive_total, counts.detected_sensitive,
              counts.normal_total, counts.detected_normal);
  std::printf("paper formulas (N=%zu): TP %s  FN %s  FP %s\n",
              counts.sample_size, eval::FormatPercent(paper.tp).c_str(),
              eval::FormatPercent(paper.fn).c_str(),
              eval::FormatPercent(paper.fp).c_str());
  std::printf("standard: recall %s  FPR %s  precision %s  F1 %s\n",
              eval::FormatPercent(standard.recall).c_str(),
              eval::FormatPercent(standard.fpr).c_str(),
              eval::FormatPercent(standard.precision).c_str(),
              eval::FormatPercent(standard.f1).c_str());
  return 0;
}

int CmdPcapExport(const Args& args) {
  std::string trace_path = args.Get("trace");
  std::string out = args.Get("out");
  if (trace_path.empty() || out.empty()) {
    return Fail("pcap-export needs --trace --out");
  }
  auto packets = LoadTrace(trace_path);
  if (!packets.ok()) return Fail(packets.status());
  std::vector<core::HttpPacket> raw;
  for (const auto& lp : *packets) raw.push_back(lp.packet);
  io::PcapWriter writer;
  if (Status s = io::WriteFile(out, writer.Write(raw)); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %zu frames to %s\n", raw.size(), out.c_str());
  return 0;
}

int CmdPcapImport(const Args& args) {
  std::string pcap_path = args.Get("pcap");
  std::string out = args.Get("out");
  if (pcap_path.empty() || out.empty()) {
    return Fail("pcap-import needs --pcap --out");
  }
  auto data = io::ReadFile(pcap_path);
  if (!data.ok()) return Fail(data.status());
  auto packets = io::ReadPcap(*data);
  if (!packets.ok()) return Fail(packets.status());
  std::vector<sim::LabeledPacket> labeled;
  for (auto& p : *packets) {
    sim::LabeledPacket lp;
    lp.packet = std::move(p);
    labeled.push_back(std::move(lp));  // labels re-derivable via `split`
  }
  if (Status s = io::WriteFile(out, io::SerializeJsonl(labeled)); !s.ok()) {
    return Fail(s);
  }
  std::printf("imported %zu packets from %s to %s (labels cleared; run "
              "`split` to re-label)\n",
              labeled.size(), pcap_path.c_str(), out.c_str());
  return 0;
}

int CmdReport(const Args& args) {
  std::string out = args.Get("out");
  if (out.empty()) return Fail("report needs --out <report.md>");
  sim::TrafficConfig config;
  config.scale = args.GetDouble("scale", 0.05);
  config.seed = static_cast<uint64_t>(args.GetLong("seed", 42));
  sim::Trace trace = sim::GenerateTrace(config);
  eval::ReportOptions options;
  if (args.Has("n")) {
    options.sample_sizes = {static_cast<size_t>(args.GetLong("n", 200))};
  }
  auto report = eval::GenerateMarkdownReport(trace, options);
  if (!report.ok()) return Fail(report.status());
  if (Status s = io::WriteFile(out, *report); !s.ok()) return Fail(s);
  std::printf("wrote study report to %s\n", out.c_str());
  return 0;
}

/// Registers the standard /statusz sections for a serving stack: the
/// gateway's live epoch and, when a store is attached, the WAL watermark
/// gauges the StoreManager mirrors into the registry.
void AddServeStatusSections(obs::AdminServer* admin,
                            const gateway::DetectionGateway* gw,
                            obs::Registry* registry, bool with_store) {
  admin->AddStatusSection("gateway", [gw] {
    return "epoch_version: " + std::to_string(gw->current_version()) +
           "\nepoch_age_ns: " + std::to_string(gw->epoch_age_ns()) + "\n";
  });
  if (with_store) {
    admin->AddStatusSection("store", [registry] {
      return "wal_last_sequence: " +
             std::to_string(
                 registry->GetGauge("store.wal_last_sequence")->Value()) +
             "\nwal_durable_sequence: " +
             std::to_string(
                 registry->GetGauge("store.wal_durable_sequence")->Value()) +
             "\nsnapshot_version: " +
             std::to_string(
                 registry->GetGauge("store.snapshot_version")->Value()) +
             "\n";
    });
  }
}

/// `serve` with --trace/--device: the full serving stack — gateway +
/// trainer (+ durable store with --data-dir) — with the feed served from
/// the gateway's live epoch and the trace replayed through the shards at
/// --rate pkt/s so every layer keeps producing metrics for the admin plane.
int CmdServeLive(const Args& args) {
  auto packets = LoadTrace(args.Get("trace"));
  if (!packets.ok()) return Fail(packets.status());
  auto device_text = io::ReadFile(args.Get("device"));
  if (!device_text.ok()) return Fail(device_text.status());
  auto devices = io::ParseDeviceTokens(*device_text);
  if (!devices.ok()) return Fail(devices.status());
  core::PayloadCheck oracle(*devices);

  core::SignatureServer::Options server_options;
  server_options.retrain_after =
      static_cast<size_t>(args.GetLong("retrain-after", 200));
  server_options.pipeline.sample_size =
      static_cast<size_t>(args.GetLong("n", 500));
  server_options.pipeline.seed = static_cast<uint64_t>(args.GetLong("seed", 1));
  core::SignatureServer server(&oracle, server_options);

  // Everything shares the process-global registry so one admin server
  // scrapes the whole stack.
  obs::Registry* registry = obs::Registry::Default();
  gateway::GatewayOptions gw_options;
  gw_options.registry = registry;
  gw_options.num_shards = static_cast<size_t>(args.GetLong("shards", 2));
  gateway::DetectionGateway gateway(gw_options);

  std::unique_ptr<store::StoreManager> store;
  std::string data_dir = args.Get("data-dir");
  if (!data_dir.empty()) {
    store::StoreOptions store_options;
    if (args.Has("sync-policy")) {
      auto policy = store::ParseSyncPolicy(args.Get("sync-policy"));
      if (!policy.ok()) return Fail(policy.status());
      store_options.wal.sync_policy = *policy;
    }
    auto opened = store::StoreManager::Open(store::Dir::Real(), data_dir,
                                            store_options);
    if (!opened.ok()) return Fail(opened.status());
    store = std::move(*opened);
    auto recovery = store->Recover(&server);
    if (!recovery.ok()) return Fail(recovery.status());
  }

  gateway::TrainerOptions trainer_options;
  trainer_options.store = store.get();
  gateway::TrainerLoop trainer(&server, &gateway, trainer_options);
  gateway.set_sink(trainer.Sink());
  if (Status s = gateway.Start(); !s.ok()) return Fail(s);
  if (Status s = trainer.Start(); !s.ok()) return Fail(s);

  io::FeedServer feed_server([&gateway] {
    auto set = gateway.current_set();
    if (set == nullptr) return std::make_pair(uint64_t{0}, std::string());
    return std::make_pair(set->version(), set->set().Serialize());
  });
  if (Status s =
          feed_server.Start(static_cast<uint16_t>(args.GetLong("port", 0)));
      !s.ok()) {
    return Fail(s);
  }

  obs::AdminServer admin;  // Registry::Default(), like the stack above
  AddServeStatusSections(&admin, &gateway, registry,
                         /*with_store=*/store != nullptr);
  if (Status s =
          admin.Start(static_cast<uint16_t>(args.GetLong("admin-port", 0)));
      !s.ok()) {
    return Fail(s);
  }
  std::printf("serving live feed at http://127.0.0.1:%u/feed\n",
              feed_server.port());
  std::printf("admin plane at http://127.0.0.1:%u/metrics\n", admin.port());

  // Replay the trace through the gateway, looping --loops times (0 =
  // forever) at --rate pkt/s. Every packet's verdict feeds the trainer, so
  // epochs keep publishing and the feed keeps advancing.
  double rate = args.GetDouble("rate", 500);
  long loops = args.GetLong("loops", 0);
  auto replay_start = std::chrono::steady_clock::now();
  size_t submitted = 0;
  for (long loop = 0; loops == 0 || loop < loops; ++loop) {
    for (const sim::LabeledPacket& lp : *packets) {
      gateway.Submit(lp.packet.app_id, lp.packet);
      ++submitted;
      if (rate > 0 && (submitted & 63) == 0) {
        double target = static_cast<double>(submitted) / rate;
        double actual = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - replay_start)
                            .count();
        if (actual < target) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(target - actual));
        }
      }
    }
  }
  gateway.Stop();
  trainer.Stop();
  feed_server.Stop();
  admin.Stop();
  if (store != nullptr) {
    if (Status s = store->Sync(); !s.ok()) return Fail(s);
  }
  std::printf("replayed %zu packets, feed version %llu\n", submitted,
              static_cast<unsigned long long>(gateway.current_version()));
  return 0;
}

int CmdServe(const Args& args) {
  if (args.Has("trace") && args.Has("device")) return CmdServeLive(args);
  std::string sig_path = args.Get("signatures");
  if (sig_path.empty()) {
    return Fail("serve needs --signatures (or --trace --device for the "
                "live stack)");
  }
  auto feed = io::ReadFile(sig_path);
  if (!feed.ok()) return Fail(feed.status());
  std::string payload = *feed;
  io::FeedServer server([&payload] {
    return std::make_pair(uint64_t{1}, payload);
  });
  uint16_t port = static_cast<uint16_t>(args.GetLong("port", 0));
  if (Status s = server.Start(port); !s.ok()) return Fail(s);
  std::printf("serving %zu-byte feed at http://127.0.0.1:%u/feed\n",
              payload.size(), server.port());
  // --admin-port exposes /metrics (the process-global registry the feed
  // server reports into), /healthz, and /statusz beside the feed.
  obs::AdminServer admin;
  if (args.Has("admin-port")) {
    admin.AddStatusSection("feed", [&server, &payload] {
      return "feed_bytes: " + std::to_string(payload.size()) +
             "\nrequests_served: " + std::to_string(server.requests_served()) +
             "\n";
    });
    if (Status s =
            admin.Start(static_cast<uint16_t>(args.GetLong("admin-port", 0)));
        !s.ok()) {
      return Fail(s);
    }
    std::printf("admin plane at http://127.0.0.1:%u/metrics\n", admin.port());
  }
  long max_requests = args.GetLong("serve-requests", 0);
  if (max_requests > 0) {
    // Test-friendly mode: exit after N requests.
    while (server.requests_served() < static_cast<uint64_t>(max_requests)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    server.Stop();
    admin.Stop();
    std::printf("served %llu requests, exiting\n",
                static_cast<unsigned long long>(server.requests_served()));
    return 0;
  }
  std::printf("press Ctrl-C to stop\n");
  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

int CmdFetch(const Args& args) {
  uint16_t port = static_cast<uint16_t>(args.GetLong("port", 0));
  std::string out = args.Get("out");
  if (port == 0 || out.empty()) return Fail("fetch needs --port --out");
  auto feed = io::FetchFeed(port);
  if (!feed.ok()) return Fail(feed.status());
  if (Status s = io::WriteFile(out, feed->payload); !s.ok()) return Fail(s);
  std::printf("fetched feed version %llu (%zu bytes) to %s\n",
              static_cast<unsigned long long>(feed->version),
              feed->payload.size(), out.c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  std::string trace_path = args.Get("trace");
  std::string device_path = args.Get("device");
  if (trace_path.empty() || device_path.empty()) {
    return Fail("train needs --trace --device [--data-dir --out]");
  }
  auto packets = LoadTrace(trace_path);
  if (!packets.ok()) return Fail(packets.status());
  auto device_text = io::ReadFile(device_path);
  if (!device_text.ok()) return Fail(device_text.status());
  auto devices = io::ParseDeviceTokens(*device_text);
  if (!devices.ok()) return Fail(devices.status());
  core::PayloadCheck oracle(*devices);

  core::SignatureServer::Options options;
  options.retrain_after =
      static_cast<size_t>(args.GetLong("retrain-after", 200));
  options.pipeline.sample_size = static_cast<size_t>(args.GetLong("n", 500));
  options.pipeline.seed = static_cast<uint64_t>(args.GetLong("seed", 1));
  core::SignatureServer server(&oracle, options);

  // With --data-dir the run is durable: recover whatever an earlier
  // (possibly killed) invocation logged, then resume the trace right after
  // the last logged packet.
  std::unique_ptr<store::StoreManager> store;
  size_t resume = 0;
  std::string data_dir = args.Get("data-dir");
  if (!data_dir.empty()) {
    store::StoreOptions store_options;
    if (args.Has("sync-policy")) {
      auto policy = store::ParseSyncPolicy(args.Get("sync-policy"));
      if (!policy.ok()) return Fail(policy.status());
      store_options.wal.sync_policy = *policy;
    }
    auto opened = store::StoreManager::Open(store::Dir::Real(), data_dir,
                                            store_options);
    if (!opened.ok()) return Fail(opened.status());
    store = std::move(*opened);
    auto recovery = store->Recover(&server);
    if (!recovery.ok()) return Fail(recovery.status());
    resume = static_cast<size_t>(store->last_sequence());
    if (resume > packets->size()) {
      return Fail("store at " + data_dir + " holds " +
                  std::to_string(resume) +
                  " records but the trace has only " +
                  std::to_string(packets->size()) + " packets");
    }
    if (recovery->snapshot_loaded || recovery->replay.applied > 0) {
      std::printf("recovered: snapshot v%llu, %llu logged epochs installed, "
                  "%llu records replayed, resuming at packet %zu\n",
                  static_cast<unsigned long long>(recovery->snapshot_version),
                  static_cast<unsigned long long>(recovery->epochs_installed),
                  static_cast<unsigned long long>(recovery->records_replayed),
                  resume);
    }
  }

  for (size_t i = resume; i < packets->size(); ++i) {
    const sim::LabeledPacket& lp = (*packets)[i];
    if (store != nullptr) {
      store::FeedRecord record;
      record.feed_version = server.feed_version();
      record.sensitive = !lp.truth.empty();
      record.packet = lp.packet;
      if (auto appended = store->Append(std::move(record)); !appended.ok()) {
        return Fail(appended.status());
      }
    }
    if (server.Ingest(lp.packet) && store != nullptr) {
      if (Status s = store->WriteSnapshot(server); !s.ok()) return Fail(s);
      if (auto compacted = store->Compact(); !compacted.ok()) {
        return Fail(compacted.status());
      }
    }
  }
  if (store != nullptr) {
    if (Status s = store->Sync(); !s.ok()) return Fail(s);
  }

  std::printf("trained on %zu packets (%zu resumed from the store): feed "
              "version %llu, %zu signatures\n",
              packets->size(), resume,
              static_cast<unsigned long long>(server.feed_version()),
              server.signatures().size());
  std::string out = args.Get("out");
  if (!out.empty()) {
    if (Status s = io::WriteFile(out, server.Feed()); !s.ok()) return Fail(s);
    std::printf("wrote feed to %s\n", out.c_str());
  }
  return 0;
}

/// Snapshots a published federated feed into `tenant`'s store lineage under
/// `root`, so the feed participates in the same durability/recovery story as
/// a live trainer's epochs.
Status PersistFederatedFeed(const std::string& root, const std::string& tenant,
                            const core::PayloadCheck* oracle,
                            const match::SignatureSet& published) {
  federation::TenantStoreSet stores(store::Dir::Real(), root,
                                    store::StoreOptions());
  LEAKDET_ASSIGN_OR_RETURN(store::StoreManager * store, stores.Open(tenant));
  core::SignatureServer server(oracle, core::SignatureServer::Options());
  // Recover first: a re-published merge must advance the lineage's version,
  // never rewind it.
  LEAKDET_ASSIGN_OR_RETURN(store::StoreManager::RecoveryStats stats,
                           store->Recover(&server));
  (void)stats;
  core::SignatureServer::State state;
  state.feed_version = server.feed_version() + 1;
  state.signatures = published;
  server.Restore(std::move(state));
  return store->WriteSnapshot(server);
}

int CmdFederate(const Args& args) {
  const size_t k = static_cast<size_t>(args.GetLong("k", 2));
  const std::string tenant = args.Get("tenant", "fleet");
  const std::string out = args.Get("out");

  std::vector<federation::ShardExport> exports;
  std::unique_ptr<sim::Fleet> fleet;
  std::unique_ptr<core::PayloadCheck> oracle;
  std::unique_ptr<federation::ShardTrainer> central;

  if (args.Has("from-shards")) {
    // Merge-only mode: the shards were trained elsewhere (possibly on other
    // machines) and shipped as export files.
    std::string list = args.Get("from-shards");
    for (size_t begin = 0; begin <= list.size();) {
      size_t comma = list.find(',', begin);
      if (comma == std::string::npos) comma = list.size();
      std::string path = list.substr(begin, comma - begin);
      begin = comma + 1;
      if (path.empty()) continue;
      auto text = io::ReadFile(path);
      if (!text.ok()) return Fail(text.status());
      auto shard = federation::ParseShardExport(*text);
      if (!shard.ok()) {
        return Fail(Status(shard.status().code(),
                           path + ": " + std::string(shard.status().message())));
      }
      exports.push_back(std::move(*shard));
    }
    if (exports.empty()) {
      return Fail("federate --from-shards needs a comma-separated list of "
                  "shard export files");
    }
    std::printf("loaded %zu shard export(s)\n", exports.size());
  } else {
    // Fleet-simulation mode: stand up the device fleet, partition it into
    // disjoint shards by device index, and train every shard locally.
    const size_t num_shards =
        static_cast<size_t>(std::max(1l, args.GetLong("shards", 4)));
    const size_t events = static_cast<size_t>(args.GetLong("events", 9000));
    sim::FleetConfig config;
    config.seed = static_cast<uint64_t>(args.GetLong("seed", 8086));
    config.num_devices =
        static_cast<size_t>(std::max(1l, args.GetLong("devices", 24)));
    config.device_skew = args.GetDouble("skew", 0.3);
    config.market.seed = config.seed + 1;
    config.market.scale = args.GetDouble("scale", 0.05);
    fleet = std::make_unique<sim::Fleet>(config);
    std::vector<core::DeviceTokens> tokens;
    for (uint64_t index = 0; index < fleet->num_devices(); ++index) {
      tokens.push_back(fleet->DeviceAt(index).ToTokens());
    }
    oracle = std::make_unique<core::PayloadCheck>(tokens);

    federation::ShardTrainerOptions trainer_options;
    trainer_options.tenant = tenant;
    trainer_options.pipeline.sample_size =
        static_cast<size_t>(args.GetLong("n", 500));
    trainer_options.pipeline.num_threads = 1;
    std::vector<federation::ShardTrainer> shards;
    for (size_t shard = 0; shard < num_shards; ++shard) {
      shards.emplace_back(trainer_options, oracle.get());
    }
    if (args.Has("eval")) {
      central =
          std::make_unique<federation::ShardTrainer>(trainer_options,
                                                     oracle.get());
    }

    sim::Fleet::Stream stream = fleet->NewStream(1);
    for (size_t i = 0; i < events; ++i) {
      sim::Fleet::Event event = stream.Next();
      uint64_t key = fleet->DeviceKey(event.device_index);
      shards[event.device_index % num_shards].Observe(key,
                                                      event.packet.packet);
      if (central != nullptr) central->Observe(key, event.packet.packet);
    }
    std::printf("fleet: %zu devices, %zu events across %zu shard(s)\n",
                fleet->num_devices(), events, num_shards);

    for (size_t shard = 0; shard < num_shards; ++shard) {
      auto trained = shards[shard].Train();
      if (!trained.ok()) return Fail(trained.status());
      std::printf("  shard %zu: %zu packets observed, %zu candidate "
                  "signature(s)\n",
                  shard, static_cast<size_t>(shards[shard].observed_packets()),
                  trained->candidates.size());
      exports.push_back(std::move(*trained));
    }

    if (args.Has("shard-export")) {
      // Ship mode: write each export and stop; another invocation (possibly
      // elsewhere) merges them with --from-shards.
      std::string prefix = args.Get("shard-export");
      for (size_t shard = 0; shard < exports.size(); ++shard) {
        std::string path = prefix + std::to_string(shard) + ".shard";
        if (Status s = io::WriteFile(
                path, federation::SerializeShardExport(exports[shard]));
            !s.ok()) {
          return Fail(s);
        }
        std::printf("wrote %s\n", path.c_str());
      }
      return 0;
    }
  }

  auto merged = federation::MergeAll(exports);
  if (!merged.ok()) return Fail(merged.status());
  federation::PublishStats stats;
  match::SignatureSet published = federation::PublishFederated(*merged, k,
                                                               &stats);
  std::printf("merged %zu export(s) for tenant \"%s\": %zu device(s) "
              "witnessed, %zu candidate(s)\n",
              exports.size(), merged->tenant.c_str(), merged->DeviceCount(),
              merged->candidates.size());
  std::printf("k-anonymity gate (K=%zu): %zu/%zu token(s) suppressed, "
              "%zu dropped + %zu absorbed candidate(s), %zu signature(s) "
              "published\n",
              k, stats.tokens_suppressed, stats.tokens_total,
              stats.signatures_dropped, stats.signatures_absorbed,
              stats.signatures_published);

  if (args.Has("eval")) {
    if (central == nullptr) {
      return Fail("federate --eval needs the simulation path (it trains a "
                  "central oracle on the union of shard traffic); drop "
                  "--from-shards");
    }
    auto central_export = central->Train();
    if (!central_export.ok()) return Fail(central_export.status());
    match::SignatureSet central_published =
        federation::PublishFederated(*central_export, k);
    std::vector<federation::LabeledReplayPacket> holdout;
    const size_t holdout_n =
        static_cast<size_t>(args.GetLong("holdout", 1200));
    sim::Fleet::Stream stream = fleet->NewStream(99);
    while (holdout.size() < holdout_n) {
      sim::Fleet::Event event = stream.Next();
      holdout.push_back({event.packet.packet, event.packet.sensitive()});
    }
    core::Detector merged_detector(published);
    core::Detector central_detector(central_published);
    federation::Scoreboard board = federation::CompareOnReplay(
        merged_detector, central_detector, holdout);
    std::printf("%s", federation::FormatScoreboard(board).c_str());
  }

  std::string data_dir = args.Get("data-dir");
  if (!data_dir.empty()) {
    if (oracle == nullptr) {
      // --from-shards carries no device tokens; the store snapshot only
      // needs a server shell, so an empty oracle is sufficient.
      oracle = std::make_unique<core::PayloadCheck>(
          std::vector<core::DeviceTokens>{});
    }
    if (Status s = PersistFederatedFeed(data_dir, tenant, oracle.get(),
                                        published);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("snapshotted feed into %s/%s\n", data_dir.c_str(),
                federation::TenantDirName(tenant).c_str());
  }
  if (!out.empty()) {
    if (Status s = io::WriteFile(out, published.Serialize()); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %zu-signature federated feed to %s\n",
                published.size(), out.c_str());
  }
  return 0;
}

/// A subcommand and every --flag it reads; any other flag is rejected
/// before the command runs, so a typo never runs with defaults.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"generate", CmdGenerate,
       {"out", "device", "scale", "seed", "with-obfuscated-module", "pcap"}},
      {"split", CmdSplit,
       {"trace", "device", "suspicious", "normal", "xor-key"}},
      {"sign", CmdSign,
       {"suspicious", "normal", "out", "n", "cut", "compressor", "seed",
        "scope-by-host", "family", "bayes"}},
      {"detect", CmdDetect, {"signatures", "trace", "max-print", "explain"}},
      {"eval", CmdEval, {"signatures", "trace", "n"}},
      {"pcap-export", CmdPcapExport, {"trace", "out"}},
      {"pcap-import", CmdPcapImport, {"pcap", "out"}},
      {"report", CmdReport, {"out", "scale", "seed", "n"}},
      // Both forms: a static feed, and the live stack (CmdServeLive).
      {"serve", CmdServe,
       {"signatures", "port", "admin-port", "serve-requests", "trace",
        "device", "retrain-after", "n", "seed", "shards", "data-dir",
        "sync-policy", "rate", "loops"}},
      {"fetch", CmdFetch, {"port", "out"}},
      {"train", CmdTrain,
       {"trace", "device", "data-dir", "out", "retrain-after", "n", "seed",
        "sync-policy"}},
      {"federate", CmdFederate,
       {"k", "tenant", "out", "from-shards", "shards", "events", "seed",
        "devices", "skew", "scale", "n", "eval", "shard-export", "holdout",
        "data-dir"}},
  };
  return commands;
}

/// Lists every subcommand with the flags Commands() accepts for it.
int Usage() {
  constexpr size_t kIndent = 14;
  std::string text = "usage: leakdet <command> [--flag value ...]\n";
  for (const Command& command : Commands()) {
    std::string line = "  " + std::string(command.name);
    line.resize(std::max(line.size(), kIndent), ' ');
    for (std::string_view flag : command.flags) {
      if (line.size() + 3 + flag.size() > 79) {
        text += line + "\n";
        line.assign(kIndent, ' ');
      }
      line += " --";
      line += flag;
    }
    text += line + "\n";
  }
  text += "defaults: see the header of tools/leakdet_cli.cpp\n";
  std::fputs(text.c_str(), stderr);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string_view name = argv[1];
  Args args(argc, argv);
  for (const Command& command : Commands()) {
    if (command.name != name) continue;
    if (std::string unknown = args.FirstUnknown(command.flags);
        !unknown.empty()) {
      std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
      return 2;
    }
    return command.run(args);
  }
  return Usage();
}
