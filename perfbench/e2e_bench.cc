// End-to-end, layer-by-layer benchmark of the Fig. 3 loop on trained feeds.
//
//   e2e_bench --workload serve_trained|retrain_steady|live_loop
//             [--seed N] [--seconds S] [--trace 0|1] [--size full|self]
//             [--work-dir DIR]
//   e2e_bench --list-metrics
//
// Progress and failed checks go to stderr. The last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1 (spans are written to DIR/spans-<workload>.jsonl). The
// exit status is 1 if any output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using perfbench::Args;

int Usage(const char* error) {
  std::fprintf(stderr,
               "%s\nusage: e2e_bench --workload serve_trained|retrain_steady|"
               "live_loop [--seed N] [--seconds S] [--trace 0|1] "
               "[--size full|self] [--work-dir DIR] | --list-metrics\n",
               error);
  return 2;
}

void ListMetrics() {
  for (const auto& [name, unit] : perfbench::EndToEndMetrics()) {
    std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
  }
  for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
    std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
    } else if (flag == "--size") {
      args.size = value;
      if (value != "full" && value != "self") {
        return Usage("--size must be full or self");
      }
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 120)) {
    return Usage("--seconds must be in (0, 120]");
  }
  std::filesystem::create_directories(args.work_dir);

  perfbench::Tracer tracer(args.trace);
  perfbench::Result result;
  if (args.workload == "serve_trained") {
    result = perfbench::RunServeTrained(args, tracer);
  } else if (args.workload == "retrain_steady") {
    result = perfbench::RunRetrainSteady(args, tracer);
  } else if (args.workload == "live_loop") {
    result = perfbench::RunLiveLoop(args, tracer);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  // The reconciliation rule: under the self-check, the layer spans must
  // cover at least 90% of the wall of the benchmark thread (retrain_steady)
  // and of the per-packet path (serve_trained).
  if (args.trace && args.self_check() && args.workload != "live_loop") {
    auto coverage = result.metrics.find("coverage_ratio");
    result.Check(coverage != result.metrics.end() &&
                     coverage->second.first >= 0.9,
                 "layer spans cover less than 90% of the measured wall");
  }

  // Every catalog metric is reported. A per-layer metric whose layer this
  // workload does not exercise reads 0; a missing end-to-end metric is a
  // benchmark bug.
  const auto& catalog = args.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics();
  for (const auto& [name, unit] : catalog) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      if (!args.trace && result.correct) {
        result.Fail("end-to-end metric " + name + " was not measured");
      }
      result.Set(name, 0, unit);
    } else if (it->second.second != unit) {
      result.Fail("metric " + name + " reported in " + it->second.second);
    }
  }

  if (args.trace) {
    std::string path = args.work_dir + "/spans-" + args.workload + ".jsonl";
    if (tracer.Write(path)) {
      std::fprintf(stderr, "spans: %llu recorded, written to %s\n",
                   static_cast<unsigned long long>(tracer.spans()),
                   path.c_str());
    }
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n", result.Json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
