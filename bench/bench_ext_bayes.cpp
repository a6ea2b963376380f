// Extension: the three Polygraph-style signature families on the same
// clustering — conjunction (the paper's §IV-E), token subsequence (field
// order enforced), and probabilistic/Bayes (weighted tokens; the paper's
// §VI future work, refs [14], [30]) — swept over the Figure 4 sample sizes.

#include <cstdio>

#include "bench_util.h"
#include "core/pipeline.h"
#include "core/siggen_bayes.h"
#include "core/siggen_seq.h"
#include "eval/experiment.h"
#include "eval/roc.h"
#include "eval/table_format.h"

namespace {

using namespace leakdet;

template <typename DetectorT>
eval::DetectionRates Score(const DetectorT& detector, const sim::Trace& trace,
                           size_t n) {
  eval::ConfusionCounts counts;
  counts.sample_size = n;
  for (const sim::LabeledPacket& lp : trace.packets) {
    bool flagged = detector.IsSensitive(lp.packet);
    if (lp.sensitive()) {
      counts.sensitive_total++;
      if (flagged) counts.detected_sensitive++;
    } else {
      counts.normal_total++;
      if (flagged) counts.detected_normal++;
    }
  }
  return eval::ComputePaperRates(counts);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  sim::Trace trace = bench::GenerateBenchTrace(args);

  std::vector<core::HttpPacket> suspicious, normal;
  trace.SplitByTruth(&suspicious, &normal);

  std::printf("Signature families: conjunction vs subsequence vs Bayes\n");
  eval::TablePrinter table({"N", "conj TP", "conj FP", "subseq TP",
                            "subseq FP", "bayes TP", "bayes FP"});
  for (int base_n : {100, 300, 500}) {
    size_t n = static_cast<size_t>(base_n * args.scale + 0.5);

    core::PipelineOptions options;
    options.seed = args.seed;
    options.sample_size = n;

    // One shared clustering; three generators.
    auto clustering = core::RunClustering(suspicious, normal, options);
    if (!clustering.ok()) {
      std::fprintf(stderr, "clustering failed: %s\n",
                   clustering.status().ToString().c_str());
      return 1;
    }

    core::SignatureGenerator conj_gen(options.siggen);
    core::Detector conj_detector(
        conj_gen.Generate(clustering->sample, clustering->clusters,
                          clustering->normal_corpus),
        options.siggen.scope_by_host);
    eval::DetectionRates conj = Score(conj_detector, trace, n);

    core::SubsequenceSignatureGenerator seq_gen(options.siggen);
    core::SubsequenceDetector seq_detector(
        seq_gen.Generate(clustering->sample, clustering->clusters,
                         clustering->normal_corpus),
        options.siggen.scope_by_host);
    eval::DetectionRates seq = Score(seq_detector, trace, n);

    core::BayesSignatureGenerator bayes_gen;
    core::BayesDetector bayes_detector(
        bayes_gen.Generate(clustering->sample, clustering->clusters,
                           clustering->normal_corpus));
    eval::DetectionRates bayes = Score(bayes_detector, trace, n);

    table.AddRow({std::to_string(n), eval::FormatPercent(conj.tp),
                  eval::FormatPercent(conj.fp), eval::FormatPercent(seq.tp),
                  eval::FormatPercent(seq.fp), eval::FormatPercent(bayes.tp),
                  eval::FormatPercent(bayes.fp)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Subsequence signatures add field-order precision (FP can only drop "
      "relative to conjunctions over the same tokens, recall can only "
      "drop); Bayes signatures trade a small FP increase for recall on "
      "polymorphic modules that drop or reorder template fields.\n\n");

  // ROC sweep of the Bayes threshold at N = 300·scale: the operating-point
  // dial a conjunction signature does not have.
  {
    size_t n = static_cast<size_t>(300 * args.scale + 0.5);
    core::PipelineOptions options;
    options.seed = args.seed;
    options.sample_size = n;
    auto clustering = core::RunClustering(suspicious, normal, options);
    if (clustering.ok()) {
      core::BayesSignatureGenerator gen;
      match::BayesSignatureSet set = gen.Generate(
          clustering->sample, clustering->clusters, clustering->normal_corpus);
      std::vector<double> offsets;
      for (double t = -3.0; t <= 3.0; t += 0.5) offsets.push_back(t);
      auto points = eval::BayesRocSweep(set, trace.packets, offsets);
      std::printf("Bayes threshold ROC (offset added to every threshold):\n");
      eval::TablePrinter roc({"offset", "recall", "FPR"});
      for (const auto& p : points) {
        roc.AddRow({eval::FormatDouble(p.threshold_offset, 1),
                    eval::FormatPercent(p.recall),
                    eval::FormatPercent(p.fpr, 2)});
      }
      std::printf("%s", roc.Render().c_str());
      std::printf("AUC ~ %.3f\n", eval::RocAuc(points));
    }
  }
  return 0;
}
