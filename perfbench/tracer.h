// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark around its own calls into each layer's public functions
// (never inside the program), on one thread. Each span carries a name, its
// start and end, the span that was open around it, and the id of the packet
// or epoch it belongs to. Aggregates (count, total and self time per name)
// cover every span; the first kMaxStored spans are also kept verbatim and
// written out as JSON lines when the run ends.
#ifndef LEAKDET_PERFBENCH_TRACER_H_
#define LEAKDET_PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Stats {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  ///< total minus the time child spans cover
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one. `name` must be a string
  /// literal (it is stored by pointer).
  void Begin(const char* name, uint64_t id);
  /// Closes the innermost open span; `rename`, if set, files it under
  /// another name (an ingest that turned out to retrain).
  void End(const char* rename = nullptr);

  /// Lap timing for a run of back-to-back calls: StartLaps() stamps now, and
  /// each Lap(name) records a top-level span from the previous stamp to now.
  /// Consecutive laps share their boundary, so the span bookkeeping lands
  /// inside the next lap instead of between spans.
  void StartLaps();
  void Lap(const char* name, uint64_t id);

  /// Aggregate of every closed span called `name` (zeros if none).
  Stats Get(const char* name) const;
  /// Mean self time per span of `name`, in ns (0 if none).
  double MeanSelfNs(const char* name) const;
  /// Sum of the durations of spans closed with no parent open.
  int64_t top_level_ns() const { return top_level_ns_; }
  uint64_t spans() const { return spans_; }

  /// Writes the stored spans to `path`, one JSON object per line.
  bool Write(const std::string& path) const;

  /// Cost of one Begin/End pair on this machine, measured on a scratch
  /// tracer; the traced run's overhead estimate is spans() times this.
  static double CalibrateSpanNs();

  static constexpr size_t kMaxStored = 1 << 18;

 private:
  struct Open {
    const char* name;
    uint64_t id;
    int64_t start;
    int64_t child_ns;
    int64_t stored;  ///< index into stored_, or -1
  };
  struct Record {
    const char* name;
    uint64_t id;
    int64_t start;
    int64_t end;
    int64_t parent;  ///< index into stored_, or -1
  };
  struct Named {
    const char* name;
    Stats stats;
  };

  Named* Find(const char* name);

  bool enabled_;
  std::vector<Open> stack_;
  std::vector<Record> stored_;
  std::vector<Named> by_name_;
  int64_t lap_start_ = 0;
  int64_t top_level_ns_ = 0;
  uint64_t spans_ = 0;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t id = 0)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name, id);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(rename_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void Rename(const char* name) { rename_ = name; }

 private:
  Tracer* tracer_;
  const char* rename_ = nullptr;
};

}  // namespace perfbench

#endif  // LEAKDET_PERFBENCH_TRACER_H_
