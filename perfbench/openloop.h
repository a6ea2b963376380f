// The open-loop load generator shared by serve_trained's latency phase and
// live_loop: packet g is due at t0 + g * period_ns whatever the program
// does, and is submitted as soon as the generator gets to it. A verdict's
// latency is then measured from its due time, so a stall in the program
// delays every packet behind it and shows up in the percentiles.
#ifndef LEAKDET_PERFBENCH_OPENLOOP_H_
#define LEAKDET_PERFBENCH_OPENLOOP_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common.h"
#include "tracer.h"

namespace perfbench {

/// Offered load of every open loop. A constant of the benchmark, never
/// derived at run time: well below the gateway's saturation point, where the
/// latency percentiles are steady (at 100k pkt/s the p50 already moves by
/// 5x between runs).
constexpr double kOpenLoopRatePps = 50000;
/// Generator lateness of its own beyond this fails the run: the generator,
/// not the program, stalled.
constexpr double kMaxGeneratorLateMs = 50;
/// Latency percentiles are taken per slice of this length, then the median
/// over slices (SlicedQuantile): a host hiccup spoils a slice, not the run.
constexpr int64_t kSliceNs = 100'000'000;

/// A spinning generator busy-waits when the next packet is due within this
/// long.
constexpr int64_t kSpinNs = 2'000'000;

struct OpenLoopStats {
  /// Worst lateness of the generator's own making: how long after a packet
  /// was due, and after the previous Submit returned, the generator got to
  /// it. Lateness caused by a blocking Submit is the program's and is not
  /// counted here.
  double late_ms_max = 0;
  uint64_t window_submits = 0;
  int64_t first_window_submit_ns = 0;
  int64_t last_window_submit_ns = 0;
};

/// Submits packets 0..count-1 on schedule; `submit(g)` performs one Submit.
/// Packets from `window_first` on are inside the measured window; `on_window`
/// runs once, right before the first of them. With `spin` the generator
/// busy-waits through gaps shorter than kSpinNs; otherwise it sleeps.
template <typename SubmitFn, typename WindowFn>
OpenLoopStats RunOpenLoop(int64_t t0, double period_ns, uint64_t count,
                          uint64_t window_first, bool spin, Tracer& tracer,
                          SubmitFn submit, WindowFn on_window) {
  OpenLoopStats stats;
  int64_t prev_return = t0;
  for (uint64_t g = 0; g < count;) {
    const int64_t due =
        t0 + static_cast<int64_t>(static_cast<double>(g) * period_ns);
    const int64_t now = NowNs();
    if (now < due) {
      Span span(tracer, "loadgen.wait", g);
      if (!spin) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        continue;
      }
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
      }
      while (NowNs() < due) {
      }
      continue;
    }
    if (g == window_first) {
      on_window();
      stats.first_window_submit_ns = now;
    }
    if (g >= window_first) {
      stats.late_ms_max = std::max(
          stats.late_ms_max,
          static_cast<double>(now - std::max(due, prev_return)) / 1e6);
      ++stats.window_submits;
      stats.last_window_submit_ns = now;
    }
    submit(g);
    prev_return = NowNs();
    ++g;
  }
  return stats;
}

/// Due time of open-loop packet g.
inline int64_t DueNs(int64_t t0, double period_ns, uint64_t g) {
  return t0 + static_cast<int64_t>(static_cast<double>(g) * period_ns);
}

}  // namespace perfbench

#endif  // LEAKDET_PERFBENCH_OPENLOOP_H_
