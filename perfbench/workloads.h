// The benchmark's three workloads. Each builds its stack from generated
// inputs, measures a window of --seconds, checks every output against an
// oracle that depends only on the seed and the code, and fills a Result.
// With args.trace the run records spans into `tracer` and reports the
// per-layer metrics instead of the end-to-end ones.
#ifndef LEAKDET_PERFBENCH_WORKLOADS_H_
#define LEAKDET_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "tracer.h"

namespace perfbench {

/// Matching only: a feed trained in setup, one producer replaying the trace
/// through a 2-shard gateway in a closed loop.
Result RunServeTrained(const Args& args, Tracer& tracer);

/// Training only, in lock-step: append + ingest per record on primed pools,
/// compile/publish/snapshot per epoch.
Result RunRetrainSteady(const Args& args, Tracer& tracer);

/// The full serve stack at a fixed open-loop rate: gateway, trainer with
/// store, and a feed server polled by a device.
Result RunLiveLoop(const Args& args, Tracer& tracer);

}  // namespace perfbench

#endif  // LEAKDET_PERFBENCH_WORKLOADS_H_
