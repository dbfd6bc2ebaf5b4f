// Per-layer self time from a recorded trace.
//
// A span's self time is its duration minus the part of it that its
// direct child spans (same lane, nested in time) cover. Each span is
// assigned to a layer by its name: the benchmark's own spans are named
// "<layer>:<call>", the program's spans "<area>/<phase>" (imp/, sim/,
// parallel/, external/ and */dmc_bitmap are core; shard/, incr/, serve/
// are their own layers).

#ifndef PERFBENCH_TRACE_TABLE_H_
#define PERFBENCH_TRACE_TABLE_H_

#include <string>
#include <vector>

#include "observe/trace.h"

namespace perfbench {

struct LayerTime {
  std::string layer;
  double self_seconds = 0.0;
  size_t spans = 0;
};

/// The layer a span of this name belongs to.
std::string LayerOf(const std::string& span_name);

/// Self time summed per layer, largest first.
std::vector<LayerTime> SelfTimeByLayer(
    const std::vector<dmc::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_TABLE_H_
