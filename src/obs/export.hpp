// JSON export of a run's trace events and metric summaries.
//
// Schema (consumed by bench tooling and tools/csaw-trace; documented in
// DESIGN.md):
//   {
//     "epoch": "steady",
//     "dropped": <events overwritten in full rings>,
//     "buffers": [{"capacity": 16384, "size": 120, "dropped": 0}, ...],
//     "events": [{"t_us": 12.5, "kind": "push_sent", "instance": "Act",
//                 "junction": "j", "peer": "Aud", "label": "",
//                 "seq": 3, "value_ns": 0, "trace_id": 1, "span_id": 2,
//                 "parent_span": 0, "hlc_us": 1700000000000000,
//                 "hlc_lc": 0}, ...],
//     "metrics": {
//       "counters": {"push_sent": 42, ...},
//       "histograms": {"push_latency_ns": {"count": 42, "mean": ...,
//                      "p50": ..., "p90": ..., "p99": ..., "max": ...}}
//     }
//   }
// "metrics" is the process-wide registry only; per-junction and per-link
// costs live in the CostProfile (obs/profile.hpp), written separately.
// "buffers" has one entry per tracer thread-ring, captured before the drain.
// t_us is microseconds relative to the tracer's (per-process) epoch; hlc_us
// is wall-clock-anchored and comparable across processes. Null arguments
// leave the corresponding section empty.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/result.hpp"

namespace csaw::obs {

// Core writer over already-drained events (callers that need the events for
// more than one export drain once and pass them here).
void write_trace_json(std::ostream& os, const std::vector<TraceEvent>& events,
                      SteadyTime epoch, std::uint64_t dropped,
                      const std::vector<Tracer::BufferStats>& buffers,
                      const Metrics* metrics);

// Drains `tracer` (if non-null) and writes the combined JSON document.
void write_trace_json(std::ostream& os, Tracer* tracer, const Metrics* metrics);

// Same, to a file. kHostFailure if the file cannot be opened.
Status write_trace_json_file(const std::string& path, Tracer* tracer,
                             const Metrics* metrics);

}  // namespace csaw::obs
