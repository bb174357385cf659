// Cross-instance trace collection: parse per-instance trace JSON back into
// events, merge several files into one causally-ordered timeline (HLC
// order), and emit Chrome/Perfetto trace-event JSON with one track per
// instance and flow arrows for pushes. This offline path backs the
// tools/csaw-trace CLI:
//   csaw-trace merge -o merged.json a.json b.json c.json
//   csaw-trace check merged.json
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "support/result.hpp"

namespace csaw::obs {

// --- offline: parse + merge -------------------------------------------------

// One parsed trace document (the export.hpp schema). Events keep their
// in-file order; `at` holds the file-relative t_us and `hlc` the wall-clock
// HLC stamp when the producing build recorded one.
struct TraceDoc {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

Result<TraceDoc> parse_trace_json(std::string_view text);
Result<TraceDoc> load_trace_file(const std::string& path);

// Union of several documents' events in causal order: HLC-stamped events
// sort by (physical_us, logical); events without HLC stamps (old files)
// keep file-relative time order after them. Ties break deterministically.
std::vector<TraceEvent> merge_events(const std::vector<TraceDoc>& docs);

// --- Perfetto (Chrome trace-event JSON) -------------------------------------

// Emits one Perfetto-loadable document: a process ("track") per instance, a
// thread per junction, complete slices for junction runs and push
// round-trips, instants for lifecycle events, and flow arrows from each
// push_sent to the junction run it caused. Timestamps come from the HLC
// (normalized to the earliest event) so cross-instance order is causal.
void write_perfetto_json(std::ostream& os,
                         const std::vector<TraceEvent>& events);
Status write_perfetto_json_file(const std::string& path,
                                const std::vector<TraceEvent>& events);

// Validates a document produced by write_perfetto_json: parseable JSON with
// a traceEvents array, every flow-finish binds a flow-start no later than
// it, and no span is timestamped before its parent (HLC order). Returns the
// first violation as an error.
Status check_perfetto_json(std::string_view text);

}  // namespace csaw::obs
