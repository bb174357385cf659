#include "obs/export.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"
#include "support/io.hpp"

namespace csaw::obs {
namespace {

void write_symbol(std::ostream& os, Symbol s) {
  minijson::write_string(os, s.valid() ? s.str() : std::string());
}

// One event as a JSON object (the element schema of "events").
void write_trace_event_json(std::ostream& os, const TraceEvent& e,
                            SteadyTime epoch) {
  os << "{\"t_us\": "
     << std::chrono::duration<double, std::micro>(e.at - epoch).count()
     << ", \"kind\": \"" << trace_kind_name(e.kind) << "\", "
     << "\"instance\": ";
  write_symbol(os, e.instance);
  os << ", \"junction\": ";
  write_symbol(os, e.junction);
  os << ", \"peer\": ";
  write_symbol(os, e.peer);
  os << ", \"label\": ";
  write_symbol(os, e.label);
  os << ", \"seq\": " << e.seq << ", \"value_ns\": " << e.value_ns
     << ", \"trace_id\": " << e.trace_id << ", \"span_id\": " << e.span_id
     << ", \"parent_span\": " << e.parent_span
     << ", \"hlc_us\": " << e.hlc.physical_us << ", \"hlc_lc\": " << e.hlc.logical
     << "}";
}

}  // namespace

void write_trace_json(std::ostream& os, const std::vector<TraceEvent>& events,
                      SteadyTime epoch, std::uint64_t dropped,
                      const std::vector<Tracer::BufferStats>& buffers,
                      const Metrics* metrics) {
  os << "{\n  \"epoch\": \"steady\",\n";
  os << "  \"dropped\": " << dropped << ",\n";
  os << "  \"buffers\": [";
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"capacity\": "
       << buffers[i].capacity << ", \"size\": " << buffers[i].size
       << ", \"dropped\": " << buffers[i].dropped << "}";
  }
  if (!buffers.empty()) os << "\n  ";
  os << "],\n";
  os << "  \"events\": [";
  {
    bool first = true;
    for (const auto& e : events) {
      os << (first ? "\n" : ",\n") << "    ";
      write_trace_event_json(os, e, epoch);
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";
  os << "  \"metrics\": {\n    \"counters\": {";
  if (metrics != nullptr) {
    bool first = true;
    metrics->for_each_counter([&](const std::string& name, const Counter& c) {
      os << (first ? "\n" : ",\n") << "      ";
      minijson::write_string(os, name);
      os << ": " << c.value();
      first = false;
    });
    if (!first) os << "\n    ";
  }
  os << "},\n    \"gauges\": {";
  if (metrics != nullptr) {
    bool first = true;
    metrics->for_each_gauge([&](const std::string& name, const Gauge& g) {
      os << (first ? "\n" : ",\n") << "      ";
      minijson::write_string(os, name);
      os << ": " << g.value();
      first = false;
    });
    if (!first) os << "\n    ";
  }
  os << "},\n    \"histograms\": {";
  if (metrics != nullptr) {
    bool first = true;
    metrics->for_each_histogram(
        [&](const std::string& name, const Histogram& h) {
          os << (first ? "\n" : ",\n") << "      ";
          minijson::write_string(os, name);
          os << ": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
             << ", \"p50\": " << h.quantile(0.50)
             << ", \"p90\": " << h.quantile(0.90)
             << ", \"p99\": " << h.quantile(0.99)
             << ", \"max\": " << h.max_seen() << "}";
          first = false;
        });
    if (!first) os << "\n    ";
  }
  os << "}\n  }\n}\n";
}

void write_trace_json(std::ostream& os, Tracer* tracer,
                      const Metrics* metrics) {
  std::vector<TraceEvent> events;
  std::vector<Tracer::BufferStats> buffers;
  std::uint64_t dropped = 0;
  SteadyTime epoch{};
  if (tracer != nullptr) {
    // Occupancy is meaningful only before the (destructive) drain.
    buffers = tracer->buffer_stats();
    dropped = tracer->dropped();
    events = tracer->drain();
    epoch = tracer->epoch();
  }
  write_trace_json(os, events, epoch, dropped, buffers, metrics);
}

Status write_trace_json_file(const std::string& path, Tracer* tracer,
                             const Metrics* metrics) {
  // Atomic replace (support/io): a crash mid-export leaves the previous
  // trace intact instead of a truncated JSON file.
  std::ostringstream out;
  write_trace_json(out, tracer, metrics);
  return io::write_file_atomic(path, out.str());
}

}  // namespace csaw::obs
