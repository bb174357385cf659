#include "obs/collect.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "support/io.hpp"

namespace csaw::obs {
namespace {

using minijson::Json;
using minijson::write_string;

// --- event (de)serialization helpers ---------------------------------------

Symbol symbol_or_invalid(std::string_view name) {
  return name.empty() ? Symbol() : Symbol(name);
}

// One "events" element back into a TraceEvent. `at` is reconstructed
// relative to an arbitrary zero epoch: only differences within one
// document are meaningful, which is all merge_events needs.
Result<TraceEvent> event_from_json(const Json& o) {
  if (o.type != Json::Type::kObject) {
    return make_error(Errc::kDecode, "trace event is not a JSON object");
  }
  TraceEvent e;
  const std::string kind_name(o.str_or("kind", ""));
  if (!trace_kind_from_name(kind_name, &e.kind)) {
    return make_error(Errc::kDecode,
                      "unknown trace event kind '" + kind_name + "'");
  }
  const double t_us = o.num_or("t_us", 0.0);
  e.at = SteadyTime{} + std::chrono::duration_cast<Nanos>(
                            std::chrono::duration<double, std::micro>(t_us));
  e.instance = symbol_or_invalid(o.str_or("instance", ""));
  e.junction = symbol_or_invalid(o.str_or("junction", ""));
  e.peer = symbol_or_invalid(o.str_or("peer", ""));
  e.label = symbol_or_invalid(o.str_or("label", ""));
  e.seq = o.u64_or("seq", 0);
  e.value_ns = o.u64_or("value_ns", 0);
  e.trace_id = o.u64_or("trace_id", 0);
  e.span_id = o.u64_or("span_id", 0);
  e.parent_span = o.u64_or("parent_span", 0);
  e.hlc.physical_us = o.u64_or("hlc_us", 0);
  e.hlc.logical = static_cast<std::uint32_t>(o.u64_or("hlc_lc", 0));
  return e;
}

double event_t_us(const TraceEvent& e) {
  return std::chrono::duration<double, std::micro>(e.at - SteadyTime{}).count();
}

// Cross-process timestamp in microseconds: the HLC when present (wall-clock
// anchored, causally repaired), else the file-relative time. The logical
// counter becomes a sub-microsecond fraction so causal order survives the
// flattening to one axis.
double causal_ts_us(const TraceEvent& e) {
  if (e.hlc.valid()) {
    return static_cast<double>(e.hlc.physical_us) + e.hlc.logical * 1e-3;
  }
  return event_t_us(e);
}

void write_event_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\": {\"trace_id\": " << e.trace_id
     << ", \"span_id\": " << e.span_id
     << ", \"parent_span\": " << e.parent_span
     << ", \"hlc_us\": " << e.hlc.physical_us
     << ", \"hlc_lc\": " << e.hlc.logical << ", \"seq\": " << e.seq
     << ", \"value_ns\": " << e.value_ns << "}";
}

}  // namespace

// ---------------------------------------------------------------------------
// Offline: parse + merge
// ---------------------------------------------------------------------------

Result<TraceDoc> parse_trace_json(std::string_view text) {
  auto parsed = minijson::parse(text);
  if (!parsed.ok()) return parsed.error();
  const Json& root = *parsed;
  if (root.type != Json::Type::kObject) {
    return make_error(Errc::kDecode, "trace document root is not an object");
  }
  TraceDoc doc;
  doc.dropped = root.u64_or("dropped", 0);
  const Json* events = root.find("events");
  if (events == nullptr) return doc;  // metrics-only document
  if (events->type != Json::Type::kArray) {
    return make_error(Errc::kDecode, "\"events\" is not an array");
  }
  doc.events.reserve(events->items.size());
  for (const Json& item : events->items) {
    auto e = event_from_json(item);
    if (!e.ok()) return e.error();
    doc.events.push_back(*std::move(e));
  }
  return doc;
}

Result<TraceDoc> load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(Errc::kHostFailure,
                      "cannot open trace file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = parse_trace_json(buf.str());
  if (!doc.ok()) {
    return make_error(doc.error().code, path + ": " + doc.error().message);
  }
  return doc;
}

std::vector<TraceEvent> merge_events(const std::vector<TraceDoc>& docs) {
  struct Keyed {
    TraceEvent event;
    std::size_t doc;
    std::size_t pos;
  };
  std::vector<Keyed> keyed;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (std::size_t i = 0; i < docs[d].events.size(); ++i) {
      keyed.push_back(Keyed{docs[d].events[i], d, i});
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     const bool av = a.event.hlc.valid();
                     const bool bv = b.event.hlc.valid();
                     if (av != bv) return av;  // HLC-stamped events first
                     if (av) {
                       if (a.event.hlc != b.event.hlc) {
                         return a.event.hlc < b.event.hlc;
                       }
                     } else if (event_t_us(a.event) != event_t_us(b.event)) {
                       return event_t_us(a.event) < event_t_us(b.event);
                     }
                     // Deterministic tie-break: file order within file index.
                     return std::tie(a.doc, a.pos) < std::tie(b.doc, b.pos);
                   });
  std::vector<TraceEvent> out;
  out.reserve(keyed.size());
  for (auto& k : keyed) out.push_back(std::move(k.event));
  return out;
}

// ---------------------------------------------------------------------------
// Perfetto writer
// ---------------------------------------------------------------------------

void write_perfetto_json(std::ostream& os,
                         const std::vector<TraceEvent>& events) {
  // Stable pid per instance (order of first appearance), tid per junction
  // within an instance. tid 0 is the instance-level track (lifecycle,
  // pushes made outside junction bodies).
  std::vector<Symbol> instances;
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> tids;
  auto pid_of = [&](Symbol inst) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i] == inst) return static_cast<int>(i) + 1;
    }
    instances.push_back(inst);
    return static_cast<int>(instances.size());
  };
  auto tid_of = [&](Symbol inst, Symbol junction) {
    if (!junction.valid()) return 0;
    const auto key = std::make_pair(inst.id(), junction.id());
    auto it = tids.find(key);
    if (it != tids.end()) return it->second;
    // tids within a process count up from 1 in appearance order.
    int next = 1;
    for (const auto& [k, v] : tids) {
      if (k.first == inst.id()) next = std::max(next, v + 1);
    }
    tids.emplace(key, next);
    return next;
  };

  double min_ts = std::numeric_limits<double>::infinity();
  for (const TraceEvent& e : events) {
    min_ts = std::min(min_ts, causal_ts_us(e));
  }
  if (!std::isfinite(min_ts)) min_ts = 0.0;
  auto ts_of = [&](const TraceEvent& e) { return causal_ts_us(e) - min_ts; };

  // Completion time per push span, to give push_sent slices a duration.
  // Also the set of push spans present at all: a ring-buffer drop can evict
  // a push while its child run survives, and a flow finish whose start was
  // dropped must not be emitted (Perfetto rejects dangling finishes).
  std::map<std::uint64_t, double> push_done_ts;
  std::set<std::uint64_t> push_spans;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::kPushSent && e.span_id != 0) {
      push_spans.insert(e.span_id);
    }
    if (e.kind == TraceEvent::Kind::kPushAcked ||
        e.kind == TraceEvent::Kind::kPushNacked ||
        e.kind == TraceEvent::Kind::kPushTimeout) {
      if (e.span_id != 0) push_done_ts.emplace(e.span_id, ts_of(e));
    }
  }

  const auto saved_flags = os.flags();
  const auto saved_precision = os.precision();
  os.setf(std::ios::fixed);
  os.precision(3);

  os << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&]() -> std::ostream& {
    os << (first ? "\n" : ",\n") << "  ";
    first = false;
    return os;
  };

  // Metadata: one "process" per instance, one "thread" per junction.
  // Passing every event through pid_of/tid_of first keeps ids stable and
  // lets us emit all metadata up front.
  for (const TraceEvent& e : events) {
    (void)tid_of(e.instance, e.junction);
    (void)pid_of(e.instance);
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    sep() << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << (i + 1)
          << ", \"tid\": 0, \"args\": {\"name\": ";
    write_string(os, instances[i].valid() ? instances[i].str() : "?");
    os << "}}";
    sep() << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << (i + 1)
          << ", \"tid\": 0, \"args\": {\"name\": \"(instance)\"}}";
  }
  for (const auto& [key, tid] : tids) {
    int pid = 0;
    Symbol junction;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].id() == key.first) pid = static_cast<int>(i) + 1;
    }
    for (const TraceEvent& e : events) {
      if (e.junction.valid() && e.junction.id() == key.second) {
        junction = e.junction;
        break;
      }
    }
    sep() << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << pid
          << ", \"tid\": " << tid << ", \"args\": {\"name\": ";
    write_string(os, junction.valid() ? junction.str() : "?");
    os << "}}";
  }

  for (const TraceEvent& e : events) {
    const int pid = pid_of(e.instance);
    const int tid = tid_of(e.instance, e.junction);
    const double ts = ts_of(e);
    const char* name = trace_kind_name(e.kind);
    switch (e.kind) {
      case TraceEvent::Kind::kJunctionRan: {
        // The HLC stamp is the run's *start* (taken before the body, so the
        // body's own pushes nest after it); the slice extends value_ns
        // forward from it.
        const double dur = std::max(static_cast<double>(e.value_ns) / 1000.0,
                                    0.001);
        sep() << "{\"ph\": \"X\", \"name\": ";
        write_string(os, e.junction.valid() ? e.junction.str() : name);
        os << ", \"cat\": \"junction\", \"pid\": " << pid
           << ", \"tid\": " << tid << ", \"ts\": " << ts
           << ", \"dur\": " << dur << ", ";
        write_event_args(os, e);
        os << "}";
        if (e.parent_span != 0 && push_spans.count(e.parent_span) != 0) {
          // Flow finish bound at the slice start: the start's HLC was taken
          // after the receive merge()d the sender's clock, so it is after
          // the sender's flow start however skewed the clocks were.
          sep() << "{\"ph\": \"f\", \"bp\": \"e\", \"name\": \"push\", "
                << "\"cat\": \"flow\", \"id\": " << e.parent_span
                << ", \"pid\": " << pid << ", \"tid\": " << tid
                << ", \"ts\": " << ts << "}";
        }
        break;
      }
      case TraceEvent::Kind::kPushSent: {
        double dur = 1.0;
        auto it = push_done_ts.find(e.span_id);
        if (it != push_done_ts.end() && it->second > ts) dur = it->second - ts;
        sep() << "{\"ph\": \"X\", \"name\": ";
        // Slice name: "push <target>" reads better than "push_sent".
        write_string(os, "push " + (e.peer.valid() ? e.peer.str() : "?"));
        os << ", \"cat\": \"push\", \"pid\": " << pid << ", \"tid\": " << tid
           << ", \"ts\": " << ts << ", \"dur\": " << dur << ", ";
        write_event_args(os, e);
        os << "}";
        if (e.span_id != 0) {
          sep() << "{\"ph\": \"s\", \"name\": \"push\", \"cat\": \"flow\", "
                << "\"id\": " << e.span_id << ", \"pid\": " << pid
                << ", \"tid\": " << tid << ", \"ts\": " << ts << "}";
        }
        break;
      }
      default: {
        sep() << "{\"ph\": \"i\", \"s\": \"t\", \"name\": ";
        write_string(os, name);
        os << ", \"cat\": \"event\", \"pid\": " << pid << ", \"tid\": " << tid
           << ", \"ts\": " << ts << ", ";
        write_event_args(os, e);
        os << "}";
        break;
      }
    }
  }
  if (!first) os << "\n";
  os << "], \"displayTimeUnit\": \"ms\"}\n";

  os.flags(saved_flags);
  os.precision(saved_precision);
}

Status write_perfetto_json_file(const std::string& path,
                                const std::vector<TraceEvent>& events) {
  // Atomic replace (support/io): a crash mid-export leaves the previous
  // trace intact instead of a truncated JSON file.
  std::ostringstream out;
  write_perfetto_json(out, events);
  return io::write_file_atomic(path, out.str());
}

Status check_perfetto_json(std::string_view text) {
  auto parsed = minijson::parse(text);
  if (!parsed.ok()) return parsed.error();
  const Json& root = *parsed;
  if (root.type != Json::Type::kObject) {
    return make_error(Errc::kVerifyFailed, "root is not a JSON object");
  }
  const Json* trace_events = root.find("traceEvents");
  if (trace_events == nullptr || trace_events->type != Json::Type::kArray) {
    return make_error(Errc::kVerifyFailed, "missing \"traceEvents\" array");
  }

  struct Flow {
    double ts = 0.0;
    bool seen = false;
  };
  std::map<std::uint64_t, Flow> flow_starts;
  struct Finish {
    std::uint64_t id;
    double ts;
  };
  std::vector<Finish> flow_finishes;
  // Earliest timestamp observed per span (the span's start).
  std::map<std::uint64_t, Hlc> span_hlc;
  struct ParentRef {
    std::uint64_t span;
    std::uint64_t parent;
    Hlc hlc;
  };
  std::vector<ParentRef> parent_refs;

  for (const Json& ev : trace_events->items) {
    if (ev.type != Json::Type::kObject) {
      return make_error(Errc::kVerifyFailed,
                        "traceEvents element is not an object");
    }
    const std::string_view ph = ev.str_or("ph", "");
    if (ph.empty()) {
      return make_error(Errc::kVerifyFailed, "event without \"ph\"");
    }
    const double ts = ev.num_or("ts", -1.0);
    if (ph != "M" && ts < 0.0) {
      return make_error(Errc::kVerifyFailed,
                        "non-metadata event without a non-negative \"ts\"");
    }
    if (ph == "s") {
      const std::uint64_t id = ev.u64_or("id", 0);
      auto [it, inserted] = flow_starts.emplace(id, Flow{ts, true});
      if (!inserted) it->second.ts = std::min(it->second.ts, ts);
    } else if (ph == "f") {
      flow_finishes.push_back(Finish{ev.u64_or("id", 0), ts});
    }
    const Json* args = ev.find("args");
    if (args != nullptr && args->type == Json::Type::kObject) {
      const std::uint64_t span = args->u64_or("span_id", 0);
      const std::uint64_t parent = args->u64_or("parent_span", 0);
      const Hlc hlc{args->u64_or("hlc_us", 0),
                    static_cast<std::uint32_t>(args->u64_or("hlc_lc", 0))};
      if (span != 0 && hlc.valid()) {
        auto [it, inserted] = span_hlc.emplace(span, hlc);
        if (!inserted && hlc < it->second) it->second = hlc;
        if (parent != 0) parent_refs.push_back(ParentRef{span, parent, hlc});
      }
    }
  }

  for (const Finish& f : flow_finishes) {
    auto it = flow_starts.find(f.id);
    if (it == flow_starts.end()) {
      return make_error(Errc::kVerifyFailed,
                        "flow finish id " + std::to_string(f.id) +
                            " has no flow start");
    }
    if (it->second.ts > f.ts) {
      return make_error(Errc::kVerifyFailed,
                        "flow " + std::to_string(f.id) +
                            " finishes before it starts");
    }
  }
  for (const ParentRef& ref : parent_refs) {
    auto it = span_hlc.find(ref.parent);
    if (it == span_hlc.end()) continue;  // parent outside the merged set
    if (ref.hlc < it->second) {
      return make_error(Errc::kVerifyFailed,
                        "span " + std::to_string(ref.span) +
                            " is timestamped before its parent " +
                            std::to_string(ref.parent) +
                            " (HLC order violated)");
    }
  }
  return Status::ok_status();
}

}  // namespace csaw::obs
