// Runtime configuration shared by every app service deployment.
//
// Each service in apps/miniredis and apps/minisuricata hosts all of its
// instances in one in-process runtime, so the per-deployment settings are
// the architecture's push timeout and the borrowed observability taps.
// They are declared here once: every service's Options derives from
// ServiceOptions and builds its Engine from engine_options(). A deployment
// that needs anything else from RuntimeOptions (a TCP mesh, scheduler
// sizing, link models) builds its runtime directly.
#pragma once

#include <cstdint>
#include <string>

#include "core/interp.hpp"

namespace csaw {

struct ServiceOptions {
  // Deadline of the architecture's bounded pushes (otherwise[t]).
  std::int64_t timeout_ms = 2000;
  // Optional observability taps (borrowed; must outlive the service).
  obs::TraceSink* trace_sink = nullptr;
  obs::Metrics* metrics = nullptr;
  // Optional continuous cost profiler (borrowed; must outlive the
  // service), and/or a CostProfile JSON path the runtime writes at
  // teardown (compart/runtime.hpp).
  obs::Profiler* profiler = nullptr;
  std::string profile_out;
  // -1 = no HTTP endpoint; 0 = ephemeral port; >0 = fixed port. Needs
  // `metrics` set.
  int metrics_http_port = -1;

  // The Engine configuration every service starts its runtime with.
  [[nodiscard]] EngineOptions engine_options() const {
    EngineOptions out;
    out.runtime.trace_sink = trace_sink;
    out.runtime.metrics = metrics;
    out.runtime.profiler = profiler;
    out.runtime.profile_out = profile_out;
    out.runtime.metrics_http_port = metrics_http_port;
    return out;
  }
};

}  // namespace csaw
