// Everything the benchmark takes from src/obs lives here, so the gated
// (untraced) run depends on nothing but the service constructors,
// op_cost_ns and request().
//
// The traced run points a service's trace_sink, metrics and profiler at one
// Taps object. Only one request is ever in flight, so every runtime trace
// event that starts inside a client span belongs to that request; the
// request is then split into stages:
//
//   handoff  client call -> first junction body starts (includes the
//            caller-side ready-queue wait)
//   queue    gaps inside the first body between its pushes and the nested
//            junction runs (waiting for a downstream junction to be run)
//   body     the first body's own work before its first and after its last
//            nested step, plus nested bodies outside their pushes
//   push     union of push send -> ack intervals
//   return   first body ends -> the client has its response
//
// The five stages partition the span. Counters, histograms and profiler
// totals are read at both ends of the measured window, so set-up traffic is
// excluded; a counter the registry does not have is reported as absent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "report.hpp"

namespace reqbench {

// One client request as the benchmark timed it (steady-clock ns).
struct ClientSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Keeps junction runs and push round trips, as intervals, while armed.
class SpanSink : public csaw::obs::TraceSink {
 public:
  struct Interval {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    bool is_run = false;  // junction body run; otherwise a push to its ack
  };

  void record(const csaw::obs::TraceEvent& event) override;
  void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
  std::vector<Interval> take();

 private:
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::vector<Interval> intervals_;
};

class Taps {
 public:
  Taps();
  ~Taps();
  Taps(const Taps&) = delete;
  Taps& operator=(const Taps&) = delete;

  // Points a service's Options at the taps, which must outlive the service.
  template <typename Options>
  void attach(Options& options) {
    options.trace_sink = &sink_;
    options.metrics = &metrics_;
    options.profiler = &profiler_;
  }

  void begin_window();
  // Ends the window in which the client issued `spans`; returns the
  // per-layer metrics of that window.
  Metrics end_window(const std::vector<ClientSpan>& spans);

 private:
  struct Reading;
  [[nodiscard]] Reading read();

  SpanSink sink_;
  csaw::obs::Metrics metrics_;
  csaw::obs::Profiler profiler_;
  std::unique_ptr<Reading> before_;
};

}  // namespace reqbench
