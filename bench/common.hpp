// Shared bench harness for the paper-reproduction binaries.
//
// Every bench prints: a header naming the paper figure it regenerates, the
// same rows/series the paper plots, and one or more trailing
// "# shape-check:" lines asserting the figure's qualitative result (who
// wins, where the dips are). Absolute numbers are NOT expected to match the
// paper's 2012-era testbed -- see EXPERIMENTS.md.
//
// Time-series benches compress time: one tick stands for one paper-second.
// Environment overrides: CSAW_BENCH_REPS, CSAW_BENCH_TICKS,
// CSAW_BENCH_TICK_MS (the paper used 20 repetitions of 120 s).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "apps/service_options.hpp"
#include "obs/collect.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "support/clock.hpp"
#include "support/stats.hpp"

namespace csaw::bench {

struct Config {
  int reps = 3;
  int ticks = 120;
  int tick_ms = 15;

  static int env_int(const char* name, int fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoi(v) : fallback;
  }

  static Config from_env() {
    Config c;
    c.reps = env_int("CSAW_BENCH_REPS", c.reps);
    c.ticks = env_int("CSAW_BENCH_TICKS", c.ticks);
    c.tick_ms = env_int("CSAW_BENCH_TICK_MS", c.tick_ms);
    return c;
  }
};

// Optional observability session, enabled by `--trace-out <path>`,
// `--perfetto-out <path>` and/or `--profile-out <path>` on the bench command
// line. When enabled, the bench attach()es the session to the service under
// test and calls finish() before exiting, which drains the tracer once and
// writes the requested exports: --trace-out gets the combined JSON document
// (schema: obs/export.hpp), --perfetto-out gets Chrome/Perfetto trace-event
// JSON (open at https://ui.perfetto.dev; same format csaw-trace merges
// across instances), --profile-out gets a CostProfile document (schema:
// obs/profile.hpp; merge/diff with csaw-profile). When disabled, the taps are null and the run is
// uninstrumented -- the default, so timing figures are unaffected.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--trace-out") == 0) path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--perfetto-out") == 0) {
        perfetto_path_ = argv[i + 1];
      }
      if (std::strcmp(argv[i], "--profile-out") == 0) {
        profile_path_ = argv[i + 1];
      }
    }
  }

  [[nodiscard]] bool enabled() const {
    return !path_.empty() || !perfetto_path_.empty();
  }
  // Points a service's taps at this session (null taps when disabled). The
  // profiler is set only under --profile-out: cost profiling is opt-in
  // separately from tracing so the profile run can stay trace-free (and
  // vice versa).
  void attach(ServiceOptions& options) {
    options.trace_sink = enabled() ? &tracer_ : nullptr;
    options.metrics = enabled() ? &metrics_ : nullptr;
    options.profiler = profile_path_.empty() ? nullptr : &profiler_;
  }

  // Writes the requested documents; returns false (after printing the
  // error) if an output file cannot be written.
  bool finish() {
    bool prof_ok = true;
    if (!profile_path_.empty()) {
      const auto st =
          obs::write_cost_profile_file(profile_path_, profiler_.snapshot());
      if (!st.ok()) {
        std::fprintf(stderr, "--profile-out: %s\n",
                     st.error().to_string().c_str());
        prof_ok = false;
      } else {
        std::printf("# cost profile written to %s\n", profile_path_.c_str());
      }
    }
    if (!enabled()) return prof_ok;
    // Drain once: occupancy/drop stats must be captured before the drain,
    // and both exports consume the same event list.
    const auto buffers = tracer_.buffer_stats();
    const std::uint64_t dropped = tracer_.dropped();
    const std::vector<obs::TraceEvent> events = tracer_.drain();
    bool ok = true;
    if (!path_.empty()) {
      std::ofstream out(path_);
      if (!out) {
        std::fprintf(stderr, "--trace-out: cannot open %s\n", path_.c_str());
        ok = false;
      } else {
        obs::write_trace_json(out, events, tracer_.epoch(), dropped, buffers,
                              &metrics_);
        std::printf("# trace written to %s\n", path_.c_str());
      }
    }
    if (!perfetto_path_.empty()) {
      auto st = obs::write_perfetto_json_file(perfetto_path_, events);
      if (!st.ok()) {
        std::fprintf(stderr, "--perfetto-out: %s\n",
                     st.error().to_string().c_str());
        ok = false;
      } else {
        std::printf("# perfetto trace written to %s\n",
                    perfetto_path_.c_str());
      }
    }
    return ok && prof_ok;
  }

 private:
  std::string path_;
  std::string perfetto_path_;
  std::string profile_path_;
  obs::Tracer tracer_;
  obs::Metrics metrics_;
  obs::Profiler profiler_;
};

// Machine-readable perf snapshot, enabled by `--json-out <path>` on the
// bench command line. Collects named scalar metrics during the run and
// writes a flat {"bench":..., "config":..., "metrics": {...}} document on
// finish() -- the BENCH_*.json artifacts CI uploads per run so throughput
// and tail-latency regressions are diffable across commits. Disabled (all
// calls no-ops) when the flag is absent, so human-readable output and
// timing are unaffected. Keys must be plain identifiers (no escaping done).
class JsonSnapshot {
 public:
  JsonSnapshot(std::string bench, int argc, char** argv, const Config& c)
      : bench_(std::move(bench)), config_(c) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json-out") == 0) path_ = argv[i + 1];
    }
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void set(const std::string& key, double value) {
    if (enabled()) metrics_.emplace_back(key, value);
  }

  // Returns false (after printing the error) if the file cannot be written.
  bool finish() {
    if (!enabled()) return true;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "--json-out: cannot open %s\n", path_.c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n"
        << "  \"config\": {\"reps\": " << config_.reps
        << ", \"ticks\": " << config_.ticks
        << ", \"tick_ms\": " << config_.tick_ms << "},\n"
        << "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.9g", metrics_[i].second);
      out << "    \"" << metrics_[i].first << "\": " << num
          << (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    std::printf("# json snapshot written to %s\n", path_.c_str());
    return out.good();
  }

 private:
  std::string bench_;
  std::string path_;
  Config config_;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void header(const std::string& figure, const std::string& what,
                   const Config& c) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", figure.c_str(), what.c_str());
  std::printf("(reps=%d, ticks=%d, tick=%dms; 1 tick ~ 1 paper-second)\n",
              c.reps, c.ticks, c.tick_ms);
  std::printf("==============================================================\n");
}

inline void shape_check(bool ok, const std::string& what) {
  std::printf("# shape-check: %s -- %s\n", ok ? "PASS" : "FAIL", what.c_str());
  std::fflush(stdout);
}

// Runs `tick_fn(tick)` for each tick, which returns the metric for that
// tick; repeated `reps` times via `reset_fn` building fresh state.
inline SeriesAggregate run_series(
    const Config& c, const std::function<void(int rep)>& reset_fn,
    const std::function<double(int tick)>& tick_fn) {
  SeriesAggregate agg;
  for (int rep = 0; rep < c.reps; ++rep) {
    reset_fn(rep);
    std::vector<double> run;
    run.reserve(static_cast<std::size_t>(c.ticks));
    for (int t = 0; t < c.ticks; ++t) {
      run.push_back(tick_fn(t));
    }
    agg.add_run(run);
  }
  return agg;
}

// Closed-loop driver: calls `op` repeatedly until the tick budget elapses;
// returns how many completed.
inline double closed_loop_tick(int tick_ms, const std::function<void()>& op) {
  const auto end = steady_now() + Millis(tick_ms);
  double count = 0;
  while (steady_now() < end) {
    op();
    ++count;
  }
  return count;
}

inline void print_series(const std::string& x_label,
                         const std::string& y_label,
                         const SeriesAggregate& agg, double y_scale = 1.0) {
  std::printf("%-8s %-12s %-12s\n", x_label.c_str(), y_label.c_str(),
              "stddev");
  for (std::size_t t = 0; t < agg.ticks(); ++t) {
    std::printf("%-8zu %-12.3f %-12.3f\n", t, agg.mean_at(t) * y_scale,
                agg.stddev_at(t) * y_scale);
  }
}

// Multi-series (e.g. per-shard cumulative counts) side by side.
inline void print_multi_series(const std::string& x_label,
                               const std::vector<std::string>& names,
                               const std::vector<SeriesAggregate>& series,
                               double y_scale = 1.0) {
  std::printf("%-8s", x_label.c_str());
  for (const auto& n : names) std::printf(" %-14s", n.c_str());
  std::printf("\n");
  std::size_t ticks = 0;
  for (const auto& s : series) ticks = std::max(ticks, s.ticks());
  for (std::size_t t = 0; t < ticks; ++t) {
    std::printf("%-8zu", t);
    for (const auto& s : series) {
      std::printf(" %-14.2f", t < s.ticks() ? s.mean_at(t) * y_scale : 0.0);
    }
    std::printf("\n");
  }
}

inline void print_cdf(const std::string& name, Cdf& cdf,
                      std::size_t resolution = 20) {
  std::printf("--- CDF: %s (n=%zu, mean=%.4f ms) ---\n", name.c_str(),
              cdf.count(), cdf.mean());
  std::printf("%-12s %-12s\n", "P(X<=x)", "latency_ms");
  for (const auto& pt : cdf.points(resolution)) {
    std::printf("%-12.3f %-12.4f\n", pt.cumulative, pt.value);
  }
}

}  // namespace csaw::bench
