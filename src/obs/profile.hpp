// Continuous cost profiling: the measured half of the architecture
// autoscheduler split (ROADMAP item 4).
//
// A Profiler owns lock-free per-junction accumulators (eval/fire counts,
// body CPU via CLOCK_THREAD_CPUTIME_ID deltas, ready-queue delay, blocked
// time from the support/blocking hooks) and per-link probes (heartbeat-echo
// RTT, send-queue depth). The scheduler and transport record through stable
// slot pointers resolved once at wiring time; with no profiler attached the
// hot paths pay one null check.
//
// Snapshots flatten everything into a versioned CostProfile -- a
// junction x node matrix of costs plus a link matrix of latency/bandwidth
// and per-table write/WAL rates -- serialized as JSON ("csaw_profile": 1).
// Profiles from different processes merge by summing totals keyed on
// (node, instance, junction) / (node, peer), so cluster-wide CPU totals are
// exact; histogram percentiles merge count-weighted (approximate, used only
// for reporting and regression diffs). The csaw-profile tool wraps
// merge_profiles/diff_documents; the same diff runs over BENCH_*.json
// snapshots in CI.
//
// Clock sources: body CPU is the worker thread's CPU clock (does not
// advance while blocked, so CPU and blocked time never double-count);
// queue delay, wall time, RTT and durations are the steady clock. RTT
// timestamps are only ever compared on the node that minted them, so no
// cross-host clock agreement is assumed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "support/clock.hpp"
#include "support/result.hpp"

namespace csaw::obs {

// Live per-junction accumulators. Top-level (not nested in Profiler) so the
// scheduler's ready-queue Entity can hold a forward-declared pointer.
// All writes are relaxed atomics or Histogram::record -- lock-free.
struct JunctionProfile {
  std::atomic<std::uint64_t> evals{0};      // guard evaluations
  std::atomic<std::uint64_t> fires{0};      // body runs (guard passed)
  std::atomic<std::uint64_t> body_cpu_ns{0};   // thread-CPU across evals
  std::atomic<std::uint64_t> body_wall_ns{0};  // wall time across body runs
  std::atomic<std::uint64_t> blocked_ns{0};    // body time spent in blocking calls
  Histogram queue_delay_ns;    // ready-queue enqueue -> dequeue
  Histogram body_cpu_hist_ns;  // per-eval thread-CPU delta
};

// Flattened histogram: exact count/sum/max (merge by addition) plus
// quantiles that merge count-weighted.
struct HistSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

HistSummary summarize(const Histogram& h);
HistSummary merge_summaries(const HistSummary& a, const HistSummary& b);

struct JunctionCost {
  std::string node;
  std::string instance;
  std::string junction;
  std::uint64_t evals = 0;
  std::uint64_t fires = 0;
  std::uint64_t body_cpu_ns = 0;
  std::uint64_t body_wall_ns = 0;
  std::uint64_t blocked_ns = 0;
  HistSummary queue_delay_ns;
  HistSummary body_cpu_per_eval_ns;
};

struct LinkCost {
  std::string node;  // local end
  std::string peer;  // remote end (peer name / remote node)
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t reconnects = 0;
  HistSummary send_queue_depth;  // depth sampled at each send
  HistSummary rtt_ns;            // heartbeat echo round trips
};

struct TableCost {
  std::string node;
  std::string instance;  // one KV table per instance
  std::uint64_t keys = 0;       // live keys at snapshot
  std::uint64_t writes = 0;     // applied updates
  std::uint64_t wal_bytes = 0;  // cumulative WAL bytes appended
};

// The versioned cost-model artifact ("csaw_profile": 1). Rates
// (bytes/sec, writes/sec) are derived by consumers from the exact totals
// and duration_ns rather than stored, so merges stay lossless.
struct CostProfile {
  int version = 1;
  std::vector<std::string> nodes;
  std::uint64_t duration_ns = 0;  // profiled wall span (max across merges)
  std::vector<JunctionCost> junctions;
  std::vector<LinkCost> links;
  std::vector<TableCost> tables;
};

std::string cost_profile_json(const CostProfile& p);
Result<CostProfile> parse_cost_profile(std::string_view text);
Result<CostProfile> load_cost_profile(const std::string& path);
Status write_cost_profile_file(const std::string& path, const CostProfile& p);

// Sum-merge across processes: rows keyed by (node, instance, junction),
// (node, peer), (node, instance); totals add exactly, percentiles merge
// count-weighted, duration is the max input span.
CostProfile merge_profiles(const std::vector<CostProfile>& inputs);

// --- regression diffing ----------------------------------------------------

struct DiffOptions {
  double threshold_pct = 25.0;  // flag changes beyond this
  // Absolute floor (same unit as the compared metric) a change must also
  // clear; damps noise on near-zero latencies.
  double min_abs = 0.0;
};

struct ProfileDiff {
  struct Finding {
    std::string metric;
    double before = 0.0;
    double after = 0.0;
    double pct = 0.0;  // signed change toward "worse" (+) or "better" (-)
  };
  std::vector<Finding> regressions;
  std::vector<Finding> improvements;
};

// Compares two JSON documents that are either both CostProfiles
// ("csaw_profile" root key: per-junction CPU/eval and queue-delay p99,
// per-link RTT p99) or both bench snapshots ("metrics" object: p99_*
// latencies up, ops_per_s*/*_kqps throughput down).
Result<ProfileDiff> diff_documents(std::string_view before,
                                   std::string_view after,
                                   const DiffOptions& options = {});
std::string render_diff(const ProfileDiff& d);

// --- the live profiler -----------------------------------------------------

class Profiler {
 public:
  Profiler() : start_(steady_now()) {}

  // The node name stamped on every row this profiler emits (the runtime
  // mirrors TcpOptions::node_name here).
  void set_node(std::string_view node);
  [[nodiscard]] std::string node() const;

  // Stable per-junction slot, created on first use; recording through the
  // returned pointer is lock-free. Never invalidated while the Profiler
  // lives (runtimes may come and go around it).
  JunctionProfile* junction(std::string_view instance,
                            std::string_view junction);

  // Stable per-peer send-queue-depth histogram for the transport.
  Histogram* link_queue_depth(std::string_view peer);

  // One heartbeat-echo RTT sample against remote node `node`.
  void record_rtt(std::string_view node, std::uint64_t rtt_ns);

  // Accumulate a finished runtime's table/link totals so a profile written
  // after the runtime is destroyed (or spanning several runtime
  // incarnations) still carries them. Rows merge by key.
  void fold_table(const TableCost& row);
  void fold_link(const LinkCost& row);

  // Frozen folds + live rows from the caller + this profiler's slots.
  [[nodiscard]] CostProfile snapshot(
      std::vector<TableCost> live_tables = {},
      std::vector<LinkCost> live_links = {}) const;

 private:
  struct LinkSlot {
    Histogram depth;
    Histogram rtt;
  };

  mutable std::mutex mu_;
  std::string node_ = "local";
  SteadyTime start_;
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<JunctionProfile>>
      junctions_;
  std::map<std::string, std::unique_ptr<LinkSlot>, std::less<>> links_;
  std::vector<TableCost> frozen_tables_;
  std::vector<LinkCost> frozen_links_;
};

}  // namespace csaw::obs
