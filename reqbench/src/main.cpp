// reqbench: the request path of three miniredis architectures, closed and
// open loop, end to end and layer by layer.
//
//   reqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every service runs with op_cost_ns = 0, so no number measures a
// busy-wait. Load comes from one client thread. ShardedService and
// CachedService share one request and one response mailbox between all
// callers, so exactly one request is in flight. With --trace 0 the run
// prints the end-to-end metrics of untraced services; with --trace 1 it
// prints the per-layer metrics: a traced window (traced.hpp), layer probes
// (probes.hpp) and host readings (host.hpp). The last line of standard
// output is one JSON object; the exit code is 1 if any answer was wrong.
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/miniredis/services.hpp"
#include "host.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "selftest.hpp"
#include "support/clock.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace reqbench {
namespace {

using csaw::miniredis::CachedService;
using csaw::miniredis::ReplicatedService;
using csaw::miniredis::Service;
using csaw::miniredis::ShardedService;

constexpr int kSetups = 3;                          // setup_s is their median
constexpr auto kOpenGap = std::chrono::milliseconds(5);  // 200 req/s
constexpr double kOpenRate = 200.0;
constexpr std::size_t kMinSamples = 1000;  // per op type and arm, for p99
constexpr double kWindowSeconds = 0.5;     // closed-arm window, at least
constexpr double kWindowCapSeconds = 10;   // ... and at most
constexpr std::size_t kMinWindows = 3;
constexpr double kCapFactor = 3;  // a slow host stretches a run at most this

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Every request of the run, set-up included.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
};

std::unique_ptr<Service> make_service(const WorkloadSpec& w, Taps* taps) {
  switch (w.shape) {
    case Shape::kShard: {
      ShardedService::Options o;
      o.shards = 4;
      o.mode = ShardedService::Mode::kByKeyHash;
      o.op_cost_ns = 0;
      if (taps != nullptr) taps->attach(o);
      return std::make_unique<ShardedService>(std::move(o));
    }
    case Shape::kCache: {
      CachedService::Options o;
      o.cache_capacity = 4096;
      o.op_cost_ns = 0;
      if (taps != nullptr) taps->attach(o);
      return std::make_unique<CachedService>(std::move(o));
    }
    case Shape::kChain: {
      ReplicatedService::Options o;
      o.mode = ReplicatedService::Mode::kChain;
      o.replicas = 3;
      o.consistency = csaw::Consistency::kEventual;
      o.op_cost_ns = 0;
      if (taps != nullptr) taps->attach(o);
      return std::make_unique<ReplicatedService>(std::move(o));
    }
  }
  return nullptr;
}

// A constructed, preloaded service and its oracle.
struct Deployment {
  std::unique_ptr<Service> service;
  Oracle oracle;
  double setup_s = 0;

  explicit Deployment(std::size_t keys) : oracle(keys) {}
};

// Sends one op; true if it got a response (right or wrong).
bool send(Deployment& d, Tally& tally, const Op& op, std::uint64_t* t0,
          std::uint64_t* t1) {
  const auto cmd = d.oracle.command(op);
  *t0 = csaw::steady_ns();
  auto r = d.service->request(cmd);
  *t1 = csaw::steady_ns();
  ++tally.attempted;
  if (!r.ok()) {
    ++tally.failed;
    d.oracle.failed(op);
    return false;
  }
  if (!d.oracle.check(op, *r)) ++tally.wrong;
  return true;
}

std::unique_ptr<Deployment> deploy(const WorkloadSpec& w, Taps* taps,
                                   Tally& tally) {
  auto d = std::make_unique<Deployment>(w.keys);
  const auto start = csaw::steady_ns();
  d->service = make_service(w, taps);
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  for (std::uint32_t k = 0; k < w.keys; ++k) {
    (void)send(*d, tally, Op{true, k}, &t0, &t1);
  }
  d->setup_s = static_cast<double>(csaw::steady_ns() - start) / 1e9;
  return d;
}

// One measurement window of the closed arm.
struct Window {
  double seconds = 0;
  std::vector<double> get_us;
  std::vector<double> set_us;
  double cpu_us = 0;
  double csw = 0;
  [[nodiscard]] double done() const {
    return static_cast<double>(get_us.size() + set_us.size());
  }
};

struct ClosedArm {
  std::vector<Window> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<ClientSpan> spans;  // filled only when asked for

  // Median over windows of f(window): a burst of host contention moves a
  // few windows, not the figure.
  template <typename F>
  [[nodiscard]] double over_windows(F f) const {
    std::vector<double> v;
    for (const auto& w : windows) v.push_back(f(w));
    return median(v);
  }
  [[nodiscard]] std::size_t min_samples(bool sets) const {
    std::size_t n = SIZE_MAX;
    for (const auto& w : windows) n = std::min(n, (sets ? w.set_us : w.get_us).size());
    return windows.empty() ? 0 : n;
  }
};

// One closed-arm window: one client, the next request only when the
// previous one returned, for at least kWindowSeconds and until each op type
// has kMinSamples latencies (capped at kWindowCapSeconds).
void closed_window(ClosedArm& a, Deployment& d, Tally& tally, OpStream& ops,
                   bool keep_spans) {
  Window win;
  std::uint64_t now = csaw::steady_ns();
  const std::uint64_t start = now;
  const auto min_end = now + static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  const auto cap_end = now + static_cast<std::uint64_t>(kWindowCapSeconds * 1e9);
  const Usage u0 = usage_now();
  while (now < cap_end && (now < min_end || win.get_us.size() < kMinSamples ||
                           win.set_us.size() < kMinSamples)) {
    const Op op = ops.next();
    std::uint64_t t0 = 0;
    ++a.attempted;
    const bool ok = send(d, tally, op, &t0, &now);
    if (keep_spans) a.spans.push_back({t0, now});
    if (!ok) {
      ++a.failed;
      continue;
    }
    (op.is_set ? win.set_us : win.get_us)
        .push_back(static_cast<double>(now - t0) / 1e3);
  }
  const Usage u1 = usage_now();
  win.seconds = static_cast<double>(now - start) / 1e9;
  win.cpu_us = u1.cpu_us - u0.cpu_us;
  win.csw = u1.csw - u0.csw;
  a.windows.push_back(std::move(win));
}

// Which requests the open-arm percentiles count. chain_write's GETs are
// served from a replica store and never enter the runtime; counted with the
// SETs they would put its 50/50 mix's median on the edge between two modes
// ~200x apart.
bool open_counts(const WorkloadSpec& w, const Op& op) {
  return w.shape != Shape::kChain || op.is_set;
}

struct OpenArm {
  std::vector<double> us;  // counted requests, intended send -> response
  // The same latencies by window (one second of the send schedule each).
  std::vector<std::vector<double>> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double late_max_us = 0;  // generator lateness after its own sleeps

  // Median over windows of the window p50.
  [[nodiscard]] double p50() const {
    std::vector<double> v;
    for (const auto& w : windows) {
      if (!w.empty()) v.push_back(quantile(w, 0.5));
    }
    return median(v);
  }
};

// One open-arm window: one generator with a fixed send schedule of
// kOpenRate requests. A request that cannot go out on time (the previous
// one is still in flight) goes out late, and its latency still counts from
// when it was due.
void open_window(OpenArm& a, const WorkloadSpec& w, Deployment& d,
                 Tally& tally, OpStream& ops) {
  using Clock = std::chrono::steady_clock;
  auto& win = a.windows.emplace_back();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kOpenRate); ++i) {
    const auto due = start + kOpenGap * static_cast<std::int64_t>(i);
    if (Clock::now() < due) {
      // Sleep most of the gap, spin the last stretch: timer wake-ups on a
      // VM can be late by more than a request takes.
      std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
      while (Clock::now() < due) {
      }
      const std::chrono::duration<double, std::micro> late = Clock::now() - due;
      a.late_max_us = std::max(a.late_max_us, late.count());
    }
    const Op op = ops.next();
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    ++a.attempted;
    if (!send(d, tally, op, &t0, &t1)) {
      ++a.failed;
      continue;
    }
    const std::chrono::duration<double, std::micro> lat = Clock::now() - due;
    if (!open_counts(w, op)) continue;
    a.us.push_back(lat.count());
    win.push_back(lat.count());
  }
}

// Per-store processed counts and cache hits, read through each service's
// own public accessors.
struct StoreCounts {
  std::vector<double> per_store;
  double hits = 0;
  double misses = 0;
};

StoreCounts read_counts(Service& s) {
  StoreCounts c;
  if (auto* sh = dynamic_cast<ShardedService*>(&s)) {
    for (auto v : sh->shard_counts()) c.per_store.push_back(static_cast<double>(v));
  } else if (auto* ca = dynamic_cast<CachedService*>(&s)) {
    c.hits = static_cast<double>(ca->hits());
    c.misses = static_cast<double>(ca->misses());
  } else if (auto* re = dynamic_cast<ReplicatedService*>(&s)) {
    for (auto v : re->replica_applied()) c.per_store.push_back(static_cast<double>(v));
  }
  return c;
}

Metrics store_metrics(const WorkloadSpec& w, const StoreCounts& before,
                      const StoreCounts& after, double sets) {
  Metrics out;
  const double lookups = (after.hits - before.hits) + (after.misses - before.misses);
  add(out, {"miniredis.cache_hit_ratio",
            lookups > 0 ? (after.hits - before.hits) / lookups : 0.0, "ratio",
            w.shape == Shape::kCache ? "hits/cache lookups" : "no cache"});
  double max = 0;
  double sum = 0;
  for (std::size_t i = 0; i < after.per_store.size(); ++i) {
    const double d = after.per_store[i] - before.per_store[i];
    max = std::max(max, d);
    sum += d;
  }
  const auto stores = static_cast<double>(after.per_store.size());
  add(out, {"miniredis.shard_imbalance", sum > 0 ? max / (sum / stores) : 1.0,
            "ratio",
            w.shape == Shape::kCache ? "one store" : "max/mean per-store count"});
  add(out, {"miniredis.replica_applied_per_set",
            w.shape == Shape::kChain ? sum / sets : 1.0,
            "count", w.shape == Shape::kChain ? "" : "one copy per key"});
  return out;
}

void print_host(int threads, std::int64_t steal, double wake_us) {
  std::printf("# host: nproc=%d sched_workers=%d threads=%d steal_ticks=%lld "
              "os_wake_p50_us=%.2f\n",
              online_cpus(), default_workers(), threads,
              static_cast<long long>(steal), wake_us);
}

int run(const Args& args) {
  const WorkloadSpec* found = find_workload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *found;
  const std::int64_t steal_start = steal_ticks();
  std::printf("# reqbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# one client thread, one request in flight; open arm %g req/s "
              "(%lld ms spacing), timed from the intended send time\n",
              kOpenRate, static_cast<long long>(kOpenGap.count()));

  Tally tally;
  Metrics e2e;
  Metrics layers;
  OpStream closed_ops(w, args.seed, 0);
  OpStream open_ops(w, args.seed, 1);

  // --- untraced: set-up, closed arm, open arm --------------------------------
  std::unique_ptr<Deployment> d;
  std::vector<double> setups;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    if (d) {
      d.reset();  // one service alive at a time
      malloc_trim(0);  // so peak RSS does not count the freed one's pages
    }
    d = deploy(w, nullptr, tally);
    setups.push_back(d->setup_s);
  }
  const int threads = proc_threads();
  // Closed and open windows alternate, so both arms sample the whole run
  // and a burst of host contention lands in a few windows of each.
  const double measure_s = args.seconds * (args.trace ? 0.3 : 1.0);
  const auto start = csaw::steady_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(csaw::steady_ns() - start) / 1e9;
  };
  ClosedArm closed;
  OpenArm open;
  const std::uint64_t wrong_before = tally.wrong;
  while (elapsed_s() < kCapFactor * measure_s &&
         (elapsed_s() < measure_s || closed.windows.size() < kMinWindows ||
          open.us.size() < kMinSamples)) {
    closed_window(closed, *d, tally, closed_ops, false);
    open_window(open, w, *d, tally, open_ops);
  }
  const std::uint64_t arm_wrong = tally.wrong - wrong_before;
  d.reset();

  const std::string wn = std::to_string(closed.windows.size()) + " windows, ";
  const std::string gn = wn + ">=" + std::to_string(closed.min_samples(false)) + " each";
  const std::string sn = wn + ">=" + std::to_string(closed.min_samples(true)) + " each";
  const std::string on = samples(open.us.size()) +
                         (w.shape == Shape::kChain ? ", SETs only" : "");
  const std::string own = std::to_string(open.windows.size()) + " 1-s windows, " + on;
  char setup_note[96];
  std::snprintf(setup_note, sizeof setup_note, "median of %zu set-ups",
                setups.size());
  add(e2e, {"setup_s", median(setups), "s", setup_note});
  add(e2e, {"kops", closed.over_windows([](const Window& x) {
              return x.done() / x.seconds / 1e3;
            }), "kops", wn + "median"});
  add(e2e, {"set_p50_us", closed.over_windows([](const Window& x) {
              return quantile(x.set_us, 0.5);
            }), "us", sn});
  add(e2e, {"cpu_us_per_op", closed.over_windows([](const Window& x) {
              return x.cpu_us / x.done();
            }), "us", "user+sys, " + wn + "median"});

  // Reported without a bound: on a shared 4-vCPU host these moved by more
  // than 25 % from run to run with the host, not the program. The p99s
  // follow steal time; cache_hot's GET p50 (a ~15 us hit path) follows
  // where the scheduler places the client and worker threads; the open arm
  // follows how deeply idle vCPUs sleep between its requests.
  const double arm_attempted = static_cast<double>(closed.attempted + open.attempted);
  const double arm_errors =
      static_cast<double>(closed.failed + open.failed + arm_wrong);
  add(layers, {"open_p50_us", open.p50(), "us", own});
  add(layers, {"get_p50_us", closed.over_windows([](const Window& x) {
                 return quantile(x.get_us, 0.5);
               }), "us", gn});
  add(layers, {"get_p99_us", closed.over_windows([](const Window& x) {
                 return quantile(x.get_us, 0.99);
               }), "us", gn});
  add(layers, {"set_p99_us", closed.over_windows([](const Window& x) {
                 return quantile(x.set_us, 0.99);
               }), "us", sn});
  add(layers, {"open_p99_us", quantile(open.us, 0.99), "us", on});
  add(layers, {"error_ratio", arm_errors / arm_attempted, "ratio",
               "failed+wrong / attempted, both arms"});
  add(layers, {"proc.csw_per_op", closed.over_windows([](const Window& x) {
                 return x.csw / x.done();
               }), "count", wn + "median"});
  add(layers, {"proc.threads", static_cast<double>(threads), "count", ""});
  add(layers, {"host.open_late_max_us", open.late_max_us, "us", on});

  // --- traced window --------------------------------------------------------
  if (args.trace) {
    Taps taps;  // outlives the traced service
    auto td = deploy(w, &taps, tally);
    const StoreCounts before = read_counts(*td->service);
    OpStream traced_ops(w, args.seed, 2);
    ClosedArm traced;
    taps.begin_window();
    const auto traced_start = csaw::steady_ns();
    while (traced.windows.size() < kMinWindows ||
           static_cast<double>(csaw::steady_ns() - traced_start) / 1e9 < measure_s) {
      closed_window(traced, *td, tally, traced_ops, true);
    }
    Metrics window = taps.end_window(traced.spans);
    const StoreCounts after = read_counts(*td->service);
    td.reset();
    layers.insert(layers.end(), window.begin(), window.end());
    double traced_sets = 0;
    for (const auto& x : traced.windows) traced_sets += static_cast<double>(x.set_us.size());
    auto more = store_metrics(w, before, after, traced_sets);
    layers.insert(layers.end(), more.begin(), more.end());
    // Mix-weighted p50s, so a bimodal mix (chain_write) compares like with
    // like.
    const auto mix_p50 = [&](const ClosedArm& a) {
      return a.over_windows([&](const Window& x) {
        return w.get_share * quantile(x.get_us, 0.5) + (1 - w.get_share) * quantile(x.set_us, 0.5);
      });
    };
    add(layers, {"trace.overhead_pct", (mix_p50(traced) / mix_p50(closed) - 1) * 100,
                 "%", "traced vs untraced mix-weighted p50"});
    auto probes = layer_probes(w, args.seed);
    layers.insert(layers.end(), probes.begin(), probes.end());
  }

  // --- host record ----------------------------------------------------------
  const double wake = os_wake_p50_us(2000);
  const std::int64_t steal_end = steal_ticks();
  const std::int64_t steal =
      steal_start < 0 || steal_end < 0 ? -1 : steal_end - steal_start;
  print_host(threads, steal, wake);
  add(layers, {"host.os_wake_p50_us", wake, "us", "condvar ping-pong"});
  if (steal >= 0) {
    add(layers, {"host.steal_ticks", static_cast<double>(steal), "count", "whole run"});
  }
  add(layers, {"host.nproc", static_cast<double>(online_cpus()), "count", ""});
  add(layers, {"host.sched_workers", static_cast<double>(default_workers()), "count",
               "default pool size"});
  add(e2e, {"peak_rss_mb", usage_now().maxrss_mb, "MB", ""});

  std::printf("end-to-end (untraced):\n");
  print_metrics(e2e);
  std::printf("per-layer%s:\n", args.trace ? "" : " (run with --trace 1 for the rest)");
  print_metrics(layers);
  const bool correct = tally.wrong == 0;
  if (!correct) {
    std::fprintf(stderr, "%llu wrong answers\n",
                 static_cast<unsigned long long>(tally.wrong));
  }
  print_result(correct, tally.attempted, tally.failed + tally.wrong,
               args.trace ? layers : e2e);
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace reqbench

int main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's default, how many
  // arenas the service threads open depends on who allocates at the same
  // moment, and chain_write's peak RSS flipped between two levels ~24 %
  // apart from run to run.
  mallopt(M_ARENA_MAX, 1);
  reqbench::Args args;
  if (!reqbench::parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: reqbench --workload <shard_uniform|cache_hot|chain_write> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (!reqbench::run_self_test()) return 3;
  return reqbench::run(args);
}
