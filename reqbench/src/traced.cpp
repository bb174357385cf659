#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "support/clock.hpp"

namespace reqbench {
namespace {

using csaw::obs::Histogram;

// Histogram bucket index -> count.
using Buckets = std::map<std::size_t, std::uint64_t>;

// Recovers a histogram's bucket counts through its public quantile(), which
// is monotone in rank: binary-search the last rank of each bucket. Lets the
// benchmark subtract two readings of a live histogram.
Buckets buckets_of(const Histogram& h) {
  Buckets out;
  const std::uint64_t n = h.count();
  if (n == 0) return out;
  const auto bucket_at = [&](std::uint64_t rank) {
    const double q =
        n == 1 ? 0.0 : static_cast<double>(rank) / static_cast<double>(n - 1);
    return Histogram::bucket_index(static_cast<std::uint64_t>(h.quantile(q)));
  };
  std::uint64_t rank = 0;
  while (rank < n) {
    const std::size_t b = bucket_at(rank);
    std::uint64_t lo = rank;
    std::uint64_t hi = n - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (bucket_at(mid) == b) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    out[b] += lo - rank + 1;
    rank = lo + 1;
  }
  return out;
}

void add_into(Buckets& into, const Buckets& b) {
  for (const auto& [i, n] : b) into[i] += n;
}

Buckets minus(const Buckets& after, const Buckets& before) {
  Buckets out;
  for (const auto& [i, n] : after) {
    auto it = before.find(i);
    const std::uint64_t was = it == before.end() ? 0 : it->second;
    if (n > was) out[i] = n - was;
  }
  return out;
}

std::uint64_t total(const Buckets& b) {
  std::uint64_t t = 0;
  for (const auto& [i, n] : b) t += n;
  return t;
}

// The same interpolation as Histogram::quantile, over recovered buckets.
double bucket_quantile(const Buckets& b, double q) {
  const std::uint64_t n = total(b);
  if (n == 0) return std::nan("");
  const double target = q * static_cast<double>(n - 1);
  std::uint64_t cum = 0;
  for (const auto& [i, count] : b) {
    if (static_cast<double>(cum + count) > target) {
      const double lower = static_cast<double>(Histogram::bucket_lower(i));
      const double upper =
          i + 1 < Histogram::kBuckets
              ? static_cast<double>(Histogram::bucket_lower(i + 1))
              : lower + 1.0;
      const double frac = std::clamp(
          (target - static_cast<double>(cum) + 0.5) / static_cast<double>(count),
          0.0, 1.0);
      return lower + frac * (upper - lower);
    }
    cum += count;
  }
  return std::nan("");
}

using Iv = std::pair<std::uint64_t, std::uint64_t>;

std::uint64_t union_length(std::vector<Iv> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t len = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) len += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) len += cur_end - cur_start;
  return len;
}

}  // namespace

void SpanSink::record(const csaw::obs::TraceEvent& event) {
  if (!armed_.load(std::memory_order_relaxed)) return;
  using Kind = csaw::obs::TraceEvent::Kind;
  const bool run = event.kind == Kind::kJunctionRan;
  const bool push = event.kind == Kind::kPushAcked ||
                    event.kind == Kind::kPushNacked ||
                    event.kind == Kind::kPushTimeout;
  if (!run && !push) return;
  const std::uint64_t end =
      event.at == csaw::SteadyTime{}
          ? csaw::steady_ns()
          : static_cast<std::uint64_t>(
                std::chrono::duration_cast<csaw::Nanos>(
                    event.at.time_since_epoch())
                    .count());
  const Interval iv{end - std::min(end, event.value_ns), end, run};
  std::scoped_lock lock(mu_);
  intervals_.push_back(iv);
}

std::vector<SpanSink::Interval> SpanSink::take() {
  std::scoped_lock lock(mu_);
  return std::exchange(intervals_, {});
}

struct Taps::Reading {
  std::map<std::string, std::uint64_t> counters;  // only registered names
  bool has_push_latency = false;
  Buckets push_latency;
  Buckets queue_delay;  // summed over every profiled junction
  std::uint64_t evals = 0;
  std::uint64_t fires = 0;
  std::uint64_t body_cpu_ns = 0;
  std::uint64_t body_wall_ns = 0;
  std::uint64_t blocked_ns = 0;
};

Taps::Taps() = default;
Taps::~Taps() = default;

Taps::Reading Taps::read() {
  Reading r;
  metrics_.for_each_counter([&](const std::string& name, const auto& c) {
    r.counters[name] = c.value();
  });
  metrics_.for_each_histogram([&](const std::string& name, const auto& h) {
    if (name == "push_latency_ns") {
      r.has_push_latency = true;
      r.push_latency = buckets_of(h);
    }
  });
  for (const auto& row : profiler_.snapshot().junctions) {
    r.evals += row.evals;
    r.fires += row.fires;
    r.body_cpu_ns += row.body_cpu_ns;
    r.body_wall_ns += row.body_wall_ns;
    r.blocked_ns += row.blocked_ns;
    add_into(r.queue_delay,
             buckets_of(profiler_.junction(row.instance, row.junction)
                            ->queue_delay_ns));
  }
  return r;
}

void Taps::begin_window() {
  before_ = std::make_unique<Reading>(read());
  sink_.arm(true);
}

Metrics Taps::end_window(const std::vector<ClientSpan>& spans) {
  // Runs and acks are traced just after the caller is released; let the
  // last request's events land before reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sink_.arm(false);
  const Reading after = read();
  const Reading& before = *before_;
  const double ops = static_cast<double>(spans.size());
  Metrics out;
  if (spans.empty()) return out;

  const auto delta = [&](const char* name) -> double {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    if (a == after.counters.end() || b == before.counters.end()) {
      return std::nan("");  // counter absent from the registry
    }
    return static_cast<double>(a->second - b->second);
  };
  const auto hist = [&](const char* prefix, const Buckets& b, double scale) {
    const std::string n = samples(total(b));
    add(out, {std::string(prefix) + "_p50_us", bucket_quantile(b, 0.5) * scale,
              "us", n});
    add(out, {std::string(prefix) + "_p99_us", bucket_quantile(b, 0.99) * scale,
              "us", n});
  };

  // --- compart/sched, through the profiler --------------------------------
  hist("compart.sched.queue_delay", minus(after.queue_delay, before.queue_delay),
       1e-3);
  const double evals = static_cast<double>(after.evals - before.evals);
  add(out, {"compart.sched.evals_per_op", evals / ops, "count", ""});
  add(out, {"compart.sched.fire_ratio",
            evals > 0 ? static_cast<double>(after.fires - before.fires) / evals
                      : std::nan(""),
            "ratio", "fires/evals"});
  add(out, {"compart.sched.body_cpu_us_per_op",
            static_cast<double>(after.body_cpu_ns - before.body_cpu_ns) / 1e3 /
                ops,
            "us", ""});
  const double wall = static_cast<double>(after.body_wall_ns - before.body_wall_ns);
  add(out, {"compart.sched.blocked_share",
            wall > 0 ? static_cast<double>(after.blocked_ns - before.blocked_ns) /
                           wall
                     : std::nan(""),
            "ratio", "blocked/body wall"});

  // --- compart push path, through the metrics registry ---------------------
  add(out, {"compart.push.per_op", delta("push_sent") / ops, "count", ""});
  if (after.has_push_latency) {
    hist("compart.push.ack", minus(after.push_latency, before.push_latency),
         1e-3);
  }
  add(out, {"compart.push.nack_per_op",
            (delta("push_nacked") + delta("push_timeout")) / ops, "count",
            "nacks+timeouts"});
  add(out, {"kv.applied_per_op", delta("kv_updates_applied") / ops, "count", ""});
  add(out, {"core.guard_rejected_per_op", delta("guard_rejected") / ops,
            "count", ""});

  // --- per-request stages, from the trace ----------------------------------
  auto events = sink_.take();
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  std::vector<double> handoff, queue, body, push, ret, whole;
  std::size_t next = 0;
  for (const auto& span : spans) {
    while (next < events.size() && events[next].start_ns < span.start_ns) ++next;
    std::size_t end = next;
    while (end < events.size() && events[end].start_ns <= span.end_ns) ++end;
    const SpanSink::Interval* front = nullptr;
    for (std::size_t i = next; i < end; ++i) {
      if (events[i].is_run) {
        front = &events[i];
        break;
      }
    }
    if (front == nullptr) {  // never entered the runtime
      next = end;
      continue;
    }
    const std::uint64_t fs = front->start_ns;
    const std::uint64_t fe = std::clamp(front->end_ns, fs, span.end_ns);
    std::vector<Iv> children;
    std::vector<Iv> pushes;
    for (std::size_t i = next; i < end; ++i) {
      if (&events[i] == front) continue;
      const std::uint64_t s = std::clamp(events[i].start_ns, fs, fe);
      const std::uint64_t e = std::clamp(events[i].end_ns, fs, fe);
      if (e <= s) continue;
      children.emplace_back(s, e);
      if (!events[i].is_run) pushes.emplace_back(s, e);
    }
    next = end;
    double q = 0;
    double b = static_cast<double>(fe - fs);
    double p = 0;
    if (!children.empty()) {
      std::uint64_t first = fe;
      std::uint64_t last = fs;
      for (const auto& [s, e] : children) {
        first = std::min(first, s);
        last = std::max(last, e);
      }
      const auto covered = static_cast<double>(union_length(children));
      p = static_cast<double>(union_length(pushes));
      const double edges = static_cast<double>((first - fs) + (fe - last));
      q = std::max(0.0, static_cast<double>(fe - fs) - covered - edges);
      b = edges + (covered - p);
    }
    handoff.push_back(static_cast<double>(fs - span.start_ns) / 1e3);
    queue.push_back(q / 1e3);
    body.push_back(b / 1e3);
    push.push_back(p / 1e3);
    ret.push_back(static_cast<double>(span.end_ns - fe) / 1e3);
    whole.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  if (!whole.empty()) {
    const std::string n = samples(whole.size());
    double sum = 0;
    const auto stage = [&](const char* name, std::vector<double>& v) {
      const double m = median(v);
      sum += m;
      add(out, {name, m, "us", n});
    };
    stage("trace.handoff_p50_us", handoff);
    stage("trace.queue_p50_us", queue);
    stage("trace.body_p50_us", body);
    stage("trace.push_p50_us", push);
    stage("trace.return_p50_us", ret);
    add(out, {"trace.explained_share", sum / median(whole), "ratio",
              "sum of stage p50s / p50 of traced requests that entered the "
              "runtime, " + n});
  }
  return out;
}

}  // namespace reqbench
