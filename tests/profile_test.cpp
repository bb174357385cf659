// Cost-profiler tests: body CPU attributed to the junction that burned it,
// ready-queue delay visible under a starved one-worker pool (and exported
// through the sched_* metrics histograms), blocked time of a body that
// call() ran on the calling thread, CostProfile JSON round-trips,
// cross-process merge preserves CPU/eval totals exactly, the destructor
// writes profile_out, and --diff flags regressions in both document modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "compart/runtime.hpp"
#include "obs/expose.hpp"
#include "obs/profile.hpp"
#include "support/clock.hpp"
#include "support/io.hpp"

namespace csaw {
namespace {

using namespace std::chrono_literals;

const Symbol kWork("Work");

// Burns ~`ns` of this thread's CPU time (not wall time).
void burn_cpu(std::uint64_t ns) {
  const std::uint64_t until = thread_cpu_ns() + ns;
  volatile std::uint64_t sink = 0;
  while (thread_cpu_ns() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

InstanceDesc worker_instance(std::string_view name, std::uint64_t burn_ns,
                             std::chrono::milliseconds sleep = {}) {
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  j.body = [burn_ns, sleep](JunctionEnv& env) {
    if (burn_ns > 0) burn_cpu(burn_ns);
    if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
    (void)env.table().set_prop_local(kWork, false);
  };
  j.auto_schedule = true;
  InstanceDesc d;
  d.name = Symbol(name);
  d.type = Symbol("worker");
  d.junctions.push_back(std::move(j));
  return d;
}

Status push_work(Runtime& rt, std::string_view inst) {
  return rt.push({.to = {Symbol(inst), Symbol("j")},
                  .update = Update::assert_prop(kWork),
                  .deadline = Deadline::after(5s),
                  .from = Symbol("test")});
}

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = 10s) {
  const auto deadline = steady_now() + budget;
  while (steady_now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

const obs::JunctionCost* find_junction(const obs::CostProfile& p,
                                       std::string_view instance) {
  for (const auto& j : p.junctions) {
    if (j.instance == instance) return &j;
  }
  return nullptr;
}

// --- CPU attribution -------------------------------------------------------

TEST(ProfileTest, BodyCpuAttributedToTheBurningJunction) {
  obs::Profiler profiler;
  RuntimeOptions opts;
  opts.profiler = &profiler;
  Runtime rt(opts);
  // "hog" burns ~2ms of CPU per run; "idle" does nothing measurable.
  rt.add_instance(worker_instance("hog", 2'000'000));
  rt.add_instance(worker_instance("idle", 0));
  ASSERT_TRUE(rt.start(Symbol("hog")).ok());
  ASSERT_TRUE(rt.start(Symbol("idle")).ok());
  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    // push() acks at table-enqueue time, not after the body runs, and
    // back-to-back asserts of the same prop coalesce into one run -- wait
    // for each run to land before asserting again.
    ASSERT_TRUE(push_work(rt, "hog").ok());
    ASSERT_TRUE(push_work(rt, "idle").ok());
    const auto runs = static_cast<std::uint64_t>(i) + 1;
    ASSERT_TRUE(eventually([&] {
      return rt.runs_completed(Symbol("hog"), Symbol("j")) >= runs &&
             rt.runs_completed(Symbol("idle"), Symbol("j")) >= runs;
    }));
  }
  // The profiler records body CPU after the eval returns; poll until the
  // final run's sample is visible rather than racing the worker.
  ASSERT_TRUE(eventually([&] {
    const auto p = profiler.snapshot();
    const auto* h = find_junction(p, "hog");
    return h != nullptr && h->fires >= static_cast<std::uint64_t>(kRuns) &&
           h->body_cpu_ns >= static_cast<std::uint64_t>(kRuns) * 2'000'000;
  }));
  rt.shutdown();

  const auto profile = profiler.snapshot();
  const auto* hog = find_junction(profile, "hog");
  const auto* idle = find_junction(profile, "idle");
  ASSERT_NE(hog, nullptr);
  ASSERT_NE(idle, nullptr);
  EXPECT_GE(hog->fires, static_cast<std::uint64_t>(kRuns));
  EXPECT_GE(hog->evals, hog->fires);
  // The hog burned >= kRuns * 2ms of CPU; the idle junction's whole life
  // (guard checks + prop flips) is far below one burn.
  EXPECT_GE(hog->body_cpu_ns, static_cast<std::uint64_t>(kRuns) * 2'000'000);
  EXPECT_LT(idle->body_cpu_ns, 2'000'000u);
  EXPECT_GT(hog->body_cpu_ns, 10 * idle->body_cpu_ns);
  // Wall covers CPU (no blocking in the hog's body).
  EXPECT_GE(hog->body_wall_ns, hog->body_cpu_ns / 2);
}

// --- queue delay under a starved pool --------------------------------------

TEST(ProfileTest, QueueDelayNonzeroUnderOneWorker) {
  obs::Metrics metrics;
  obs::Profiler profiler;
  RuntimeOptions opts;
  opts.profiler = &profiler;
  opts.metrics = &metrics;
  opts.scheduler.workers = 1;
  Runtime rt(opts);
  // A 20ms CPU-spinning body on a one-worker pool: the sibling's wake sits
  // in the ready queue for most of that spin. (A sleeping body would grow
  // a spare via the blocking hooks; spinning keeps the pool at one.)
  rt.add_instance(worker_instance("spin", 20'000'000));
  rt.add_instance(worker_instance("other", 0));
  ASSERT_TRUE(rt.start(Symbol("spin")).ok());
  ASSERT_TRUE(rt.start(Symbol("other")).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(push_work(rt, "spin").ok());
    ASSERT_TRUE(push_work(rt, "other").ok());
    const auto runs = static_cast<std::uint64_t>(i) + 1;
    ASSERT_TRUE(eventually([&] {
      return rt.runs_completed(Symbol("spin"), Symbol("j")) >= runs &&
             rt.runs_completed(Symbol("other"), Symbol("j")) >= runs;
    }));
  }
  // Delay samples are recorded when the starved wake finally dequeues; poll
  // for one that waited out a meaningful slice of a 20ms spin.
  ASSERT_TRUE(eventually([&] {
    const auto p = profiler.snapshot();
    const auto* o = find_junction(p, "other");
    return o != nullptr && o->queue_delay_ns.count > 0 &&
           o->queue_delay_ns.max > 1'000'000;
  }));
  rt.shutdown();

  const auto profile = profiler.snapshot();
  const auto* other = find_junction(profile, "other");
  ASSERT_NE(other, nullptr);
  ASSERT_GT(other->queue_delay_ns.count, 0u);
  // At least one wake waited out a meaningful slice of the 20ms spin.
  EXPECT_GT(other->queue_delay_ns.max, 1'000'000u);
  // /metrics renders these same rows as labelled series.
  const std::string text = obs::render_prometheus(&metrics, nullptr, &profile);
  const std::string labels =
      "{node=\"local\",instance=\"other\",junction=\"j\"}";
  EXPECT_NE(text.find("csaw_junction_queue_delay_ns_count" + labels + " " +
                      std::to_string(other->queue_delay_ns.count) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("csaw_junction_body_cpu_ns_total" + labels + " " +
                      std::to_string(other->body_cpu_ns) + "\n"),
            std::string::npos);
  EXPECT_GT(other->body_cpu_per_eval_ns.count, 0u);
  EXPECT_NE(text.find("csaw_junction_body_cpu_per_eval_ns_count" + labels +
                      " " +
                      std::to_string(other->body_cpu_per_eval_ns.count) +
                      "\n"),
            std::string::npos);
}

// --- blocked time of a caller-run eval --------------------------------------

TEST(ProfileTest, CallerRunBodyAttributesItsBlockedTime) {
  // call() from this thread runs the body here, not on a pool worker. Its
  // 20 ms `wait` must still count as the junction's blocked time.
  obs::Profiler profiler;
  RuntimeOptions opts;
  opts.profiler = &profiler;
  Runtime rt(opts);
  {
    JunctionDesc j;
    j.name = Symbol("j");
    j.table_spec.props = {{kWork, false}};
    j.body = [](JunctionEnv& env) {
      (void)env.table().wait(
          [](const TableView& v) { return v.prop(kWork); }, {},
          Deadline::after(20ms));
    };
    InstanceDesc d;
    d.name = Symbol("waiter");
    d.type = Symbol("waiter");
    d.junctions.push_back(std::move(j));
    rt.add_instance(std::move(d));
  }
  ASSERT_TRUE(rt.start(Symbol("waiter")).ok());
  obs::JunctionProfile* slot = profiler.junction("waiter", "j");
  // Let the eval every start() queues settle before taking the baseline.
  ASSERT_TRUE(eventually([&] {
    return slot->evals.load(std::memory_order_relaxed) >= 1;
  }));
  std::this_thread::sleep_for(20ms);
  const auto evals0 = slot->evals.load(std::memory_order_relaxed);
  const auto blocked0 = slot->blocked_ns.load(std::memory_order_relaxed);

  ASSERT_TRUE(
      rt.call(Symbol("waiter"), Symbol("j"), Deadline::after(10s)).ok());
  EXPECT_EQ(slot->evals.load(std::memory_order_relaxed) - evals0, 1u);
  EXPECT_GE(slot->blocked_ns.load(std::memory_order_relaxed) - blocked0,
            15'000'000u);
}

// --- serialization & merge -------------------------------------------------

TEST(ProfileTest, JsonRoundTripPreservesTotals) {
  obs::CostProfile p;
  p.nodes = {"nodeA"};
  p.duration_ns = 123456789;
  obs::JunctionCost j;
  j.node = "nodeA";
  j.instance = "i";
  j.junction = "j";
  j.evals = 10;
  j.fires = 7;
  j.body_cpu_ns = 41'000'000;
  j.blocked_ns = 5;
  j.queue_delay_ns = {10, 1000, 400, 50.0, 300.0, 390.0};
  p.junctions.push_back(j);
  obs::LinkCost l;
  l.node = "nodeA";
  l.peer = "nodeB";
  l.frames_sent = 17;
  l.bytes_sent = 4096;
  l.rtt_ns = {3, 900, 500, 200.0, 450.0, 495.0};
  p.links.push_back(l);
  obs::TableCost t;
  t.node = "nodeA";
  t.instance = "i";
  t.keys = 4;
  t.writes = 99;
  t.wal_bytes = 2048;
  p.tables.push_back(t);

  const auto parsed = obs::parse_cost_profile(obs::cost_profile_json(p));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_EQ(parsed->junctions.size(), 1u);
  EXPECT_EQ(parsed->duration_ns, p.duration_ns);
  EXPECT_EQ(parsed->junctions[0].body_cpu_ns, j.body_cpu_ns);
  EXPECT_EQ(parsed->junctions[0].evals, j.evals);
  EXPECT_EQ(parsed->junctions[0].queue_delay_ns.count, 10u);
  EXPECT_DOUBLE_EQ(parsed->junctions[0].queue_delay_ns.p99, 390.0);
  ASSERT_EQ(parsed->links.size(), 1u);
  EXPECT_EQ(parsed->links[0].bytes_sent, 4096u);
  ASSERT_EQ(parsed->tables.size(), 1u);
  EXPECT_EQ(parsed->tables[0].wal_bytes, 2048u);
}

TEST(ProfileTest, MergePreservesCpuAndEvalTotalsAcrossNodes) {
  // Two runtimes with distinct node names and private profilers, as two
  // shard processes would run; merge through the same library call
  // csaw-profile uses.
  auto run_node = [](const char* node, const char* inst,
                     std::uint64_t burn_ns) {
    obs::Profiler profiler;
    RuntimeOptions opts;
    opts.profiler = &profiler;
    opts.tcp.node_name = node;
    Runtime rt(opts);
    rt.add_instance(worker_instance(inst, burn_ns));
    EXPECT_TRUE(rt.start(Symbol(inst)).ok());
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(push_work(rt, inst).ok());
    rt.shutdown();
    return profiler.snapshot();
  };
  const auto pa = run_node("nodeA", "front", 1'000'000);
  const auto pb = run_node("nodeB", "back", 2'000'000);

  // Round-trip through JSON first: the tool merges parsed files.
  const auto ra = obs::parse_cost_profile(obs::cost_profile_json(pa));
  const auto rb = obs::parse_cost_profile(obs::cost_profile_json(pb));
  ASSERT_TRUE(ra.ok() && rb.ok());
  const auto merged = obs::merge_profiles({*ra, *rb});

  auto cpu_total = [](const obs::CostProfile& p) {
    std::uint64_t sum = 0;
    for (const auto& j : p.junctions) sum += j.body_cpu_ns;
    return sum;
  };
  auto eval_total = [](const obs::CostProfile& p) {
    std::uint64_t sum = 0;
    for (const auto& j : p.junctions) sum += j.evals;
    return sum;
  };
  ASSERT_EQ(merged.nodes.size(), 2u);
  EXPECT_EQ(cpu_total(merged), cpu_total(pa) + cpu_total(pb));
  EXPECT_EQ(eval_total(merged), eval_total(pa) + eval_total(pb));
  EXPECT_NE(find_junction(merged, "front"), nullptr);
  EXPECT_NE(find_junction(merged, "back"), nullptr);
  // Per-instance table rows from both nodes survive the merge.
  EXPECT_EQ(merged.tables.size(), 2u);
}

TEST(ProfileTest, DestructorWritesProfileOut) {
  const std::string path =
      ::testing::TempDir() + "/csaw_profile_test_out.json";
  (void)std::remove(path.c_str());
  {
    RuntimeOptions opts;
    opts.profile_out = path;
    Runtime rt(opts);
    rt.add_instance(worker_instance("solo", 500'000));
    ASSERT_TRUE(rt.start(Symbol("solo")).ok());
    ASSERT_TRUE(push_work(rt, "solo").ok());
    // The ack means "enqueued", not "ran": wait for the fire before the
    // runtime (and its profile write) goes out of scope.
    obs::JunctionProfile* slot = rt.profiler()->junction("solo", "j");
    ASSERT_TRUE(eventually([&] {
      return slot->fires.load(std::memory_order_relaxed) >= 1;
    }));
  }
  const auto loaded = obs::load_cost_profile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  const auto* solo = find_junction(*loaded, "solo");
  ASSERT_NE(solo, nullptr);
  EXPECT_GE(solo->fires, 1u);
  EXPECT_GT(solo->body_cpu_ns, 0u);
  // No TCP transport: node defaults to "local", and the stop-time fold
  // captured the table row.
  EXPECT_EQ(solo->node, "local");
  ASSERT_EQ(loaded->tables.size(), 1u);
  EXPECT_GT(loaded->tables[0].writes, 0u);
}

// --- regression diffing ----------------------------------------------------

TEST(ProfileTest, DiffFlagsCostProfileRegressions) {
  auto profile_text = [](std::uint64_t cpu_ns) {
    obs::CostProfile p;
    p.nodes = {"n"};
    p.duration_ns = 1'000'000'000;
    obs::JunctionCost j;
    j.node = "n";
    j.instance = "i";
    j.junction = "j";
    j.evals = 100;
    j.body_cpu_ns = cpu_ns;
    p.junctions.push_back(j);
    return obs::cost_profile_json(p);
  };
  const std::string before = profile_text(100'000'000);
  const std::string after = profile_text(200'000'000);  // 2x cpu per eval

  obs::DiffOptions opts;
  opts.threshold_pct = 25.0;
  auto diff = obs::diff_documents(before, after, opts);
  ASSERT_TRUE(diff.ok()) << diff.error().to_string();
  EXPECT_FALSE(diff->regressions.empty());

  // Same comparison under a 150% threshold: within budget.
  opts.threshold_pct = 150.0;
  diff = obs::diff_documents(before, after, opts);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->regressions.empty());

  // Improvement direction never counts as a regression.
  diff = obs::diff_documents(after, before, {});
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->regressions.empty());
  EXPECT_FALSE(diff->improvements.empty());
}

TEST(ProfileTest, MergeOfIdleProfilesProducesNoNaN) {
  // Regression: merging two zero-count summaries used to compute the
  // count-weighted percentile average as 0/0, poisoning the merged document
  // with NaN (which json rejects and --diff chokes on).
  obs::HistSummary idle_a;
  obs::HistSummary idle_b;
  const auto m = obs::merge_summaries(idle_a, idle_b);
  EXPECT_EQ(m.count, 0u);
  EXPECT_FALSE(std::isnan(m.p50));
  EXPECT_FALSE(std::isnan(m.p90));
  EXPECT_FALSE(std::isnan(m.p99));
  EXPECT_EQ(m.p50, 0.0);

  // A zero-count input must not drag down the carrying side's percentiles.
  obs::HistSummary busy;
  busy.count = 4;
  busy.sum = 400;
  busy.max = 200;
  busy.p50 = 100.0;
  busy.p90 = 180.0;
  busy.p99 = 198.0;
  const auto carried = obs::merge_summaries(idle_a, busy);
  EXPECT_EQ(carried.count, 4u);
  EXPECT_EQ(carried.p50, 100.0);
  EXPECT_EQ(carried.p99, 198.0);

  // End to end: two idle profiles (fresh junction, no evals) merge to a
  // document that round-trips through json and diffs cleanly against
  // itself -- the CI perf gate path for a quiescent run.
  auto idle_profile = [](const std::string& node) {
    obs::CostProfile p;
    p.nodes = {node};
    p.duration_ns = 1'000'000;
    obs::JunctionCost j;
    j.node = node;
    j.instance = "i";
    j.junction = "j";
    p.junctions.push_back(j);
    return p;
  };
  const auto merged =
      obs::merge_profiles({idle_profile("n0"), idle_profile("n1")});
  const std::string text = obs::cost_profile_json(merged);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  auto parsed = obs::parse_cost_profile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  auto diff = obs::diff_documents(text, text, {});
  ASSERT_TRUE(diff.ok()) << diff.error().to_string();
  EXPECT_TRUE(diff->regressions.empty());
}

TEST(ProfileTest, DiffHandlesBenchSnapshotsAndMinAbs) {
  const std::string before =
      R"({"bench":"sched_scale","metrics":{"p99_scale":0.010,"ops_per_s_event":100000}})";
  const std::string worse =
      R"({"bench":"sched_scale","metrics":{"p99_scale":0.020,"ops_per_s_event":60000}})";
  auto diff = obs::diff_documents(before, worse, {});
  ASSERT_TRUE(diff.ok()) << diff.error().to_string();
  // Latency doubled and throughput dropped 40%: both flagged.
  EXPECT_EQ(diff->regressions.size(), 2u);

  // A large relative but tiny absolute latency jitter is damped by the
  // absolute floor (the CI perf gate uses this on millisecond metrics).
  obs::DiffOptions opts;
  opts.min_abs = 0.050;
  diff = obs::diff_documents(before, worse, opts);
  ASSERT_TRUE(diff.ok());
  for (const auto& f : diff->regressions) {
    EXPECT_NE(f.metric.find("ops_per_s"), std::string::npos) << f.metric;
  }

  // Mixing document kinds is a usage error, not a silent zero-diff.
  const std::string profile_doc =
      R"({"csaw_profile":1,"nodes":[],"duration_ns":1,"junctions":[],"links":[],"tables":[]})";
  EXPECT_FALSE(obs::diff_documents(before, profile_doc, {}).ok());
}

}  // namespace
}  // namespace csaw
