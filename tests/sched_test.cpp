// Event-driven scheduler tests: wake-set precision (an unrelated key write
// must not evaluate a subscriber), wildcard fallback for hand-written
// guards, no lost wakeups under sustained load, blocked-worker pool growth,
// call() deadline-edge accounting, caller-runs call() (the body runs on
// the calling thread unless the caller is itself a body or the junction is
// already queued or running), and the guard-formula simplifier feeding the
// dependency analyzer.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "compart/runtime.hpp"
#include "core/interp.hpp"
#include "core/simplify.hpp"

namespace csaw {
namespace {

const Symbol kWork("Work");
const Symbol kNoise("Noise");
const Symbol kDone("Done");

using namespace std::chrono_literals;

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = 5s) {
  const auto deadline = steady_now() + budget;
  while (steady_now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

InstanceDesc echo_instance(std::string_view name,
                           std::atomic<int>* runs = nullptr) {
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  j.body = [runs](JunctionEnv& env) {
    if (runs != nullptr) runs->fetch_add(1);
    (void)env.table().set_prop_local(kWork, false);
  };
  j.auto_schedule = true;
  InstanceDesc d;
  d.name = Symbol(name);
  d.type = Symbol("echo");
  d.junctions.push_back(std::move(j));
  return d;
}

Status push_assert(Runtime& rt, std::string_view inst, Symbol key) {
  return rt.push({.to = {Symbol(inst), Symbol("j")},
                  .update = Update::assert_prop(key),
                  .deadline = Deadline::after(5s),
                  .from = Symbol("test")});
}

// --- wake-set precision ----------------------------------------------------

TEST(SchedPrecision, UnrelatedKeyWriteDoesNotEvalSubscriber) {
  // "src::j" hosts Work and Noise. "watch::j" is an auto junction whose
  // guard remote-reads src::j@Work; its wake plan subscribes it to exactly
  // that key. With a 10 s timer tick, only a precise event wake can explain
  // the watcher reacting quickly -- and Noise traffic must not evaluate it
  // at all.
  RuntimeOptions opts;
  opts.scheduler.timer_resolution = 10s;
  Runtime rt(opts);

  {
    JunctionDesc j;
    j.name = Symbol("j");
    j.table_spec.props = {{kWork, false}, {kNoise, false}};
    // No guard: src only ever applies pushed updates.
    InstanceDesc d;
    d.name = Symbol("src");
    d.type = Symbol("src");
    d.junctions.push_back(std::move(j));
    rt.add_instance(std::move(d));
  }
  std::atomic<int> watcher_runs{0};
  {
    JunctionDesc j;
    j.name = Symbol("j");
    j.table_spec.props = {{kDone, false}};
    const JunctionAddr src{Symbol("src"), Symbol("j")};
    j.guard = [src](const KvTable& t, const RuntimeView& rtv) {
      auto remote = rtv.remote_prop(src, kWork);
      return remote.ok() && *remote && !*t.prop(kDone);
    };
    j.body = [&watcher_runs](JunctionEnv& env) {
      watcher_runs.fetch_add(1);
      (void)env.table().set_prop_local(kDone, true);
    };
    j.auto_schedule = true;
    // The wake plan the analyzer would produce for
    //   guard src::j@Work & !Done
    j.wake_plan.analyzed = true;
    j.wake_plan.keys = {kDone};
    j.wake_plan.remote.push_back({src, {kWork}});
    InstanceDesc d;
    d.name = Symbol("watch");
    d.type = Symbol("watch");
    d.junctions.push_back(std::move(j));
    rt.add_instance(std::move(d));
  }
  ASSERT_TRUE(rt.start(Symbol("src")).ok());
  ASSERT_TRUE(rt.start(Symbol("watch")).ok());

  // Let the initial start-wake evals settle, then snapshot.
  std::this_thread::sleep_for(50ms);
  const auto baseline = rt.junction_evals(Symbol("watch"), Symbol("j"));

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(push_assert(rt, "src", kNoise).ok());
  }
  std::this_thread::sleep_for(100ms);
  // Noise wakes src (it must apply the updates) but never the watcher.
  EXPECT_EQ(rt.junction_evals(Symbol("watch"), Symbol("j")), baseline);
  EXPECT_EQ(watcher_runs.load(), 0);

  // The subscribed key does wake it -- far faster than the 10 s timer tick.
  ASSERT_TRUE(push_assert(rt, "src", kWork).ok());
  EXPECT_TRUE(eventually([&] { return watcher_runs.load() == 1; }, 2s));
}

TEST(SchedPrecision, HandGuardFallsBackToWildcard) {
  // No wake plan at all (analyzed = false): pushes must still drive the
  // junction promptly even with the timer effectively disabled, because
  // unanalyzed guards get wildcard wakes on every owner-table change.
  RuntimeOptions opts;
  opts.scheduler.timer_resolution = 10s;
  std::atomic<int> runs{0};
  Runtime rt(opts);
  rt.add_instance(echo_instance("a", &runs));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(push_assert(rt, "a", kWork).ok());
    ASSERT_TRUE(eventually([&] { return runs.load() >= i; }, 2s))
        << "push " << i << " lost; runs = " << runs.load();
  }
}

// --- no lost wakeups -------------------------------------------------------

TEST(SchedWakeups, SustainedPushesNeverLoseARun) {
  std::atomic<int> runs{0};
  Runtime rt;
  rt.add_instance(echo_instance("a", &runs));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  for (int i = 1; i <= 300; ++i) {
    ASSERT_TRUE(push_assert(rt, "a", kWork).ok());
    // The body retracts Work, so every push needs exactly one fresh run;
    // a single lost wakeup stalls this loop forever.
    ASSERT_TRUE(eventually([&] { return runs.load() >= i; }))
        << "push " << i << " lost; runs = " << runs.load();
  }
  EXPECT_EQ(runs.load(), 300);
}

TEST(SchedWakeups, ConcurrentCallsAllComplete) {
  JunctionDesc j;
  j.name = Symbol("j");
  std::atomic<int> runs{0};
  j.body = [&runs](JunctionEnv&) { runs.fetch_add(1); };
  InstanceDesc d;
  d.name = Symbol("a");
  d.type = Symbol("manual");
  d.junctions.push_back(std::move(j));
  Runtime rt;
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  constexpr int kThreads = 4;
  constexpr int kCalls = 50;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        if (rt.call(Symbol("a"), Symbol("j"), Deadline::after(10s)).ok()) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * kCalls);
  EXPECT_GE(runs.load(), kThreads * kCalls);
}

// --- blocked workers -------------------------------------------------------

TEST(SchedPool, BlockedBodyDoesNotStarveRunnableJunctions) {
  // One worker. "blocker::j" parks its body in a 2 s ack wait (the target
  // is down and nacks are disabled, so the push blocks until its deadline).
  // The pool must notice the announced block and spawn a spare so that
  // "free::j" still runs.
  RuntimeOptions opts;
  opts.scheduler.workers = 1;
  opts.nack_when_down = false;
  Runtime rt(opts);
  {
    JunctionDesc j;
    j.name = Symbol("j");
    j.body = [&rt](JunctionEnv&) {
      (void)rt.push({.to = {Symbol("ghost"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(2s),
                     .from = Symbol("blocker")});
    };
    InstanceDesc d;
    d.name = Symbol("blocker");
    d.type = Symbol("blocker");
    d.junctions.push_back(std::move(j));
    rt.add_instance(std::move(d));
  }
  rt.add_instance(echo_instance("ghost"));  // never started: push target
  std::atomic<int> free_runs{0};
  rt.add_instance(echo_instance("free", &free_runs));
  ASSERT_TRUE(rt.start(Symbol("blocker")).ok());
  ASSERT_TRUE(rt.start(Symbol("free")).ok());

  ASSERT_TRUE(rt.schedule(Symbol("blocker"), Symbol("j")).ok());
  std::this_thread::sleep_for(50ms);  // let the blocker occupy the worker
  ASSERT_TRUE(push_assert(rt, "free", kWork).ok());
  // Well inside the blocker's 2 s park: only a spare can run this.
  EXPECT_TRUE(eventually([&] { return free_runs.load() >= 1; }, 1500ms));
}

// --- call() deadline edge --------------------------------------------------

TEST(SchedCall, RunCompletingAfterDeadlineIsOkNotTimeout) {
  // The guard passes before the deadline and the body is still running when
  // it expires. call() must wait out the in-flight eval and report the
  // completed run instead of a spurious kTimeout.
  JunctionDesc j;
  j.name = Symbol("j");
  j.body = [](JunctionEnv&) { std::this_thread::sleep_for(200ms); };
  InstanceDesc d;
  d.name = Symbol("a");
  d.type = Symbol("slow");
  d.junctions.push_back(std::move(j));
  Runtime rt;
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  auto st = rt.call(Symbol("a"), Symbol("j"), Deadline::after(50ms));
  EXPECT_TRUE(st.ok()) << st.error().to_string();
}

TEST(SchedCall, ClosedGuardIsGuardRejectedNotTimeout) {
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  j.body = [](JunctionEnv&) {};
  InstanceDesc d;
  d.name = Symbol("a");
  d.type = Symbol("gated");
  d.junctions.push_back(std::move(j));
  Runtime rt;
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  auto st = rt.call(Symbol("a"), Symbol("j"), Deadline::after(150ms));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::kGuardRejected);
}

TEST(SchedCall, GuardOpeningAtTheDeadlineNeverReportsTimeout) {
  // The racing case the accounting fix targets: the guard opens right at
  // the deadline. Whichever side wins, the verdict must be a real one --
  // ok (the run landed) or kGuardRejected (the guard was seen closed) --
  // never kTimeout, because the junction demonstrably got its chance.
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  j.body = [](JunctionEnv&) {};
  InstanceDesc d;
  d.name = Symbol("a");
  d.type = Symbol("edge");
  d.junctions.push_back(std::move(j));
  Runtime rt;
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  for (int i = 0; i < 10; ++i) {
    (void)rt.inject({Symbol("a"), Symbol("j")}, Update::retract_prop(kWork));
    std::this_thread::sleep_for(10ms);
    const auto deadline = Deadline::after(60ms);
    std::thread opener([&] {
      std::this_thread::sleep_for(60ms);
      (void)rt.inject({Symbol("a"), Symbol("j")}, Update::assert_prop(kWork));
    });
    auto st = rt.call(Symbol("a"), Symbol("j"), deadline);
    opener.join();
    if (!st.ok()) {
      EXPECT_EQ(st.error().code, Errc::kGuardRejected)
          << "iteration " << i << ": " << st.error().to_string();
    }
  }
}

// --- caller-runs call() -----------------------------------------------------

InstanceDesc manual_instance(std::string_view name,
                             std::function<void(JunctionEnv&)> body,
                             GuardFn guard = nullptr) {
  JunctionDesc j;
  j.name = Symbol("j");
  j.body = std::move(body);
  j.guard = std::move(guard);
  InstanceDesc d;
  d.name = Symbol(name);
  d.type = Symbol("manual");
  d.junctions.push_back(std::move(j));
  return d;
}

// Waits out the eval every start() queues, so that the junction is idle.
void settle_start_eval(Runtime& rt, std::string_view inst) {
  ASSERT_TRUE(eventually(
      [&] { return rt.junction_evals(Symbol(inst), Symbol("j")) >= 1; }));
  std::this_thread::sleep_for(20ms);
}

TEST(SchedCallerRuns, CallFromAPlainThreadRunsTheBodyOnThatThread) {
  obs::Metrics metrics;
  RuntimeOptions opts;
  opts.metrics = &metrics;
  Runtime rt(opts);
  std::atomic<std::thread::id> body_thread{};
  rt.add_instance(manual_instance("a", [&](JunctionEnv&) {
    body_thread.store(std::this_thread::get_id());
  }));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  settle_start_eval(rt, "a");
  for (int i = 0; i < 50; ++i) {
    body_thread.store(std::thread::id{});
    ASSERT_TRUE(rt.call(Symbol("a"), Symbol("j"), Deadline::after(10s)).ok());
    EXPECT_EQ(body_thread.load(), std::this_thread::get_id()) << "call " << i;
  }
  EXPECT_EQ(metrics.counter("sched_caller_runs").value(), 50u);
}

TEST(SchedCallerRuns, NestedCallFromABodyRunsOnThePool) {
  Runtime rt;
  std::atomic<std::thread::id> outer_thread{};
  std::atomic<std::thread::id> inner_thread{};
  std::atomic<bool> nested_ok{false};
  rt.add_instance(manual_instance("inner", [&](JunctionEnv&) {
    inner_thread.store(std::this_thread::get_id());
  }));
  rt.add_instance(manual_instance("outer", [&](JunctionEnv&) {
    outer_thread.store(std::this_thread::get_id());
    nested_ok.store(
        rt.call(Symbol("inner"), Symbol("j"), Deadline::after(10s)).ok());
  }));
  ASSERT_TRUE(rt.start(Symbol("inner")).ok());
  ASSERT_TRUE(rt.start(Symbol("outer")).ok());
  settle_start_eval(rt, "inner");
  settle_start_eval(rt, "outer");
  ASSERT_TRUE(rt.call(Symbol("outer"), Symbol("j"), Deadline::after(10s)).ok());
  EXPECT_TRUE(nested_ok.load());
  EXPECT_EQ(outer_thread.load(), std::this_thread::get_id());
  EXPECT_NE(inner_thread.load(), std::thread::id{});
  EXPECT_NE(inner_thread.load(), std::this_thread::get_id());
}

TEST(SchedCallerRuns, ClosedGuardRejectsAndVolatileGuardRepolls) {
  // A hand-written guard is volatile: nothing wakes it but the timer wheel.
  // The caller's own eval sees it closed; a later re-poll on the pool must
  // still find it open, and a guard that never opens is kGuardRejected at
  // the deadline.
  Runtime rt;
  std::atomic<bool> open{false};
  std::atomic<int> runs{0};
  rt.add_instance(manual_instance(
      "a", [&](JunctionEnv&) { runs.fetch_add(1); },
      [&](const KvTable&, const RuntimeView&) { return open.load(); }));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  settle_start_eval(rt, "a");

  auto st = rt.call(Symbol("a"), Symbol("j"), Deadline::after(100ms));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::kGuardRejected);
  EXPECT_EQ(runs.load(), 0);

  // The rejected request is still pending: opening the guard runs it once.
  open.store(true);
  ASSERT_TRUE(eventually([&] { return runs.load() == 1; }));

  open.store(false);
  std::thread opener([&] {
    std::this_thread::sleep_for(50ms);
    open.store(true);
  });
  st = rt.call(Symbol("a"), Symbol("j"), Deadline::after(5s));
  opener.join();
  EXPECT_TRUE(st.ok()) << st.error().to_string();
  EXPECT_EQ(runs.load(), 2);
}

TEST(SchedCallerRuns, ConcurrentCallersNeverOverlapEvals) {
  Runtime rt;
  std::atomic<int> in_body{0};
  std::atomic<bool> overlap{false};
  std::atomic<int> runs{0};
  rt.add_instance(manual_instance("a", [&](JunctionEnv&) {
    if (in_body.fetch_add(1) != 0) overlap.store(true);
    runs.fetch_add(1);
    std::this_thread::yield();
    in_body.fetch_sub(1);
  }));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  constexpr int kThreads = 8;
  constexpr int kCalls = 200;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        if (rt.call(Symbol("a"), Symbol("j"), Deadline::after(10s)).ok()) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * kCalls);
  // Each call() returned after the run that took its own request, not
  // after one already in flight with an earlier request.
  EXPECT_GE(runs.load(), kThreads * kCalls);
  EXPECT_FALSE(overlap.load());
}

TEST(SchedCallerRuns, CallRacingStopReturnsNeverHangs) {
  Runtime rt;
  rt.add_instance(manual_instance("a", [](JunctionEnv&) {
    std::this_thread::sleep_for(200us);
  }));
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(rt.start(Symbol("a")).ok());
    std::atomic<bool> started{false};
    std::optional<Errc> failure;
    std::thread caller([&] {
      while (true) {
        auto st = rt.call(Symbol("a"), Symbol("j"), Deadline::after(5s));
        started.store(true);
        if (!st.ok()) {
          failure = st.error().code;
          return;
        }
      }
    });
    ASSERT_TRUE(eventually([&] { return started.load(); }));
    std::this_thread::sleep_for(std::chrono::microseconds(300 * round));
    ASSERT_TRUE(rt.stop(Symbol("a")).ok());
    caller.join();
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(*failure, Errc::kUnreachable) << "round " << round;
  }
}

TEST(SchedCallerRuns, QueuedAutoJunctionCompletesOnThePool) {
  // One worker, held by a CPU-spinning body (spinning announces no block,
  // so no spare appears). A push queues the auto junction behind it; the
  // call() then finds it queued and must leave the run to the pool.
  obs::Metrics metrics;
  RuntimeOptions opts;
  opts.metrics = &metrics;
  opts.scheduler.workers = 1;
  Runtime rt(opts);
  rt.add_instance(manual_instance("spin", [](JunctionEnv&) {
    const auto until = steady_now() + 200ms;
    while (steady_now() < until) {
    }
  }));
  std::atomic<std::thread::id> body_thread{};
  {
    JunctionDesc j;
    j.name = Symbol("j");
    j.table_spec.props = {{kWork, false}};
    j.guard = [](const KvTable& t, const RuntimeView&) {
      return *t.prop(kWork);
    };
    j.body = [&](JunctionEnv& env) {
      body_thread.store(std::this_thread::get_id());
      (void)env.table().set_prop_local(kWork, false);
    };
    j.auto_schedule = true;
    InstanceDesc d;
    d.name = Symbol("a");
    d.type = Symbol("echo");
    d.junctions.push_back(std::move(j));
    rt.add_instance(std::move(d));
  }
  ASSERT_TRUE(rt.start(Symbol("spin")).ok());
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  settle_start_eval(rt, "spin");
  settle_start_eval(rt, "a");

  ASSERT_TRUE(rt.schedule(Symbol("spin"), Symbol("j")).ok());
  std::this_thread::sleep_for(20ms);  // the spin holds the only worker
  ASSERT_TRUE(push_assert(rt, "a", kWork).ok());  // queues a::j
  const auto caller_runs = metrics.counter("sched_caller_runs").value();
  auto st = rt.call(Symbol("a"), Symbol("j"), Deadline::after(10s));
  EXPECT_TRUE(st.ok()) << st.error().to_string();
  EXPECT_NE(body_thread.load(), std::thread::id{});
  EXPECT_NE(body_thread.load(), std::this_thread::get_id());
  EXPECT_EQ(metrics.counter("sched_caller_runs").value(), caller_runs);
}

// --- late registration ------------------------------------------------------

TEST(SchedModes, InstancesAddedAfterPoolStartWork) {
  // The chaos harness interleaves add_instance and start; entities must be
  // registrable while the pool runs, with conservative wake resolution.
  std::atomic<int> runs_a{0};
  std::atomic<int> runs_b{0};
  Runtime rt;
  rt.add_instance(echo_instance("a", &runs_a));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());  // pool starts here
  rt.add_instance(echo_instance("b", &runs_b));
  ASSERT_TRUE(rt.start(Symbol("b")).ok());
  ASSERT_TRUE(push_assert(rt, "a", kWork).ok());
  ASSERT_TRUE(push_assert(rt, "b", kWork).ok());
  EXPECT_TRUE(eventually([&] { return runs_a.load() >= 1; }));
  EXPECT_TRUE(eventually([&] { return runs_b.load() >= 1; }));
}

// --- wildcard fallback accounting -------------------------------------------

TEST(SchedFallback, WildcardGaugeCountsUnanalyzedGuards) {
  // Two guarded junctions: one with a precise analyzed wake plan, one
  // hand-written (unanalyzed). Only the latter is a wildcard fallback, and
  // the gauge is the analyzer's runtime twin: it must read exactly 1 after
  // wake-plan resolution.
  obs::Metrics metrics;
  RuntimeOptions opts;
  opts.metrics = &metrics;
  Runtime rt(opts);

  rt.add_instance(echo_instance("fallback"));  // hand guard, no wake plan
  {
    JunctionDesc j;
    j.name = Symbol("j");
    j.table_spec.props = {{kWork, false}};
    j.guard = [](const KvTable& t, const RuntimeView&) {
      return *t.prop(kWork);
    };
    j.wake_plan.analyzed = true;
    j.wake_plan.keys = {kWork};
    j.auto_schedule = true;
    InstanceDesc d;
    d.name = Symbol("precise");
    d.type = Symbol("precise");
    d.junctions.push_back(std::move(j));
    rt.add_instance(std::move(d));
  }
  ASSERT_TRUE(rt.start(Symbol("fallback")).ok());  // resolves wake plans
  ASSERT_TRUE(rt.start(Symbol("precise")).ok());
  EXPECT_EQ(metrics.gauge("sched_wildcard_guards").value(), 1);
}

TEST(SchedFallback, StuckRepollTracesOneAnomalyPerStretch) {
  // A wildcard guard whose verdict nothing flips re-polls on the timer
  // wheel forever. After `wildcard_anomaly_repolls` fruitless re-polls the
  // runtime emits one `wildcard_repoll_stuck` custom event -- once per
  // stuck stretch, not per re-poll.
  obs::Tracer tracer;
  RuntimeOptions opts;
  opts.trace_sink = &tracer;
  opts.scheduler.timer_resolution = 1ms;
  opts.scheduler.wildcard_anomaly_repolls = 8;
  std::atomic<int> runs{0};
  Runtime rt(opts);
  rt.add_instance(echo_instance("a", &runs));  // Work=false: guard stuck
  ASSERT_TRUE(rt.start(Symbol("a")).ok());

  std::vector<obs::TraceEvent> anomalies;
  auto drain_anomalies = [&] {
    for (auto& e : tracer.drain()) {
      if (e.kind == obs::TraceEvent::Kind::kCustom &&
          e.label == Symbol("wildcard_repoll_stuck")) {
        anomalies.push_back(e);
      }
    }
  };
  ASSERT_TRUE(eventually([&] {
    drain_anomalies();
    return !anomalies.empty();
  }));
  EXPECT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].instance, Symbol("a"));
  EXPECT_GE(anomalies[0].value_ns, 8u);

  // Give the re-poll loop time to fire well past the threshold again: the
  // stretch is still the same one, so no second event may appear.
  std::this_thread::sleep_for(50ms);
  drain_anomalies();
  EXPECT_EQ(anomalies.size(), 1u);

  // The guard passing ends the stretch and re-arms the detector.
  ASSERT_TRUE(push_assert(rt, "a", kWork).ok());
  ASSERT_TRUE(eventually([&] { return runs.load() >= 1; }));
  ASSERT_TRUE(eventually([&] {
    drain_anomalies();
    return anomalies.size() == 2u;
  }));
}

// --- guard-formula simplifier ---------------------------------------------

std::string simp(FormulaPtr f) { return simplify_formula(std::move(f))->to_string(); }

TEST(Simplify, ConstantFolding) {
  const auto p = f_prop("P");
  const auto q = f_prop("Q");
  // Golden pretty-printer round-trips.
  EXPECT_EQ(simp(f_and(f_true(), p)), p->to_string());
  EXPECT_EQ(simp(f_and(p, f_true())), p->to_string());
  EXPECT_EQ(simp(f_and(f_false(), p)), f_false()->to_string());
  EXPECT_EQ(simp(f_or(f_false(), p)), p->to_string());
  EXPECT_EQ(simp(f_or(p, f_false())), p->to_string());
  EXPECT_EQ(simp(f_or(f_true(), p)), f_true()->to_string());
  EXPECT_EQ(simp(f_implies(f_false(), p)), f_true()->to_string());
  EXPECT_EQ(simp(f_implies(f_true(), p)), p->to_string());
  EXPECT_EQ(simp(f_implies(p, f_false())), f_not(p)->to_string());
  EXPECT_EQ(simp(f_not(f_not(p))), p->to_string());
  EXPECT_EQ(simp(f_not(f_true())), f_false()->to_string());
  // Nested: ((!false & P) | false) -> P.
  EXPECT_EQ(simp(f_or(f_and(f_true(), p), f_false())), p->to_string());
  // Non-constant structure is preserved.
  EXPECT_EQ(simp(f_and(p, q)), f_and(p, q)->to_string());
  // Error-preserving non-folds: an erroring P must keep the guard closed.
  EXPECT_EQ(simp(f_or(p, f_true())), f_or(p, f_true())->to_string());
  EXPECT_EQ(simp(f_and(p, f_false())), f_and(p, f_false())->to_string());
  EXPECT_EQ(simp(f_implies(p, f_true())), f_implies(p, f_true())->to_string());
}

TEST(Simplify, TruthTableEquivalence) {
  // Every simplification must preserve the guard verdict for all
  // assignments of the mentioned propositions.
  const auto p = f_prop("P");
  const auto q = f_prop("Q");
  const std::vector<FormulaPtr> cases = {
      f_and(f_true(), f_or(p, f_false())),
      f_or(f_and(p, f_true()), f_and(f_false(), q)),
      f_implies(f_or(f_false(), p), f_and(q, f_true())),
      f_not(f_not(f_and(p, q))),
      f_implies(f_implies(p, f_false()), q),
      f_or(f_not(f_true()), f_not(f_not(p))),
  };
  KvTable::Spec spec;
  spec.props = {{Symbol("P"), false}, {Symbol("Q"), false}};
  for (const auto& f : cases) {
    const auto s = simplify_formula(f);
    for (int bits = 0; bits < 4; ++bits) {
      KvTable table(spec, "simplify_test");
      ASSERT_TRUE(table.set_prop_local(Symbol("P"), (bits & 1) != 0).ok());
      ASSERT_TRUE(table.set_prop_local(Symbol("Q"), (bits & 2) != 0).ok());
      auto orig = eval_formula(*f, table, nullptr, nullptr);
      auto simplified = eval_formula(*s, table, nullptr, nullptr);
      ASSERT_TRUE(orig.ok() && simplified.ok());
      EXPECT_EQ(*orig, *simplified)
          << f->to_string() << " vs " << s->to_string() << " at bits "
          << bits;
    }
  }
}

}  // namespace
}  // namespace csaw
