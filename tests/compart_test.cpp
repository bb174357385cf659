// Unit tests for the compart runtime: router link models, lifecycle rules,
// ack'd pushes, nack-vs-timeout failure discovery, crash injection, guards,
// and the router's delivery path (inline vs queued, channel FIFO).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compart/runtime.hpp"

namespace csaw {
namespace {

const Symbol kWork("Work");

InstanceDesc echo_instance(std::string_view name,
                           std::atomic<int>* runs = nullptr) {
  // One auto junction guarded on Work: each delivery of `assert Work`
  // triggers one run that retracts it locally.
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

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = steady_now() + budget;
  while (steady_now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

Envelope update_envelope(std::string_view from, std::string_view to,
                         std::uint64_t seq) {
  Envelope env;
  env.from_instance = Symbol(from);
  env.to = JunctionAddr{Symbol(to), Symbol("j")};
  env.update = Update::assert_prop(kWork);
  env.seq = seq;
  return env;
}

TEST(Runtime, LifecycleRules) {
  Runtime rt;
  rt.add_instance(echo_instance("a"));
  EXPECT_FALSE(rt.is_running(Symbol("a")));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  EXPECT_TRUE(rt.is_running(Symbol("a")));
  // "Once started, an instance cannot be started again until it is stopped."
  auto twice = rt.start(Symbol("a"));
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.error().code, Errc::kLifecycle);
  ASSERT_TRUE(rt.stop(Symbol("a")).ok());
  // "Similarly, a stopped instance cannot be stopped."
  auto again = rt.stop(Symbol("a"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, Errc::kLifecycle);
  // Restart is allowed.
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  EXPECT_TRUE(rt.is_running(Symbol("a")));
}

TEST(Runtime, ConcurrentRegistrationIsSafe) {
  // Regression: add_instance built scheduler entities *before* taking the
  // registry lock, so concurrent registration (dynamic membership, the
  // chaos harness) raced the wake-plan path -- TSan flagged it, and a
  // losing duplicate left entities whose callbacks dangled. The whole
  // operation is now serialized under the registry lock; this hammers it
  // from many threads, including post-start registration.
  Runtime rt;
  rt.add_instance(echo_instance("seed"));
  ASSERT_TRUE(rt.start(Symbol("seed")).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::atomic<int> runs{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rt, &runs, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string name = "w" + std::to_string(t * kPerThread + i);
          rt.add_instance(echo_instance(name, &runs));
          ASSERT_TRUE(rt.start(Symbol(name)).ok());
        }
      });
    }
  }
  // Every registered instance is live and its guarded junction still fires.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const Symbol name("w" + std::to_string(t * kPerThread + i));
      ASSERT_TRUE(rt.is_running(name));
      ASSERT_TRUE(rt.push({.to = JunctionAddr{name, Symbol("j")},
                           .update = Update::assert_prop(kWork),
                           .deadline = Deadline::after(std::chrono::seconds(5)),
                           .from = Symbol("test")})
                      .ok());
    }
  }
  // The acks mean the tables applied every assert; the runs follow shortly.
  constexpr int kExpected = kThreads * kPerThread;
  for (int i = 0; i < 500 && runs.load() < kExpected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(runs.load(), kExpected);
}

TEST(Runtime, UnknownInstanceErrors) {
  Runtime rt;
  EXPECT_EQ(rt.start(Symbol("ghost")).error().code, Errc::kUndefinedName);
  EXPECT_EQ(rt.stop(Symbol("ghost")).error().code, Errc::kUndefinedName);
  EXPECT_FALSE(rt.is_running(Symbol("ghost")));
}

TEST(Runtime, PushIsAckedAndDrivesGuardedJunction) {
  std::atomic<int> runs{0};
  Runtime rt;
  rt.add_instance(echo_instance("a", &runs));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  auto st = rt.push({.to = {Symbol("a"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(std::chrono::seconds(5)),
                     .from = Symbol("test")});
  ASSERT_TRUE(st.ok()) << st.error().to_string();
  // The ack means the table applied the update; the run follows shortly.
  for (int i = 0; i < 200 && runs.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(Runtime, PushToDownInstanceNacksWhenConfigured) {
  Runtime rt;  // nack_when_down defaults to true
  rt.add_instance(echo_instance("a"));
  auto st = rt.push({.to = {Symbol("a"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(std::chrono::seconds(5)),
                     .from = Symbol("test")});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::kUnreachable);
}

TEST(Runtime, PushToDownInstanceTimesOutInDistributedMode) {
  RuntimeOptions opts;
  opts.nack_when_down = false;  // failure discovered only by timeout
  Runtime rt(opts);
  rt.add_instance(echo_instance("a"));
  const auto before = steady_now();
  auto st = rt.push({.to = {Symbol("a"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(std::chrono::milliseconds(80)),
                     .from = Symbol("test")});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::kTimeout);
  EXPECT_GE(steady_now() - before, std::chrono::milliseconds(75));
}

TEST(Runtime, PushToUnknownJunctionNacks) {
  Runtime rt;
  rt.add_instance(echo_instance("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  auto st = rt.push({.to = {Symbol("a"), Symbol("nope")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(std::chrono::seconds(5)),
                     .from = Symbol("test")});
  EXPECT_FALSE(st.ok());
}

TEST(Runtime, FireAndForgetModeNeverBlocks) {
  RuntimeOptions opts;
  opts.acks_enabled = false;  // the ablation configuration
  Runtime rt(opts);
  rt.add_instance(echo_instance("a"));
  // Target is down; the push still "succeeds" (failure is undetectable).
  auto st = rt.push({.to = {Symbol("a"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::infinite(),
                     .from = Symbol("test")});
  EXPECT_TRUE(st.ok());
}

TEST(Runtime, LinkLatencyDelaysDelivery) {
  RuntimeOptions opts;
  opts.default_link.latency = std::chrono::milliseconds(60);
  std::atomic<int> runs{0};
  Runtime rt(opts);
  rt.add_instance(echo_instance("a", &runs));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  const auto before = steady_now();
  auto st = rt.push({.to = {Symbol("a"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(std::chrono::seconds(5)),
                     .from = Symbol("test")});
  ASSERT_TRUE(st.ok());
  // Round trip: update latency + ack latency.
  EXPECT_GE(steady_now() - before, std::chrono::milliseconds(110));
}

TEST(Runtime, PartitionMakesPeerUnreachable) {
  RuntimeOptions opts;
  opts.nack_when_down = false;
  Runtime rt(opts);
  rt.add_instance(echo_instance("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  rt.router().set_partition(Symbol("test"), Symbol("a"), true);
  auto st = rt.push({.to = {Symbol("a"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(std::chrono::milliseconds(60)),
                     .from = Symbol("test")});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::kTimeout);
  // Heal the partition: reachable again.
  rt.router().set_partition(Symbol("test"), Symbol("a"), false);
  EXPECT_TRUE(rt.push({.to = {Symbol("a"), Symbol("j")},
                       .update = Update::assert_prop(kWork),
                       .deadline = Deadline::after(std::chrono::seconds(5)),
                       .from = Symbol("test")})
                  .ok());
}

TEST(Runtime, DropProbabilityLosesMessages) {
  RuntimeOptions opts;
  opts.nack_when_down = false;
  opts.default_link.drop_prob = 1.0;  // everything vanishes
  Runtime rt(opts);
  rt.add_instance(echo_instance("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  auto st = rt.push({.to = {Symbol("a"), Symbol("j")},
                     .update = Update::assert_prop(kWork),
                     .deadline = Deadline::after(std::chrono::milliseconds(50)),
                     .from = Symbol("test")});
  EXPECT_FALSE(st.ok());
  EXPECT_GE(rt.router().counters().dropped, 1u);
}

TEST(Runtime, CrashAbortsAndAllowsRestart) {
  std::atomic<int> runs{0};
  Runtime rt;
  rt.add_instance(echo_instance("a", &runs));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  rt.crash(Symbol("a"));
  EXPECT_FALSE(rt.is_running(Symbol("a")));
  // Crash of a non-running instance is a no-op.
  rt.crash(Symbol("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  EXPECT_TRUE(rt.is_running(Symbol("a")));
  // Fresh tables after restart: Work is back to its declared initial.
  EXPECT_FALSE(*rt.table(Symbol("a"), Symbol("j")).prop(kWork));
}

TEST(Runtime, ManualSchedulingViaCall) {
  std::atomic<int> runs{0};
  JunctionDesc j;
  j.name = Symbol("j");
  j.body = [&runs](JunctionEnv&) { runs.fetch_add(1); };
  j.auto_schedule = false;
  InstanceDesc d;
  d.name = Symbol("m");
  d.type = Symbol("manual");
  d.junctions.push_back(std::move(j));

  Runtime rt;
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("m")).ok());
  // Without scheduling, a manual junction never runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(runs.load(), 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rt.call(Symbol("m"), Symbol("j"),
                        Deadline::after(std::chrono::seconds(5)))
                    .ok());
  }
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(rt.runs_completed(Symbol("m"), Symbol("j")), 3u);
}

TEST(Runtime, CallDistinguishesGuardRejectionFromTimeout) {
  // A manual junction whose guard requires Work: calling it while Work is
  // false must fail with kGuardRejected (the junction saw the request and
  // said no), not kTimeout (the junction never got a chance).
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  j.body = [](JunctionEnv&) {};
  j.auto_schedule = false;
  InstanceDesc d;
  d.name = Symbol("g");
  d.type = Symbol("guarded");
  d.junctions.push_back(std::move(j));

  Runtime rt;
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("g")).ok());

  auto rejected = rt.call(Symbol("g"), Symbol("j"),
                          Deadline::after(std::chrono::milliseconds(150)));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::kGuardRejected);

  // With the guard satisfied, the same call succeeds.
  ASSERT_TRUE(rt.table(Symbol("g"), Symbol("j"))
                  .set_prop_local(kWork, true)
                  .ok());
  EXPECT_TRUE(rt.call(Symbol("g"), Symbol("j"),
                      Deadline::after(std::chrono::seconds(5)))
                  .ok());
}

TEST(Runtime, RemotePropReadsRequireRunningInstance) {
  Runtime rt;
  rt.add_instance(echo_instance("a"));
  auto down = rt.view().remote_prop(JunctionAddr{Symbol("a"), Symbol("j")},
                                    kWork);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.error().code, Errc::kUnreachable);
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  auto up = rt.view().remote_prop(JunctionAddr{Symbol("a"), Symbol("j")},
                                  kWork);
  ASSERT_TRUE(up.ok());
  EXPECT_FALSE(*up);
}

// --- router delivery path ---------------------------------------------------

TEST(Router, ZeroDelayDeliversInlineAndLatencyOnTheRouterThread) {
  std::mutex mu;
  std::vector<std::thread::id> delivered_on;
  Router router(LinkModel::in_process(), 1, [&](Envelope&&) {
    std::scoped_lock lock(mu);
    delivered_on.push_back(std::this_thread::get_id());
  });
  router.send(update_envelope("a", "b", 1), 16);
  {
    std::scoped_lock lock(mu);
    ASSERT_EQ(delivered_on.size(), 1u);  // delivered before send returned
    EXPECT_EQ(delivered_on[0], std::this_thread::get_id());
  }
  EXPECT_FALSE(router.thread_started());

  LinkModel slow;
  slow.latency = std::chrono::microseconds(200);
  router.set_link(Symbol("a"), Symbol("b"), slow);
  router.send(update_envelope("a", "b", 2), 16);
  EXPECT_TRUE(router.thread_started());
  ASSERT_TRUE(eventually([&] {
    std::scoped_lock lock(mu);
    return delivered_on.size() == 2;
  }));
  std::scoped_lock lock(mu);
  EXPECT_NE(delivered_on[1], std::this_thread::get_id());
}

TEST(Router, PartitionAndDropApplyOnTheInlinePath) {
  std::atomic<std::uint64_t> delivered{0};
  Router router(LinkModel::in_process(), 7,
                [&](Envelope&&) { delivered.fetch_add(1); });
  router.set_partition(Symbol("a"), Symbol("b"), true);
  router.send(update_envelope("a", "b", 1), 16);
  router.send(update_envelope("b", "a", 2), 16);  // both directions
  EXPECT_EQ(delivered.load(), 0u);

  LinkModel lossy;
  lossy.drop_prob = 0.5;
  router.set_link(Symbol("a"), Symbol("c"), lossy);
  constexpr std::uint64_t kSends = 1000;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    router.send(update_envelope("a", "c", i), 16);
  }
  const auto c = router.counters();
  EXPECT_EQ(c.sent, kSends + 2);
  EXPECT_EQ(c.partitioned, 2u);
  EXPECT_GT(c.dropped, kSends / 4);
  EXPECT_LT(c.dropped, kSends * 3 / 4);
  EXPECT_EQ(c.delivered, delivered.load());
  EXPECT_EQ(c.sent, c.delivered + c.dropped + c.partitioned);
  EXPECT_FALSE(router.thread_started());
}

TEST(Router, DeliveryThatSendsAgainDoesNotDeadlock) {
  // The ack path: delivering an update sends an ack back through the same
  // router, from inside the DeliverFn.
  std::atomic<int> acks{0};
  Router* self = nullptr;
  Router router(LinkModel::in_process(), 1, [&](Envelope&& env) {
    if (env.kind == Envelope::Kind::kAck) {
      acks.fetch_add(1);
      return;
    }
    Envelope ack;
    ack.kind = Envelope::Kind::kAck;
    ack.seq = env.seq;
    ack.from_instance = env.to.instance;
    ack.to = JunctionAddr{env.from_instance, Symbol()};
    self->send(std::move(ack), 16);
  });
  self = &router;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    router.send(update_envelope("a", "b", i), 16);
  }
  EXPECT_EQ(acks.load(), 100);  // all inline, depth 2
  EXPECT_EQ(router.counters().delivered, 200u);
}

TEST(Router, FifoAcrossTheQueuedToInlineBoundary) {
  // Half the sends ride a 200 us link and queue; the link then drops to
  // zero delay while they are still queued. Later sends must neither
  // overtake them (same due time as a queued one) nor jump the queue inline.
  std::mutex mu;
  std::vector<std::uint64_t> order;
  Router router(LinkModel::in_process(), 1, [&](Envelope&& env) {
    std::scoped_lock lock(mu);
    order.push_back(env.seq);
  });
  LinkModel slow;
  slow.latency = std::chrono::microseconds(200);
  router.set_link(Symbol("a"), Symbol("b"), slow);
  constexpr std::uint64_t kSends = 1000;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    if (i == kSends / 2) router.clear_link(Symbol("a"), Symbol("b"));
    router.send(update_envelope("a", "b", i), 16);
  }
  ASSERT_TRUE(eventually([&] {
    std::scoped_lock lock(mu);
    return order.size() == kSends;
  }));
  std::scoped_lock lock(mu);
  for (std::uint64_t i = 0; i < kSends; ++i) ASSERT_EQ(order[i], i);
}

TEST(Runtime, FireAndForgetWritesStayFifoAcrossALinkChange) {
  const Symbol kV("v");
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.data = {kV};
  j.body = [](JunctionEnv&) {};  // manual: evals only apply pending updates
  InstanceDesc d;
  d.name = Symbol("a");
  d.type = Symbol("sink");
  d.junctions.push_back(std::move(j));

  RuntimeOptions opts;
  opts.acks_enabled = false;  // no ack serializes the sends
  Runtime rt(opts);
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  const auto value = [](std::uint32_t v) {
    return SerializedValue{Symbol("u32"),
                           Bytes{static_cast<std::uint8_t>(v),
                                 static_cast<std::uint8_t>(v >> 8), 0, 0}};
  };
  LinkModel slow;
  slow.latency = std::chrono::microseconds(200);
  rt.router().set_link(Symbol("test"), Symbol("a"), slow);
  constexpr std::uint32_t kWrites = 1000;
  for (std::uint32_t i = 0; i < kWrites; ++i) {
    if (i == kWrites / 2) rt.router().clear_link(Symbol("test"), Symbol("a"));
    ASSERT_TRUE(rt.push({.to = {Symbol("a"), Symbol("j")},
                         .update = Update::write_data(kV, value(i)),
                         .from = Symbol("test")})
                    .ok());
  }
  KvTable& table = rt.table(Symbol("a"), Symbol("j"));
  ASSERT_TRUE(
      eventually([&] { return table.counters().applied == kWrites; }));
  auto last = table.data(kV);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, value(kWrites - 1));
}

TEST(Runtime, AllZeroDelayLinksNeverStartTheRouterThread) {
  Runtime rt;
  rt.add_instance(echo_instance("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rt.push({.to = {Symbol("a"), Symbol("j")},
                         .update = Update::assert_prop(kWork),
                         .deadline = Deadline::after(std::chrono::seconds(5)),
                         .from = Symbol("test")})
                    .ok());
  }
  EXPECT_FALSE(rt.router().thread_started());
}

TEST(Runtime, ConcurrentAckedPushesEachGetTheirOwnAck) {
  constexpr int kThreads = 4;
  constexpr int kPushes = 200;
  Runtime rt;
  for (int t = 0; t < kThreads; ++t) {
    rt.add_instance(echo_instance("a" + std::to_string(t)));
    ASSERT_TRUE(rt.start(Symbol("a" + std::to_string(t))).ok());
  }
  std::atomic<int> ok{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rt, &ok, t] {
        const Symbol to("a" + std::to_string((t + 1) % kThreads));
        for (int i = 0; i < kPushes; ++i) {
          if (rt.push({.to = {to, Symbol("j")},
                       .update = Update::assert_prop(kWork),
                       .deadline = Deadline::after(std::chrono::seconds(5)),
                       .from = Symbol("t" + std::to_string(t))})
                  .ok()) {
            ok.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(ok.load(), kThreads * kPushes);
}

TEST(Runtime, PushToAConcurrentlyStoppedTargetReturnsBeforeItsDeadline) {
  // The update sits on a 300 ms link while its target stops: delivery then
  // nacks, long before the push's 30 s deadline.
  Runtime rt;
  rt.add_instance(echo_instance("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  LinkModel slow;
  slow.latency = std::chrono::milliseconds(300);
  rt.router().set_link(Symbol("test"), Symbol("a"), slow);
  const auto before = steady_now();
  Status st = Status::ok_status();
  std::jthread pusher([&] {
    st = rt.push({.to = {Symbol("a"), Symbol("j")},
                   .update = Update::assert_prop(kWork),
                   .deadline = Deadline::after(std::chrono::seconds(30)),
                   .from = Symbol("test")});
  });
  ASSERT_TRUE(eventually([&] { return rt.router().counters().sent >= 1; }));
  ASSERT_TRUE(rt.stop(Symbol("a")).ok());
  pusher.join();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::kUnreachable);
  EXPECT_LT(steady_now() - before, std::chrono::seconds(5));
}

TEST(Runtime, StoppingTheSenderReleasesItsPendingPush) {
  // A junction body pushes over a link that never delivers (partitioned,
  // no nack); stopping the pushing instance aborts the wait.
  std::atomic<bool> pushing{false};
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  Status st = Status::ok_status();
  j.body = [&](JunctionEnv& env) {
    (void)env.table().set_prop_local(kWork, false);
    pushing.store(true);
    st = env.push({.to = {Symbol("b"), Symbol("j")},
                   .update = Update::assert_prop(kWork),
                   .deadline = Deadline::after(std::chrono::seconds(30))});
  };
  j.auto_schedule = true;
  InstanceDesc d;
  d.name = Symbol("s");
  d.type = Symbol("sender");
  d.junctions.push_back(std::move(j));

  Runtime rt;
  rt.add_instance(std::move(d));
  rt.add_instance(echo_instance("b"));
  ASSERT_TRUE(rt.start(Symbol("s")).ok());
  ASSERT_TRUE(rt.start(Symbol("b")).ok());
  rt.router().set_partition(Symbol("s"), Symbol("b"), true);
  const auto before = steady_now();
  ASSERT_TRUE(rt.inject({Symbol("s"), Symbol("j")},
                        Update::assert_prop(kWork))
                  .ok());
  ASSERT_TRUE(eventually([&] { return pushing.load(); }));
  ASSERT_TRUE(rt.stop(Symbol("s")).ok());  // quiesces: the body returned
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::kUnreachable);
  EXPECT_LT(steady_now() - before, std::chrono::seconds(5));
}

}  // namespace
}  // namespace csaw
