// Crash-recovery and split-brain-prevention tests at the Runtime level:
// durable tables survive restarts and crash()+start(), acked-but-unapplied
// updates recover into the pending queue, the authority epoch persists, and
// a stale-epoch writer is rejected (and counted) until it learns the new
// epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "compart/runtime.hpp"
#include "compart/tcp.hpp"
#include "kv/wal.hpp"
#include "obs/metrics.hpp"

namespace csaw {
namespace {

using namespace std::chrono_literals;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/csaw_recovery_test_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p;
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path + "'";
    (void)std::system(cmd.c_str());
  }
};

template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds limit = 10s) {
  const auto deadline = steady_now() + limit;
  while (steady_now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

const Symbol kWork("Work");
const Symbol kV("v");

// Auto junction that applies pushed updates (assert Work + write v) and
// retracts Work, like a tiny single-key store.
InstanceDesc store_instance(const char* name) {
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.table_spec.data = {kV};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  j.body = [](JunctionEnv& env) {
    (void)env.table().set_prop_local(kWork, false);
  };
  j.auto_schedule = true;
  InstanceDesc d;
  d.name = Symbol(name);
  d.type = Symbol("store");
  d.junctions.push_back(std::move(j));
  return d;
}

Status push_value(Runtime& rt, const char* instance, const std::string& s,
                  bool with_work = true) {
  if (with_work) {
    auto st = rt.push({.to = JunctionAddr{Symbol(instance), Symbol("j")},
                       .update = Update::write_data(
                           kV, SerializedValue{Symbol("str"),
                                               Bytes(s.begin(), s.end())},
                           "test"),
                       .deadline = Deadline::after(5s),
                       .from = Symbol("test")});
    if (!st.ok()) return st;
    return rt.push({.to = JunctionAddr{Symbol(instance), Symbol("j")},
                    .update = Update::assert_prop(kWork, "test"),
                    .deadline = Deadline::after(5s),
                    .from = Symbol("test")});
  }
  return rt.push({.to = JunctionAddr{Symbol(instance), Symbol("j")},
                  .update = Update::write_data(
                      kV, SerializedValue{Symbol("str"),
                                          Bytes(s.begin(), s.end())},
                      "test"),
                  .deadline = Deadline::after(5s),
                  .from = Symbol("test")});
}

std::string read_value(Runtime& rt, const char* instance) {
  auto v = rt.table(Symbol(instance), Symbol("j")).data(kV);
  if (!v.ok()) return "<undef>";
  return std::string(v->bytes.begin(), v->bytes.end());
}

TEST(CrashRecovery, RestartOfProcessRecoversAppliedState) {
  TempDir dir;
  {
    RuntimeOptions opts;
    opts.durability_dir = dir.path;
    Runtime rt(opts);
    rt.add_instance(store_instance("a"));
    ASSERT_TRUE(rt.start(Symbol("a")).ok());
    ASSERT_TRUE(push_value(rt, "a", "before-crash").ok());
    // The acks mean "enqueued": wait until the body has also run (and
    // retracted Work), so the process dies with nothing in flight.
    ASSERT_TRUE(eventually([&] {
      return read_value(rt, "a") == "before-crash" &&
             rt.runs_completed(Symbol("a"), Symbol("j")) >= 1;
    }));
  }  // runtime destroyed: "the process died"
  RuntimeOptions opts;
  opts.durability_dir = dir.path;
  Runtime rt2(opts);
  rt2.add_instance(store_instance("a"));
  ASSERT_TRUE(rt2.start(Symbol("a")).ok());
  EXPECT_EQ(read_value(rt2, "a"), "before-crash");
  EXPECT_FALSE(*rt2.table(Symbol("a"), Symbol("j")).prop(kWork));
}

TEST(CrashRecovery, CrashedInstanceRecoversStateWhenDurable) {
  TempDir dir;
  RuntimeOptions opts;
  opts.durability_dir = dir.path;
  obs::Metrics metrics;
  opts.metrics = &metrics;
  Runtime rt(opts);
  rt.add_instance(store_instance("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  ASSERT_TRUE(push_value(rt, "a", "survives").ok());
  ASSERT_TRUE(eventually([&] { return read_value(rt, "a") == "survives"; }));

  rt.crash(Symbol("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  EXPECT_EQ(read_value(rt, "a"), "survives");
  EXPECT_GE(metrics.counter("wal_recoveries").value(), 2u);  // both starts
}

TEST(CrashRecovery, CrashWipesStateWithoutDurability) {
  // The paper's baseline semantics are unchanged when durability is off:
  // restart re-initializes from the declarations.
  Runtime rt;
  rt.add_instance(store_instance("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  ASSERT_TRUE(push_value(rt, "a", "volatile").ok());
  ASSERT_TRUE(eventually([&] { return read_value(rt, "a") == "volatile"; }));
  rt.crash(Symbol("a"));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  EXPECT_EQ(read_value(rt, "a"), "<undef>");
}

TEST(CrashRecovery, AckedButUnappliedUpdatesRecoverAsPending) {
  TempDir dir;
  std::atomic<bool> parked{false};
  {
    RuntimeOptions opts;
    opts.durability_dir = dir.path;
    Runtime rt(opts);
    // A junction whose body parks until the crash: while it runs, the
    // junction thread cannot drain the pending queue, so a pushed update is
    // acked (and logged) but never applied -- the window where the ack's
    // durability promise is all the client has.
    JunctionDesc j;
    j.name = Symbol("j");
    j.table_spec.props = {{kWork, false}};
    j.table_spec.data = {kV};
    j.body = [&parked](JunctionEnv& env) {
      parked.store(true);
      while (!env.aborted()) std::this_thread::sleep_for(1ms);
    };
    j.auto_schedule = true;
    InstanceDesc d;
    d.name = Symbol("a");
    d.type = Symbol("parked");
    d.junctions.push_back(std::move(j));
    rt.add_instance(std::move(d));
    ASSERT_TRUE(rt.start(Symbol("a")).ok());
    ASSERT_TRUE(eventually([&] { return parked.load(); }));
    ASSERT_TRUE(push_value(rt, "a", "queued-write", /*with_work=*/false).ok());
    rt.crash(Symbol("a"));
  }
  // The raw recovered state shows exactly what the ack promised: nothing
  // applied, one pending write to v.
  auto rec = wal_recover(dir.path, "a__j");
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  for (const auto& datum : rec->image.data) EXPECT_FALSE(datum.defined);
  ASSERT_EQ(rec->pending.size(), 1u);
  EXPECT_EQ(rec->pending[0].update.key, kV);
  // And a restarted runtime applies it like any other queued arrival.
  RuntimeOptions opts;
  opts.durability_dir = dir.path;
  Runtime rt2(opts);
  rt2.add_instance(store_instance("a"));
  ASSERT_TRUE(rt2.start(Symbol("a")).ok());
  ASSERT_TRUE(eventually([&] { return read_value(rt2, "a") == "queued-write"; }));
}

TEST(CrashRecovery, WalCompactionKeepsRecoveryIntact) {
  TempDir dir;
  {
    RuntimeOptions opts;
    opts.durability_dir = dir.path;
    opts.wal_compact_bytes = 512;  // force frequent snapshot+truncate cycles
    Runtime rt(opts);
    rt.add_instance(store_instance("a"));
    ASSERT_TRUE(rt.start(Symbol("a")).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(push_value(rt, "a", "val-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(eventually([&] { return read_value(rt, "a") == "val-49"; }));
  }
  obs::Metrics metrics;
  RuntimeOptions opts;
  opts.durability_dir = dir.path;
  opts.metrics = &metrics;
  Runtime rt2(opts);
  rt2.add_instance(store_instance("a"));
  ASSERT_TRUE(rt2.start(Symbol("a")).ok());
  EXPECT_EQ(read_value(rt2, "a"), "val-49");
}

TEST(CrashRecovery, EpochPersistsAcrossRestartWithoutBumping) {
  TempDir dir;
  {
    RuntimeOptions opts;
    opts.durability_dir = dir.path;
    Runtime rt(opts);
    EXPECT_EQ(rt.epoch(), 0u);
    EXPECT_EQ(rt.bump_epoch(), 1u);
    EXPECT_EQ(rt.bump_epoch(), 2u);
  }
  RuntimeOptions opts;
  opts.durability_dir = dir.path;
  Runtime rt2(opts);
  // Restart resumes the persisted epoch -- it does NOT advance it; only an
  // explicit takeover (bump_epoch) does. A restarted old primary therefore
  // still speaks its stale epoch until it learns better.
  EXPECT_EQ(rt2.epoch(), 2u);
}

TEST(CrashRecovery, StaleEpochWriterRejectedThenRejoins) {
  TempDir dir_a, dir_b;
  obs::Metrics ma, mb;

  // A: the new authority at epoch 2 (it took over twice).
  RuntimeOptions oa;
  oa.transport = Transport::kTcpMesh;
  oa.metrics = &ma;
  oa.durability_dir = dir_a.path;
  Runtime ra(oa);
  ra.bump_epoch();
  ra.bump_epoch();
  ra.add_instance(store_instance("g"));
  ASSERT_TRUE(ra.start(Symbol("g")).ok());

  // B: a restarted old primary still at epoch 1.
  RuntimeOptions ob;
  ob.transport = Transport::kTcpMesh;
  ob.metrics = &mb;
  ob.durability_dir = dir_b.path;
  ob.tcp.peers["a"] = TcpPeerAddr{"127.0.0.1", ra.tcp_transport()->port()};
  ob.tcp.remote_instances[Symbol("g")] = "a";
  Runtime rb(ob);
  rb.bump_epoch();
  ASSERT_EQ(rb.epoch(), 1u);

  // Reverse route so A's acks reach B.
  ra.tcp_transport()->add_peer(
      "b", TcpPeerAddr{"127.0.0.1", rb.tcp_transport()->port()});
  ra.tcp_transport()->map_instance(Symbol("test"), "b");

  // B's stale-epoch write is rejected -- this is the split-brain window the
  // epoch closes: the old primary cannot scribble on the new view. Retry
  // until the mesh link is up (first attempts may race the connect).
  Status st = make_error(Errc::kUnreachable, "not sent");
  ASSERT_TRUE(eventually([&] {
    st = push_value(rb, "g", "stale-write", /*with_work=*/false);
    return !st.ok() && st.error().code != Errc::kTimeout;
  }, 20s)) << (st.ok() ? "push unexpectedly succeeded" : "");
  EXPECT_NE(st.error().to_string().find("stale epoch"), std::string::npos)
      << st.error().to_string();
  const auto rejected = ma.counter("epoch_rejected").value();
  EXPECT_GE(rejected, 1u);

  // The nack carried A's epoch, so B has adopted it and rejoins cleanly.
  ASSERT_TRUE(eventually([&] { return rb.epoch() == 2u; }));
  EXPECT_GE(mb.counter("epoch_adopted").value(), 1u);
  auto ok = push_value(rb, "g", "rejoined");
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  ASSERT_TRUE(eventually([&] { return read_value(ra, "g") == "rejoined"; }));
  // Every rejected frame is accounted for: the counter moved only for the
  // stale pushes, not the post-adoption ones.
  EXPECT_EQ(ma.counter("epoch_rejected").value(), rejected);
}

TEST(CrashRecovery, HeartbeatsDriveRemoteFailureDetection) {
  obs::Metrics ma, mb;

  RuntimeOptions oa;
  oa.transport = Transport::kTcpMesh;
  oa.metrics = &ma;
  oa.tcp.heartbeat_interval = Millis(20);
  oa.tcp.suspect_after_missed = 3;
  oa.tcp.node_name = "watcher";
  Runtime ra(oa);

  auto make_b = [&] {
    RuntimeOptions ob;
    ob.transport = Transport::kTcpMesh;
    ob.metrics = &mb;
    ob.tcp.heartbeat_interval = Millis(20);
    ob.tcp.node_name = "worker";
    ob.tcp.peers["a"] = TcpPeerAddr{"127.0.0.1", ra.tcp_transport()->port()};
    auto rb = std::make_unique<Runtime>(ob);
    rb->add_instance(store_instance("g"));
    EXPECT_TRUE(rb->start(Symbol("g")).ok());
    return rb;
  };

  // "g" is not hosted by A; with no heartbeats seen yet it reads as down.
  EXPECT_FALSE(ra.is_running(Symbol("g")));
  auto rb = make_b();
  // B's heartbeats advertise its running instances; A's detector marks "g"
  // alive -- the watched-failover S(i) guard now works across processes.
  ASSERT_TRUE(eventually([&] { return ra.is_running(Symbol("g")); }));
  EXPECT_GE(ma.counter("detector_heartbeats").value(), 1u);

  // Kill B: heartbeats stop, suspicion flips the verdict.
  rb.reset();
  ASSERT_TRUE(eventually([&] { return !ra.is_running(Symbol("g")); }));
  EXPECT_GE(ma.counter("detector_suspicions").value(), 1u);

  // Revive B: the detector recovers on the next heartbeat.
  rb = make_b();
  ASSERT_TRUE(eventually([&] { return ra.is_running(Symbol("g")); }));
  EXPECT_GE(ma.counter("detector_recoveries").value(), 1u);
}

}  // namespace
}  // namespace csaw
