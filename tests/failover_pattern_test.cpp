// Integration test of the S7.3 fail-over architecture over a miniredis-like
// store: warm replica back-ends, crash of one back-end mid-workload,
// continued service through the survivor, and re-registration + state
// resynchronization when the crashed back-end restarts (Fig 9's recovery).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "apps/miniredis/command.hpp"
#include "apps/miniredis/store.hpp"
#include "core/builder.hpp"
#include "core/compile.hpp"
#include "core/interp.hpp"
#include "patterns/failover.hpp"

namespace csaw {
namespace {

using miniredis::Command;
using miniredis::Mailbox;
using miniredis::Response;
using miniredis::Store;

// Front-end host state: the client interface plus the canonical store the
// f::b junction checkpoints (the "canonical state of the system", Fig 8).
struct FrontState {
  Mailbox<Command> requests;
  Mailbox<Response> responses;
  Command current;
  Store canonical{0};  // zero per-op cost: it is a state capsule, not a server
  std::atomic<int> complaints{0};
};

// Back-end host state: the replica store. Factory-made so a crash wipes it.
struct BackState {
  Store store{0};
  Command current;
  Response response;
};

struct Fixture {
  patterns::FailoverOptions opts;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<FrontState> front = std::make_shared<FrontState>();

  explicit Fixture(bool engage_all = true) {
    opts.backends = 2;
    opts.timeout_ms = 400;
    opts.reactivate_ms = 250;
    opts.engage_all = engage_all;
    auto compiled = compile(patterns::failover(opts));
    CSAW_CHECK(compiled.ok()) << compiled.error().to_string();

    auto fs = front;
    HostBindings b;
    b.block("complain", [fs](HostCtx&) {
      fs->complaints.fetch_add(1);
      return Status::ok_status();
    });
    // Peek (don't consume): if the scheduling aborts mid-protocol, the
    // retry must see the same request again; H3 consumes it on success.
    b.block("H1", [](HostCtx& ctx) -> Status {
      auto& st = ctx.state<FrontState>();
      auto cmd = st.requests.peek(Deadline::after(std::chrono::seconds(1)));
      if (!cmd) return make_error(Errc::kHostFailure, "no request queued");
      st.current = std::move(*cmd);
      return Status::ok_status();
    });
    b.block("H2", [](HostCtx& ctx) -> Status {
      auto& st = ctx.state<BackState>();
      switch (st.current.op) {
        case Command::Op::kGet: {
          auto v = st.store.get(st.current.key);
          st.response = Response{v.has_value(), v.value_or("")};
          break;
        }
        case Command::Op::kSet:
          st.store.set(st.current.key, st.current.value);
          st.response = Response{true, ""};
          break;
        case Command::Op::kDel:
          st.response = Response{st.store.del(st.current.key), ""};
          break;
      }
      return Status::ok_status();
    });
    b.block("H3", [](HostCtx& ctx) {
      ctx.state<FrontState>().requests.try_pop();  // request completed
      return Status::ok_status();
    });
    // Canonical-state management at the front-end. The canonical store is
    // updated from the request stream (H1 side) -- here we fold the current
    // command into it when packing state after a request completes.
    b.saver("init_state", [](HostCtx& ctx) -> Result<SerializedValue> {
      return SerializedValue{Symbol("store.image"),
                             ctx.state<FrontState>().canonical.snapshot()};
    });
    b.saver("pack_state", [](HostCtx& ctx) -> Result<SerializedValue> {
      auto& st = ctx.state<FrontState>();
      if (st.current.op == Command::Op::kSet) {
        st.canonical.set(st.current.key, st.current.value);
      } else if (st.current.op == Command::Op::kDel) {
        st.canonical.del(st.current.key);
      }
      return SerializedValue{Symbol("store.image"), st.canonical.snapshot()};
    });
    b.restorer("unpack_state",
               [](HostCtx& ctx, const SerializedValue& sv) -> Status {
                 if (sv.type != Symbol("store.image")) {
                   return make_error(Errc::kTypeMismatch, "bad state image");
                 }
                 if (ctx.instance() == Symbol("f")) {
                   return ctx.state<FrontState>().canonical.restore(sv.bytes);
                 }
                 return ctx.state<BackState>().store.restore(sv.bytes);
               });
    b.saver("pack_request", [](HostCtx& ctx) -> Result<SerializedValue> {
      return pack("miniredis.Command", ctx.state<FrontState>().current);
    });
    b.restorer("unpack_request",
               [](HostCtx& ctx, const SerializedValue& sv) -> Status {
                 auto cmd = unpack<Command>("miniredis.Command", sv);
                 if (!cmd) return cmd.error();
                 ctx.state<BackState>().current = std::move(*cmd);
                 return Status::ok_status();
               });
    b.saver("pack_preresp", [](HostCtx& ctx) -> Result<SerializedValue> {
      return pack("miniredis.Response", ctx.state<BackState>().response);
    });
    b.restorer("unpack_preresp",
               [](HostCtx& ctx, const SerializedValue& sv) -> Status {
                 auto resp = unpack<Response>("miniredis.Response", sv);
                 if (!resp) return resp.error();
                 ctx.state<FrontState>().responses.push(std::move(*resp));
                 return Status::ok_status();
               });

    EngineOptions eopts;
    eopts.trace = std::getenv("CSAW_TRACE") != nullptr;
    engine = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                      eopts);
    engine->set_state(Symbol("f"), front);
    for (const auto& name : patterns::failover_backend_names(opts)) {
      // Factory: a crash destroys the replica's memory; recovery must come
      // from the architecture's state resynchronization.
      engine->set_state_factory(Symbol(name), [] {
        return std::static_pointer_cast<void>(std::make_shared<BackState>());
      });
    }
    auto st = engine->run_main();
    CSAW_CHECK(st.ok()) << st.error().to_string();
  }

  // Issues one client request: enqueue + assert Req at f::c (Fig 13: "Req
  // is asserted externally"), then wait for the response.
  Result<Response> request(Command cmd, int timeout_s = 10) {
    front->requests.push(std::move(cmd));
    // Clients re-assert Req if a scheduling aborted (e.g. the Call handshake
    // timed out during a re-registration storm); the architecture makes
    // aborted schedulings safe to retry.
    const auto give_up = Deadline::after(std::chrono::seconds(timeout_s));
    while (true) {
      auto st = engine->runtime().inject(addr("f", "c"),
                                         Update::assert_prop(Symbol("Req")));
      if (!st.ok()) return st.error();
      auto resp = front->responses.pop(
          Deadline::after(std::chrono::seconds(2)).min(give_up));
      if (resp) return *resp;
      if (give_up.expired()) {
        auto& rt = engine->runtime();
        std::fprintf(stderr, "WEDGE DIAG:\n  %s\n  %s\n",
                     rt.table(Symbol("f"), Symbol("c")).debug_string().c_str(),
                     rt.table(Symbol("f"), Symbol("b")).debug_string().c_str());
        for (const char* j : {"c", "b"}) {
          const auto& st = engine->stats(addr("f", j));
          std::fprintf(stderr, "  f::%s runs=%llu failures=%llu\n", j,
                       (unsigned long long)st.runs.load(),
                       (unsigned long long)st.failures.load());
        }
        return make_error(Errc::kTimeout, "no response");
      }
    }
  }

  Command set(const std::string& k, const std::string& v) {
    Command c;
    c.op = Command::Op::kSet;
    c.key = k;
    c.value = v;
    return c;
  }
  Command get(const std::string& k) {
    Command c;
    c.op = Command::Op::kGet;
    c.key = k;
    return c;
  }
};

TEST(FailoverPattern, ServesThroughWarmReplicas) {
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    auto r = fx.request(fx.set("k" + std::to_string(i), "v" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r->found);
  }
  for (int i = 0; i < 10; ++i) {
    auto r = fx.request(fx.get("k" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r->found);
    EXPECT_EQ(r->value, "v" + std::to_string(i));
  }
}

TEST(FailoverPattern, BackToBackRequestsNeverLoseTheCallHandshake) {
  // f::c asserts the next Call as soon as a grant ends, possibly while
  // f::b's run that served the previous one is still going. f::b must not
  // retract Call after that (the local-priority rule would drop the new
  // Call): every request is then served by its first Req, and nothing
  // complains about a timed-out handshake.
  Fixture fx;
  ASSERT_TRUE(fx.request(fx.set("warm", "w")).ok());
  const int complaints = fx.front->complaints.load();
  for (int i = 0; i < 300; ++i) {
    auto r = fx.request(fx.set("k" + std::to_string(i % 16), "v"));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  EXPECT_EQ(fx.front->complaints.load(), complaints);
}

TEST(FailoverPattern, SurvivesBackendCrash) {
  Fixture fx;
  for (int i = 0; i < 5; ++i) {
    auto r = fx.request(fx.set("pre" + std::to_string(i), "x"));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  // Kill the first back-end. The next requests fan out, time out on b1, and
  // are served by b2 alone (system continues at partial capacity, Fig 9).
  fx.engine->crash("b1");
  for (int i = 0; i < 5; ++i) {
    auto r = fx.request(fx.set("post" + std::to_string(i), "y"), 15);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  auto r = fx.request(fx.get("pre0"), 15);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r->found);
}

TEST(FailoverPattern, CrashedBackendReregistersWithState) {
  Fixture fx;
  for (int i = 0; i < 4; ++i) {
    auto r = fx.request(fx.set("durable" + std::to_string(i), "z"));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  fx.engine->crash("b1");
  // Keep the system warm so the failure is noticed and worked around.
  auto r1 = fx.request(fx.set("while-down", "w"), 15);
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();

  // Restart b1: its startup junction re-registers with f::b, which
  // re-initializes it from the canonical state (arrows (1)/(4) of Fig 8).
  ASSERT_TRUE(fx.engine->start_instance("b1").ok());
  // Give registration + initialization a moment, then verify b1 serves
  // again by checking requests keep completing and the re-registered
  // replica answers GETs for *pre-crash* data.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  for (int i = 0; i < 4; ++i) {
    auto r = fx.request(fx.get("durable" + std::to_string(i)), 15);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r->found) << "durable" << i;
  }
  // The restarted replica's own store must contain the resynchronized data.
  // (Inspect through the engine's state registry indirectly: issue enough
  // requests that b1 participates, which the HaveAtLeastOne protocol
  // guarantees once Backend[b1::serve] is re-asserted.)
  const auto& stats_b1 = fx.engine->stats(addr("b1", "serve"));
  EXPECT_GT(stats_b1.runs.load(), 0u);
}

TEST(FailoverPattern, FirstSuccessVariantServes) {
  // The S7.3 refinement: back-ends tried in order, first success wins.
  Fixture fx(/*engage_all=*/false);
  for (int i = 0; i < 8; ++i) {
    auto r = fx.request(fx.set("fs" + std::to_string(i), "v"));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  auto r = fx.request(fx.get("fs0"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
  // Only one back-end serves each request. Client retries and
  // re-registration churn add serve runs, so the robust bound is "clearly
  // below two engagements per request plus churn"; the precise 1.0x-vs-2.0x
  // work comparison lives in bench/ablation_failover.
  const auto b1 = fx.engine->stats(addr("b1", "serve")).runs.load();
  const auto b2 = fx.engine->stats(addr("b2", "serve")).runs.load();
  EXPECT_GE(b1 + b2, 9u);
  EXPECT_LE(b1 + b2, 40u);
}

TEST(FailoverPattern, FirstSuccessFallsOverOnCrash) {
  Fixture fx(/*engage_all=*/false);
  auto r1 = fx.request(fx.set("pre", "x"));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  fx.engine->crash("b1");
  // b1 branch times out; the fold's next element (b2) serves. But note: in
  // first-success mode b2 only has the state stream if it was initialized;
  // registration gave both replicas the canonical state at startup.
  auto r2 = fx.request(fx.set("post", "y"), 15);
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  auto r3 = fx.request(fx.get("post"), 15);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->found);
}

}  // namespace
}  // namespace csaw
