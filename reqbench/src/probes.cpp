#include "probes.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/miniredis/store.hpp"
#include "core/builder.hpp"
#include "core/compile.hpp"
#include "core/interp.hpp"
#include "kv/table.hpp"
#include "serdes/registry.hpp"
#include "support/check.hpp"

namespace reqbench {
namespace {

using csaw::miniredis::Command;
using csaw::miniredis::Response;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kOps = 4096;
constexpr std::size_t kBatches = 9;
constexpr auto kIdleGap = std::chrono::milliseconds(5);

// Keeps probed results observable so the calls are not optimised away.
volatile std::uint64_t g_keep = 0;

// Median over batches of the mean nanoseconds per call of fn(i).
template <typename Fn>
double ns_per_op(std::size_t batch, Fn&& fn) {
  std::vector<double> per;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    const std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
    per.push_back(dt.count() / static_cast<double>(batch));
  }
  return median(per);
}

// p50 in microseconds of `n` timed calls of fn(), each after `gap`.
template <typename Fn>
double p50_us(int n, std::chrono::milliseconds gap, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double, std::micro> dt = Clock::now() - t0;
    us.push_back(dt.count());
  }
  return median(us);
}

// Two instances with one no-op manual junction each: `a` is called, `b`
// receives acked pushes (each one is enqueued and applied by a wake of b).
csaw::ProgramSpec probe_program() {
  csaw::ProgramBuilder p("reqbench_probe");
  p.type("tau_probe").junction("j").init_prop("P", false).body(csaw::e_skip());
  p.instance("a", "tau_probe", {{"j", {}}});
  p.instance("b", "tau_probe", {{"j", {}}});
  p.main_body(csaw::e_par({csaw::e_start(csaw::inst("a")),
                           csaw::e_start(csaw::inst("b"))}));
  return p.build();
}

void engine_probes(Metrics& out) {
  auto compiled = csaw::compile(probe_program());
  CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
  csaw::Engine engine(std::move(compiled).value(), csaw::HostBindings{});
  const auto st = engine.run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
  auto& rt = engine.runtime();
  const auto call = [&] {
    const auto s = engine.call("a", "j", csaw::Deadline::after(std::chrono::seconds(5)));
    CSAW_CHECK(s.ok()) << s.error().to_string();
  };
  const auto push = [&] {
    const auto s = rt.push({.to = csaw::addr("b", "j"),
                            .update = csaw::Update::assert_prop(csaw::Symbol("P")),
                            .deadline = csaw::Deadline::after(std::chrono::seconds(5)),
                            .from = csaw::Symbol("reqbench")});
    CSAW_CHECK(s.ok()) << s.error().to_string();
  };
  constexpr int kHot = 2000;
  constexpr int kIdle = 100;
  const std::string hot_n = samples(kHot);
  const std::string idle_n = samples(kIdle) + ", 5 ms gap";
  p50_us(200, std::chrono::milliseconds(0), call);  // warm-up
  add(out, {"compart.call.hot_p50_us", p50_us(kHot, std::chrono::milliseconds(0), call),
            "us", hot_n});
  add(out, {"compart.call.idle_p50_us", p50_us(kIdle, kIdleGap, call), "us", idle_n});
  p50_us(200, std::chrono::milliseconds(0), push);
  add(out, {"compart.push.hot_p50_us", p50_us(kHot, std::chrono::milliseconds(0), push),
            "us", hot_n});
  add(out, {"compart.push.idle_p50_us", p50_us(kIdle, kIdleGap, push), "us", idle_n});
}

}  // namespace

Metrics layer_probes(const WorkloadSpec& spec, std::uint64_t seed) {
  Metrics out;
  // The workload's own commands and the responses they would get.
  OpStream ops(spec, seed, /*stream=*/7);
  std::vector<Command> cmds;
  std::vector<Response> resps;
  std::vector<std::string> values;
  for (std::size_t i = 0; i < kOps; ++i) {
    const Op op = ops.next();
    values.push_back(make_value(op.key, i + 1));
    Command c;
    c.key = key_name(op.key);
    if (op.is_set) {
      c.op = Command::Op::kSet;
      c.value = values.back();
      resps.push_back(Response{true, ""});
    } else {
      resps.push_back(Response{true, values.back()});
    }
    cmds.push_back(std::move(c));
  }

  // --- miniredis Store (op_cost_ns = 0) ------------------------------------
  {
    csaw::miniredis::Store store(0);
    for (std::uint32_t k = 0; k < spec.keys; ++k) {
      store.set(key_name(k), make_value(k, 0));
    }
    const double get_ns = ns_per_op(kOps, [&](std::size_t i) {
      auto v = store.get(cmds[i].key);
      g_keep = g_keep + (v ? v->size() : 0);
    });
    const double set_ns = ns_per_op(kOps, [&](std::size_t i) {
      store.set(cmds[i].key, values[i]);
    });
    add(out, {"miniredis.store_get_ns", get_ns, "ns", "20k keys, 64 B values"});
    add(out, {"miniredis.store_set_ns", set_ns, "ns", "20k keys, 64 B values"});
  }

  // --- serdes: one request's Command plus its Response ---------------------
  std::vector<csaw::SerializedValue> packed_cmd(kOps);
  std::vector<csaw::SerializedValue> packed_resp(kOps);
  const double pack_ns = ns_per_op(kOps, [&](std::size_t i) {
    packed_cmd[i] = csaw::pack("miniredis.Command", cmds[i]);
    packed_resp[i] = csaw::pack("miniredis.Response", resps[i]);
  });
  const double unpack_ns = ns_per_op(kOps, [&](std::size_t i) {
    auto c = csaw::unpack<Command>("miniredis.Command", packed_cmd[i]);
    auto r = csaw::unpack<Response>("miniredis.Response", packed_resp[i]);
    CSAW_CHECK(c.ok() && r.ok()) << "unpack of a packed value failed";
    g_keep = g_keep + c->key.size() + r->value.size();
  });
  double bytes = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    bytes += static_cast<double>(packed_cmd[i].size() + packed_resp[i].size());
  }
  add(out, {"serdes.pack_ns", pack_ns, "ns", "Command + Response"});
  add(out, {"serdes.unpack_ns", unpack_ns, "ns", "Command + Response"});
  add(out, {"serdes.bytes_per_op", bytes / kOps, "B", "Command + Response"});

  // --- kv: one pushed data write queued and applied ------------------------
  {
    csaw::KvTable::Spec tspec;
    tspec.props = {{csaw::Symbol("Work"), true}, {csaw::Symbol("Busy"), false}};
    tspec.data = {csaw::Symbol("n")};
    csaw::KvTable table(tspec, "probe");
    const csaw::Symbol n("n");
    const double apply_ns = ns_per_op(kOps, [&](std::size_t i) {
      const auto st = table.enqueue(csaw::Update::write_data(n, packed_cmd[i]));
      CSAW_CHECK(st.ok()) << st.error().to_string();
      table.apply_pending();
    });
    add(out, {"kv.apply_ns", apply_ns, "ns", "enqueue + apply_pending"});

    // --- core: a two-proposition guard over the same table -----------------
    const auto guard = csaw::f_and(csaw::f_prop("Work"),
                                   csaw::f_not(csaw::f_prop("Busy")));
    const double eval_ns = ns_per_op(kOps, [&](std::size_t) {
      auto v = csaw::eval_formula(*guard, table, nullptr, nullptr);
      g_keep = g_keep + (v.ok() && *v ? 1 : 0);
    });
    add(out, {"core.guard_eval_ns", eval_ns, "ns", "eval_formula"});
  }

  engine_probes(out);
  return out;
}

}  // namespace reqbench
