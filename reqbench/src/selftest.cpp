// Self-tests run before every measurement: the oracle must catch a stale
// read, and op streams must be a pure function of the seed.
#include "selftest.hpp"

#include <cstdio>
#include <vector>

#include "workload.hpp"

namespace reqbench {
namespace {

using csaw::miniredis::Response;

bool expect(bool cond, const char* what) {
  if (!cond) std::fprintf(stderr, "self-test failed: %s\n", what);
  return cond;
}

bool oracle_catches_stale_reads() {
  Oracle o(4);
  const Op set{true, 2};
  const Op get{false, 2};
  bool ok = true;
  (void)o.command(set);  // seq 1
  ok &= expect(o.check(set, Response{true, ""}), "acked SET accepted");
  (void)o.command(set);  // seq 2
  ok &= expect(o.check(set, Response{true, ""}), "second SET accepted");
  (void)o.command(get);
  ok &= expect(o.check(get, Response{true, make_value(2, 2)}),
               "current value accepted");
  (void)o.command(get);
  ok &= expect(!o.check(get, Response{true, make_value(2, 1)}),
               "stale value rejected");
  (void)o.command(get);
  ok &= expect(!o.check(get, Response{false, ""}), "lost key rejected");
  (void)o.command(get);
  ok &= expect(!o.check(get, Response{true, make_value(3, 2)}),
               "another key's value rejected");
  (void)o.command(Op{false, 0});
  ok &= expect(o.check(Op{false, 0}, Response{false, ""}),
               "never-written key reads as absent");
  // A failed SET may or may not have been applied: both values pass.
  (void)o.command(set);  // seq 3, no response
  o.failed(set);
  (void)o.command(get);
  ok &= expect(o.check(get, Response{true, make_value(2, 3)}),
               "value of a failed SET accepted");
  (void)o.command(get);
  ok &= expect(o.check(get, Response{true, make_value(2, 2)}),
               "value before a failed SET accepted");
  ok &= expect(make_value(7, 1).size() == kValueBytes, "64-byte values");
  ok &= expect(make_value(7, 1) != make_value(7, 2), "values carry the seq");
  return ok;
}

std::vector<Op> first_ops(const WorkloadSpec& w, std::uint64_t seed,
                          std::uint64_t stream) {
  OpStream s(w, seed, stream);
  std::vector<Op> ops;
  for (int i = 0; i < 5000; ++i) ops.push_back(s.next());
  return ops;
}

bool streams_follow_the_seed() {
  bool ok = true;
  for (const auto& w : workloads()) {
    const auto a = first_ops(w, 11, 0);
    ok &= expect(a == first_ops(w, 11, 0), "same seed, same op stream");
    ok &= expect(a != first_ops(w, 12, 0), "other seed, other op stream");
    ok &= expect(a != first_ops(w, 11, 1), "other arm, other op stream");
    std::size_t sets = 0;
    for (const auto& op : a) sets += op.is_set ? 1 : 0;
    const double share = static_cast<double>(sets) / static_cast<double>(a.size());
    ok &= expect(share > (1 - w.get_share) * 0.8 && share < (1 - w.get_share) * 1.2,
                 "SET share matches the mix");
  }
  return ok;
}

}  // namespace

bool run_self_test() {
  const bool a = oracle_catches_stale_reads();
  const bool b = streams_follow_the_seed();
  return a && b;
}

}  // namespace reqbench
