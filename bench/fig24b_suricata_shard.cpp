// Fig 24b: "Cumulative requests sharded by 5-tuple" (Suricata).
//
// The key-based sharding logic from the Redis change, adapted to packet
// steering: each packet's 5-tuple is hashed to pick one of four back-end
// pipeline instances (S10.1). With a bigFlows-like mixture the hash spreads
// flows roughly evenly ("the workload is distributed in ratios across the
// four instances"), and every packet of a flow stays on its shard.
#include <memory>

#include "apps/minisuricata/services.hpp"
#include "bench/common.hpp"

using namespace csaw;
using namespace csaw::bench;

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  const auto cfg = Config::from_env();
  header("Fig 24b", "cumulative packets per back-end, steered by 5-tuple hash",
         cfg);

  constexpr std::size_t kShards = 4;
  std::vector<SeriesAggregate> per_shard(kShards);
  std::vector<std::uint64_t> final_counts(kShards, 0);
  bool affinity_ok = true;

  for (int rep = 0; rep < cfg.reps; ++rep) {
    minisuricata::SteeredService::Options sopts;
    obs.attach(sopts);
    auto service = std::make_unique<minisuricata::SteeredService>(sopts);
    minisuricata::FlowGenOptions gopts;
    gopts.concurrent_flows = 512;
    minisuricata::FlowGenerator gen(gopts,
                                    6000 + static_cast<std::uint64_t>(rep));
    std::vector<std::vector<double>> cumulative(kShards);
    for (int t = 0; t < cfg.ticks; ++t) {
      closed_loop_tick(cfg.tick_ms, [&] {
        const auto p = gen.next();
        // Flow affinity invariant: the steering decision is a pure function
        // of the 5-tuple.
        if (service->shard_of(p) != p.tuple.hash() % kShards) {
          affinity_ok = false;
        }
        (void)service->process(p);
      });
      (void)service->flush();
      auto counts = service->shard_packet_counts();
      for (std::size_t s = 0; s < kShards; ++s) {
        cumulative[s].push_back(static_cast<double>(counts[s]));
      }
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      per_shard[s].add_run(cumulative[s]);
      final_counts[s] = static_cast<std::uint64_t>(cumulative[s].back());
    }
  }

  print_multi_series("t(s)", {"shard1(KPkt)", "shard2(KPkt)", "shard3(KPkt)",
                              "shard4(KPkt)"},
                     per_shard, 1e-3);

  double total = 0, mx = 0, mn = 1e18;
  for (auto c : final_counts) {
    total += static_cast<double>(c);
    mx = std::max(mx, static_cast<double>(c));
    mn = std::min(mn, static_cast<double>(c));
  }
  std::printf("final shares:");
  for (std::size_t s = 0; s < kShards; ++s) {
    std::printf(" %.3f", static_cast<double>(final_counts[s]) / total);
  }
  std::printf("\n");
  shape_check(total > 0 && mn / mx > 0.55,
              "5-tuple hash distributes traffic across all four instances");
  shape_check(affinity_ok, "every packet of a flow lands on the same shard");
  return obs.finish() ? 0 : 1;
}
