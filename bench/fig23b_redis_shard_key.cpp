// Fig 23b: "Cumulative requests sharded by key" (Redis).
//
// Four back-end shards behind the Fig 5 sharding architecture with djb2
// key-hash routing, under the paper's *uneven* workload ("uneven workloads
// place different pressure on different back-ends"): request pressure is
// weighted 4:3:2:1 across the four hash classes, so the cumulative
// per-shard lines diverge with distinct slopes. The paper "confirmed that
// the ratio between shards matches that of the workload" -- re-verified by
// the shape-check below.
#include <memory>

#include "apps/miniredis/services.hpp"
#include "apps/miniredis/workload.hpp"
#include "bench/common.hpp"
#include "support/rng.hpp"

using namespace csaw;
using namespace csaw::bench;

int main(int argc, char** argv) {
  auto cfg = Config::from_env();
  ObsSession obs(argc, argv);
  cfg.ticks = Config::env_int("CSAW_BENCH_TICKS", 100);  // the paper plots 100 s
  header("Fig 23b",
         "cumulative requests per shard, key-sharded (djb2), uneven workload",
         cfg);

  constexpr std::size_t kShards = 4;
  const double kWeights[kShards] = {4, 3, 2, 1};
  constexpr std::size_t kKeyspace = 4000;

  std::vector<SeriesAggregate> per_shard(kShards);
  std::vector<std::uint64_t> final_counts(kShards, 0);

  for (int rep = 0; rep < cfg.reps; ++rep) {
    miniredis::ShardedService::Options sopts;
    sopts.shards = kShards;
    obs.attach(sopts);
    auto service = std::make_unique<miniredis::ShardedService>(sopts);

    // Uneven pressure per *back-end*: keys are grouped by the shard their
    // djb2 hash selects, and the per-group request mass is weighted 4:3:2:1.
    std::vector<std::vector<std::string>> keys_of(kShards);
    for (std::size_t k = 0; k < kKeyspace; ++k) {
      miniredis::Command probe;
      probe.key = miniredis::key_name(k);
      keys_of[service->shard_of(probe)].push_back(probe.key);
    }
    double total_w = 0;
    for (double w : kWeights) total_w += w;
    Rng rng(4000 + static_cast<std::uint64_t>(rep));
    auto draw = [&]() -> miniredis::Command {
      const double u = rng.uniform() * total_w;
      std::size_t shard = 0;
      double acc = 0;
      for (; shard < kShards; ++shard) {
        acc += kWeights[shard];
        if (u < acc) break;
      }
      shard = std::min(shard, kShards - 1);
      miniredis::Command c;
      c.key = keys_of[shard][rng.below(keys_of[shard].size())];
      if (rng.chance(0.7)) {
        c.op = miniredis::Command::Op::kGet;
      } else {
        c.op = miniredis::Command::Op::kSet;
        c.value.assign(64, 'v');
      }
      return c;
    };

    std::vector<std::vector<double>> cumulative(kShards);
    for (int t = 0; t < cfg.ticks; ++t) {
      closed_loop_tick(cfg.tick_ms, [&] { (void)service->request(draw()); });
      auto counts = service->shard_counts();
      for (std::size_t s = 0; s < kShards; ++s) {
        cumulative[s].push_back(static_cast<double>(counts[s]));
      }
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      per_shard[s].add_run(cumulative[s]);
      final_counts[s] = static_cast<std::uint64_t>(cumulative[s].back());
    }
  }

  print_multi_series("t(s)", {"shard1(KReq)", "shard2(KReq)", "shard3(KReq)",
                              "shard4(KReq)"},
                     per_shard, 1e-3);

  // Shape checks: shares track the 4:3:2:1 workload; lines are monotone.
  double total = 0;
  for (auto c : final_counts) total += static_cast<double>(c);
  bool ratios_ok = total > 0;
  std::printf("final shares (observed vs workload):\n");
  for (std::size_t s = 0; s < kShards; ++s) {
    const double observed = static_cast<double>(final_counts[s]) / total;
    const double expected = kWeights[s] / 10.0;
    std::printf("  shard%zu: %.3f vs %.3f\n", s + 1, observed, expected);
    if (std::abs(observed - expected) > 0.04) ratios_ok = false;
  }
  shape_check(ratios_ok,
              "per-shard request ratio matches the 4:3:2:1 workload");
  shape_check(final_counts[0] > final_counts[1] &&
                  final_counts[1] > final_counts[2] &&
                  final_counts[2] > final_counts[3],
              "cumulative lines strictly ordered by workload weight");
  return obs.finish() ? 0 : 1;
}
