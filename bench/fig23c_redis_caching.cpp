// Fig 23c: "Effect of Caching on Query Rate" (Redis).
//
// The Fig 7 caching architecture under the paper's read-heavy skew ("90% of
// requests are directed at 10% of the entries") against the identical
// architecture with the cache bypassed. Cache hits are answered at the
// front instance without crossing to the Fun back-end, so the cached
// configuration sustains a higher query rate -- the paper measured a gain
// of roughly 200 QPS (a few percent); the magnitude here depends on the
// relative cost of the cross-instance hop, but cached > uncached must hold.
#include <memory>

#include "apps/miniredis/services.hpp"
#include "apps/miniredis/workload.hpp"
#include "bench/common.hpp"

using namespace csaw;
using namespace csaw::bench;

namespace {

SeriesAggregate run_variant(const Config& cfg, bool cache_enabled,
                            ObsSession& obs) {
  std::unique_ptr<miniredis::CachedService> service;
  std::unique_ptr<miniredis::Workload> workload;
  return run_series(
      cfg,
      [&](int rep) {
        miniredis::CachedService::Options sopts;
        sopts.cache_enabled = cache_enabled;
        obs.attach(sopts);
        service = std::make_unique<miniredis::CachedService>(sopts);
        miniredis::WorkloadOptions wopts;
        wopts.keyspace = 2000;
        wopts.get_fraction = 0.95;  // read-heavy
        wopts.popularity = miniredis::WorkloadOptions::Popularity::kSkewed90_10;
        workload = std::make_unique<miniredis::Workload>(
            wopts, 3000 + static_cast<std::uint64_t>(rep));
        // Warm the keyspace (so GETs hit real data).
        for (std::size_t i = 0; i < wopts.keyspace; ++i) {
          miniredis::Command c;
          c.op = miniredis::Command::Op::kSet;
          c.key = miniredis::key_name(i);
          c.value.assign(64, 'v');
          (void)service->request(c);
        }
      },
      [&](int) {
        return closed_loop_tick(cfg.tick_ms, [&] {
          (void)service->request(workload->next());
        });
      });
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = Config::from_env();
  ObsSession obs(argc, argv);
  header("Fig 23c", "query rate with vs without caching (90/10 skew)", cfg);

  auto cached = run_variant(cfg, true, obs);
  auto uncached = run_variant(cfg, false, obs);

  print_multi_series("t(s)", {"with-caching(KQ/s)", "no-caching(KQ/s)"},
                     {cached, uncached}, (1000.0 / cfg.tick_ms) / 1000.0);

  double cached_mean = 0, uncached_mean = 0;
  for (std::size_t t = 0; t < cached.ticks(); ++t) cached_mean += cached.mean_at(t);
  for (std::size_t t = 0; t < uncached.ticks(); ++t) uncached_mean += uncached.mean_at(t);
  cached_mean /= static_cast<double>(cached.ticks());
  uncached_mean /= static_cast<double>(uncached.ticks());
  const double gain_pct = 100.0 * (cached_mean - uncached_mean) / uncached_mean;
  std::printf("mean rate: with-caching=%.1f ops/tick, no-caching=%.1f "
              "ops/tick (gain %.1f%%)\n",
              cached_mean, uncached_mean, gain_pct);
  shape_check(cached_mean > uncached_mean,
              "caching sustains a higher query rate on the skewed workload");
  return obs.finish() ? 0 : 1;
}
