// Fig 23a: "Response of Query Rate to Checkpoints" (Redis).
//
// A miniredis server is checkpointed through the Fig 4 snapshot
// architecture every 15 (paper-)seconds; a crash is injected at t=60 and
// the server resumes from the last checkpoint. The query rate dips at each
// checkpoint (serialization blocks the single-threaded server) and drops
// hard across the crash-recovery, then recovers -- the paper's shape.
#include <memory>

#include "apps/miniredis/services.hpp"
#include "apps/miniredis/workload.hpp"
#include "bench/common.hpp"

using namespace csaw;
using namespace csaw::bench;

int main(int argc, char** argv) {
  const auto cfg = Config::from_env();
  ObsSession obs(argc, argv);
  JsonSnapshot json("fig23a_redis_checkpoint", argc, argv, cfg);
  header("Fig 23a", "Redis query rate under 15s checkpointing + crash at t=60",
         cfg);

  constexpr int kCheckpointEvery = 15;
  const int crash_at = cfg.ticks / 2;

  std::unique_ptr<miniredis::CheckpointedService> service;
  std::unique_ptr<miniredis::Workload> workload;

  auto agg = run_series(
      cfg,
      [&](int rep) {
        miniredis::CheckpointedService::Options sopts;
        obs.attach(sopts);
        service = std::make_unique<miniredis::CheckpointedService>(sopts);
        miniredis::WorkloadOptions wopts;
        wopts.keyspace = 6000;
        wopts.get_fraction = 0.7;
        wopts.value_bytes = 128;
        workload = std::make_unique<miniredis::Workload>(
            wopts, 1000 + static_cast<std::uint64_t>(rep));
        // Preload so checkpoints have real weight.
        for (std::size_t i = 0; i < wopts.keyspace; ++i) {
          miniredis::Command c;
          c.op = miniredis::Command::Op::kSet;
          c.key = miniredis::key_name(i);
          c.value.assign(128, 'x');
          (void)service->request(c);
        }
      },
      [&](int tick) {
        // Checkpoint/crash handling happens *inside* the measured tick, as
        // it does on a live server: serialization contends with serving and
        // recovery consumes serving time.
        const auto end = steady_now() + Millis(cfg.tick_ms);
        if (tick > 0 && tick % kCheckpointEvery == 0) {
          (void)service->checkpoint_async();
        }
        if (tick == crash_at) {
          (void)service->crash_and_resume();
        }
        double count = 0;
        while (steady_now() < end) {
          (void)service->request(workload->next());
          ++count;
        }
        return count;
      });

  // Report as KQueries per paper-second (tick count scaled to a full
  // second at the same rate).
  const double to_kqps = (1000.0 / cfg.tick_ms) / 1000.0;
  print_series("t(s)", "KQuery/s", agg, to_kqps);

  // Shape checks: checkpoint ticks dip below their neighbours; the crash
  // tick dips hardest; steady-state recovers after the crash.
  auto mean_at = [&](int t) { return agg.mean_at(static_cast<std::size_t>(t)); };
  double steady = 0, checkpoint_ticks = 0, checkpoint_sum = 0;
  int steady_n = 0;
  for (int t = 1; t < cfg.ticks; ++t) {
    if (t % kCheckpointEvery == 0 || t == crash_at) {
      checkpoint_sum += mean_at(t);
      ++checkpoint_ticks;
    } else {
      steady += mean_at(t);
      ++steady_n;
    }
  }
  steady /= steady_n;
  checkpoint_sum /= checkpoint_ticks;
  shape_check(checkpoint_sum < steady,
              "query rate dips during checkpoint/crash ticks "
              "(dip mean " + TablePrinter::fmt(checkpoint_sum * to_kqps) +
              " < steady " + TablePrinter::fmt(steady * to_kqps) + " KQ/s)");
  shape_check(mean_at(crash_at) < steady,
              "crash-recovery tick is below steady state");
  double after = 0;
  int after_n = 0;
  for (int t = crash_at + 2; t < std::min(crash_at + 8, cfg.ticks); ++t) {
    if (t % kCheckpointEvery == 0) continue;
    after += mean_at(t);
    ++after_n;
  }
  after /= std::max(after_n, 1);
  shape_check(after > 0.8 * steady, "rate recovers after crash-resume (post "
              + TablePrinter::fmt(after * to_kqps) + " vs steady "
              + TablePrinter::fmt(steady * to_kqps) + ")");

  json.set("steady_kqps", steady * to_kqps);
  json.set("checkpoint_dip_kqps", checkpoint_sum * to_kqps);
  json.set("crash_tick_kqps", mean_at(crash_at) * to_kqps);
  json.set("post_crash_kqps", after * to_kqps);

  // Engines hold borrowed pointers into the session: tear down first.
  service.reset();
  return obs.finish() && json.finish() ? 0 : 1;
}
