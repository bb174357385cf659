// Fig 24a: "Response of Packet Rate to Checkpoints" (Suricata).
//
// The same checkpointing logic used for Redis in Fig 23a, applied to the
// minisuricata pipeline's flow table ("the same checkpointing logic was
// used in Suricata") over a bigFlows-like synthetic mixture; a crash is
// injected mid-run and the pipeline resumes from the last flow-table
// checkpoint.
#include <memory>

#include "apps/minisuricata/services.hpp"
#include "bench/common.hpp"

using namespace csaw;
using namespace csaw::bench;

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  const auto cfg = Config::from_env();
  header("Fig 24a",
         "Suricata packet rate under 15s flow-table checkpointing + crash",
         cfg);

  constexpr int kCheckpointEvery = 15;
  const int crash_at = cfg.ticks / 2;

  std::unique_ptr<minisuricata::CheckpointedService> service;
  std::unique_ptr<minisuricata::FlowGenerator> gen;

  auto agg = run_series(
      cfg,
      [&](int rep) {
        minisuricata::CheckpointedService::Options sopts;
        obs.attach(sopts);
        service = std::make_unique<minisuricata::CheckpointedService>(sopts);
        minisuricata::FlowGenOptions gopts;
        gopts.concurrent_flows = 512;
        gen = std::make_unique<minisuricata::FlowGenerator>(
            gopts, 5000 + static_cast<std::uint64_t>(rep));
        // Build up a flow table so checkpoints carry weight.
        for (int i = 0; i < 30000; ++i) (void)service->process(gen->next());
      },
      [&](int tick) {
        const auto end = steady_now() + Millis(cfg.tick_ms);
        if (tick > 0 && tick % kCheckpointEvery == 0) {
          (void)service->checkpoint();
        }
        if (tick == crash_at) {
          (void)service->crash_and_resume();
        }
        double count = 0;
        while (steady_now() < end) {
          (void)service->process(gen->next());
          ++count;
        }
        return count;
      });

  const double to_kpps = (1000.0 / cfg.tick_ms) / 1000.0;
  print_series("t(s)", "KPackets/s", agg, to_kpps);

  auto mean_at = [&](int t) { return agg.mean_at(static_cast<std::size_t>(t)); };
  double steady = 0, dip = 0;
  int steady_n = 0, dip_n = 0;
  for (int t = 1; t < cfg.ticks; ++t) {
    if (t % kCheckpointEvery == 0 || t == crash_at) {
      dip += mean_at(t);
      ++dip_n;
    } else {
      steady += mean_at(t);
      ++steady_n;
    }
  }
  steady /= steady_n;
  dip /= dip_n;
  shape_check(dip < steady, "packet rate dips at checkpoint/crash ticks (" +
                                TablePrinter::fmt(dip * to_kpps) + " vs " +
                                TablePrinter::fmt(steady * to_kpps) +
                                " KP/s)");
  double after = 0;
  int after_n = 0;
  for (int t = crash_at + 2; t < std::min(crash_at + 8, cfg.ticks); ++t) {
    if (t % kCheckpointEvery == 0) continue;
    after += mean_at(t);
    ++after_n;
  }
  shape_check(after / std::max(after_n, 1) > 0.8 * steady,
              "packet rate recovers after crash-resume");
  return obs.finish() ? 0 : 1;
}
