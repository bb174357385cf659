// Layer probes: single layers timed from the benchmark, on the workload's
// own commands and values, with no code added under src/.
#pragma once

#include <cstdint>

#include "report.hpp"
#include "workload.hpp"

namespace reqbench {

// miniredis Store, serdes pack/unpack, KvTable enqueue + apply_pending,
// eval_formula, and Engine::call / acked Runtime::push on a two-instance
// engine, both back to back and after a 5 ms idle gap.
Metrics layer_probes(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace reqbench
