#pragma once

namespace reqbench {

// Checks the oracle against a fed-in stale response and the op streams
// against their seeds. Prints each failure to stderr; true if all pass.
bool run_self_test();

}  // namespace reqbench
