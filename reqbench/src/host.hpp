// Process and host readings: CPU, context switches, memory, threads, steal
// time and OS wake-up latency. They show whether a run was made on a
// contended host.
#pragma once

#include <cstdint>

namespace reqbench {

struct Usage {
  double cpu_us = 0.0;    // user + sys, all threads of the process
  double csw = 0.0;       // voluntary + involuntary context switches
  double maxrss_mb = 0.0; // peak resident set size
};

Usage usage_now();

// Threads of this process right now (/proc/self/status); -1 if unreadable.
int proc_threads();

// Cumulative steal ticks of all CPUs (/proc/stat); -1 if unreadable.
std::int64_t steal_ticks();

// Median one-way wake-up latency of a two-thread condition-variable
// ping-pong, in microseconds.
double os_wake_p50_us(int round_trips);

int online_cpus();
// The scheduler's worker count when SchedulerOptions::workers is 0.
int default_workers();

}  // namespace reqbench
