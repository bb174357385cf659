#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compart/sched.hpp"
#include "report.hpp"

namespace reqbench {

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  Usage u;
  u.cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
  u.csw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

int proc_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

std::int64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return -1;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal
  std::int64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> v)) return -1;
  }
  return v;
}

double os_wake_p50_us(int round_trips) {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;  // 0 = ping's turn, 1 = pong's turn; -1 = stop
  std::thread pong([&] {
    std::unique_lock lock(mu);
    while (true) {
      cv.wait(lock, [&] { return turn != 0; });
      if (turn < 0) return;
      turn = 0;
      cv.notify_all();
    }
  });
  std::vector<double> one_way;
  one_way.reserve(static_cast<std::size_t>(round_trips));
  {
    std::unique_lock lock(mu);
    for (int i = 0; i < round_trips; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      turn = 1;
      cv.notify_all();
      cv.wait(lock, [&] { return turn == 0; });
      const std::chrono::duration<double, std::micro> dt =
          std::chrono::steady_clock::now() - t0;
      one_way.push_back(dt.count() / 2.0);
    }
    turn = -1;
  }
  cv.notify_all();
  pong.join();
  return quantile(one_way, 0.5);
}

int online_cpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

int default_workers() { return csaw::Scheduler::resolve_workers(0); }

}  // namespace reqbench
