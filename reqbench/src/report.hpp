// Named metrics, percentiles and the result line.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace reqbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value, e.g. the sample count
};

using Metrics = std::vector<Metric>;

// Nearest-rank quantile of `v`. NaN when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

// Adds `m` unless its value is not a finite number: a metric that could not
// be measured is absent, never a made-up number.
inline void add(Metrics& out, Metric m) {
  if (std::isfinite(m.value)) out.push_back(std::move(m));
}

inline void print_metrics(const Metrics& ms) {
  for (const auto& m : ms) {
    std::printf("  %-36s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

// The last line of standard output.
inline void print_result(bool correct, std::uint64_t attempted,
                         std::uint64_t failed, const Metrics& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace reqbench
