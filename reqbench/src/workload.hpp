// Workload generation and the correctness oracle.
//
// The generator owns every input: which key each request touches, GET vs
// SET, and every SET value. A SET value carries its write sequence number,
// so the oracle can tell a current read from a stale one. The same seed
// always yields the same op stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "apps/miniredis/command.hpp"
#include "support/rng.hpp"

namespace reqbench {

enum class Shape { kShard, kCache, kChain };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  std::size_t keys;      // preloaded keyspace
  double get_share;      // the rest are SETs
  std::size_t hot_keys;  // 0 = uniform keys
  double hot_share;      // share of requests on the hot set
};

// All workloads, by name.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

constexpr std::size_t kValueBytes = 64;

struct Op {
  bool is_set = false;
  std::uint32_t key = 0;
  friend bool operator==(const Op&, const Op&) = default;
};

std::string key_name(std::uint32_t key);
// The 64-byte value a SET with sequence number `seq` writes to `key`.
std::string make_value(std::uint32_t key, std::uint64_t seq);

// A deterministic op stream. `stream` separates the arms of one run, so the
// closed and open arms draw different ops from the same seed.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t stream);
  Op next();

 private:
  const WorkloadSpec* spec_;
  csaw::Rng rng_;
  std::vector<std::uint32_t> perm_;  // perm_[0, hot_keys) is the hot set
};

// Shadow map of the latest acknowledged SET per key. One request is in
// flight at a time, so a GET must return exactly the value of the latest
// acknowledged SET of its key. A SET that failed may or may not have been
// applied, so until the next acknowledged SET either value is accepted.
class Oracle {
 public:
  explicit Oracle(std::size_t keys);

  // The command for `op`; a SET gets the next write sequence number.
  csaw::miniredis::Command command(const Op& op);
  // Judges the response to the command last built. False = wrong answer.
  bool check(const Op& op, const csaw::miniredis::Response& response);
  // Records that the command last built got no response.
  void failed(const Op& op);

 private:
  std::vector<std::uint64_t> acked_;  // per key; 0 = never written
  std::unordered_map<std::uint32_t, std::uint64_t> maybe_;  // failed SETs
  std::uint64_t next_seq_ = 1;
  std::uint64_t pending_seq_ = 0;
};

}  // namespace reqbench
