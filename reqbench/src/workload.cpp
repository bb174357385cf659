#include "workload.hpp"

#include <cstdio>
#include <numeric>
#include <utility>

namespace reqbench {

using csaw::miniredis::Command;
using csaw::miniredis::Response;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"shard_uniform", Shape::kShard, 20000, 0.90, 0, 0.0},
      {"cache_hot", Shape::kCache, 20000, 0.95, 2000, 0.90},
      {"chain_write", Shape::kChain, 20000, 0.50, 0, 0.0},
  };
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string key_name(std::uint32_t key) { return "key:" + std::to_string(key); }

std::string make_value(std::uint32_t key, std::uint64_t seq) {
  char head[48];
  const int n = std::snprintf(head, sizeof head, "%u#%llu#", key,
                              static_cast<unsigned long long>(seq));
  std::string v(head, static_cast<std::size_t>(n));
  // The filler depends on key and seq too, so two writes never share a value.
  std::uint64_t x = (std::uint64_t{key} << 32) ^ seq;
  while (v.size() < kValueBytes) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<char>('a' + (x >> 58) % 26));
  }
  return v;
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed,
                   std::uint64_t stream)
    : spec_(&spec), rng_(seed * 0x9e3779b97f4a7c15ull + stream + 1) {
  if (spec.hot_keys == 0) return;
  // The hot set is a seed-chosen subset of the keyspace, shared by every
  // arm of the run.
  perm_.resize(spec.keys);
  std::iota(perm_.begin(), perm_.end(), 0u);
  csaw::Rng shuffle(seed ^ 0x5bd1e9955bd1e995ull);
  for (std::size_t i = perm_.size() - 1; i > 0; --i) {
    std::swap(perm_[i], perm_[shuffle.below(i + 1)]);
  }
}

Op OpStream::next() {
  Op op;
  op.is_set = !rng_.chance(spec_->get_share);
  if (spec_->hot_keys == 0) {
    op.key = static_cast<std::uint32_t>(rng_.below(spec_->keys));
  } else if (rng_.chance(spec_->hot_share)) {
    op.key = perm_[rng_.below(spec_->hot_keys)];
  } else {
    op.key = perm_[spec_->hot_keys + rng_.below(spec_->keys - spec_->hot_keys)];
  }
  return op;
}

Oracle::Oracle(std::size_t keys) : acked_(keys, 0) {}

Command Oracle::command(const Op& op) {
  Command c;
  c.key = key_name(op.key);
  if (op.is_set) {
    c.op = Command::Op::kSet;
    pending_seq_ = next_seq_++;
    c.value = make_value(op.key, pending_seq_);
  } else {
    c.op = Command::Op::kGet;
  }
  return c;
}

bool Oracle::check(const Op& op, const Response& response) {
  bool ok = false;
  if (op.is_set) {
    ok = response.found;
    acked_[op.key] = pending_seq_;
    maybe_.erase(op.key);
  } else {
    const auto matches = [&](std::uint64_t seq) {
      return seq == 0 ? !response.found
                      : response.found && response.value == make_value(op.key, seq);
    };
    ok = matches(acked_[op.key]);
    if (!ok) {
      auto it = maybe_.find(op.key);
      ok = it != maybe_.end() && matches(it->second);
    }
  }
  return ok;
}

void Oracle::failed(const Op& op) {
  if (op.is_set) maybe_[op.key] = pending_seq_;
}

}  // namespace reqbench
