// Tests for the deployment-level service harnesses (miniredis/minisuricata
// behind each architecture) and the direct-C++ baselines used as Table 2's
// control -- both must behave identically to the DSL versions at the
// request/response level.
#include <gtest/gtest.h>

#include <filesystem>

#include "apps/miniredis/services.hpp"
#include "apps/miniredis/workload.hpp"
#include "apps/minisuricata/services.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "patterns/baselines.hpp"

namespace csaw {
namespace {

using miniredis::Command;

Command set_cmd(const std::string& k, const std::string& v) {
  Command c;
  c.op = Command::Op::kSet;
  c.key = k;
  c.value = v;
  return c;
}

Command get_cmd(const std::string& k) {
  Command c;
  c.op = Command::Op::kGet;
  c.key = k;
  return c;
}

// Exercises any Service-shaped object with the same script.
template <typename S>
void exercise_kv(S& svc) {
  for (int i = 0; i < 20; ++i) {
    auto r = svc.request(set_cmd("k" + std::to_string(i), "v" + std::to_string(i)));
    ASSERT_TRUE(r.ok());
  }
  for (int i = 0; i < 20; ++i) {
    auto r = svc.request(get_cmd("k" + std::to_string(i)));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
    EXPECT_EQ(r->value, "v" + std::to_string(i));
  }
  auto miss = svc.request(get_cmd("absent"));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->found);
}

TEST(Services, BaselineServesRequests) {
  miniredis::BaselineService svc(0);
  exercise_kv(svc);
}

TEST(Services, ShardedByKeyServesRequests) {
  miniredis::ShardedService::Options opts;
  opts.op_cost_ns = 0;
  miniredis::ShardedService svc(opts);
  exercise_kv(svc);
  // All four shards should hold some load for 20 spread keys.
  std::uint64_t total = 0;
  for (auto c : svc.shard_counts()) total += c;
  EXPECT_EQ(total, 41u);  // 20 sets + 20 gets + 1 miss
}

TEST(Services, ShardedBySizeKeepsKeyAffinity) {
  miniredis::ShardedService::Options opts;
  opts.mode = miniredis::ShardedService::Mode::kByObjectSize;
  opts.op_cost_ns = 0;
  miniredis::ShardedService svc(opts);
  auto small = set_cmd("small", std::string(100, 'a'));
  auto big = set_cmd("big", std::string(100 * 1024, 'b'));
  EXPECT_EQ(svc.shard_of(small), 0u);
  EXPECT_EQ(svc.shard_of(big), 3u);
  ASSERT_TRUE(svc.request(small).ok());
  ASSERT_TRUE(svc.request(big).ok());
  // GETs must follow the SET's class so they find the data.
  EXPECT_EQ(svc.shard_of(get_cmd("big")), 3u);
  auto r = svc.request(get_cmd("big"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

TEST(Services, CheckpointedCrashLosesOnlyPostCheckpointWrites) {
  miniredis::CheckpointedService svc;
  ASSERT_TRUE(svc.request(set_cmd("durable", "1")).ok());
  ASSERT_TRUE(svc.checkpoint().ok());
  EXPECT_EQ(svc.checkpoints_taken(), 1u);
  ASSERT_TRUE(svc.request(set_cmd("volatile", "2")).ok());
  ASSERT_TRUE(svc.crash_and_resume().ok());
  auto durable = svc.request(get_cmd("durable"));
  ASSERT_TRUE(durable.ok());
  EXPECT_TRUE(durable->found);  // restored from the checkpoint
  auto lost = svc.request(get_cmd("volatile"));
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(lost->found);  // written after the checkpoint: gone
}

TEST(Services, CachedHitsSkipBackend) {
  miniredis::CachedService::Options opts;
  opts.op_cost_ns = 0;
  miniredis::CachedService svc(opts);
  ASSERT_TRUE(svc.request(set_cmd("x", "1")).ok());
  for (int i = 0; i < 5; ++i) {
    auto r = svc.request(get_cmd("x"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, "1");
  }
  EXPECT_EQ(svc.misses(), 1u);
  EXPECT_EQ(svc.hits(), 4u);
  // A write invalidates; the next GET misses and sees the new value.
  ASSERT_TRUE(svc.request(set_cmd("x", "2")).ok());
  auto r = svc.request(get_cmd("x"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value, "2");
  EXPECT_EQ(svc.misses(), 2u);
}

TEST(Services, CacheDisabledAlwaysMisses) {
  miniredis::CachedService::Options opts;
  opts.cache_enabled = false;
  opts.op_cost_ns = 0;
  miniredis::CachedService svc(opts);
  ASSERT_TRUE(svc.request(set_cmd("x", "1")).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.request(get_cmd("x")).ok());
  }
  EXPECT_EQ(svc.hits(), 0u);
}

TEST(Services, SuricataCheckpointedSurvivesCrash) {
  minisuricata::CheckpointedService svc;
  minisuricata::FlowGenerator gen({}, 42);
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(svc.process(gen.next()).ok());
  const auto flows_before = svc.flow_count();
  ASSERT_GT(flows_before, 10u);
  ASSERT_TRUE(svc.checkpoint().ok());
  ASSERT_TRUE(svc.crash_and_resume().ok());
  EXPECT_EQ(svc.flow_count(), flows_before);
}

TEST(Services, SuricataSteeringPreservesEveryPacket) {
  minisuricata::SteeredService::Options opts;
  opts.batch_size = 32;
  opts.cost_ns = 0;
  minisuricata::SteeredService svc(opts);
  minisuricata::FlowGenerator gen({}, 43);
  constexpr int kPackets = 500;
  for (int i = 0; i < kPackets; ++i) ASSERT_TRUE(svc.process(gen.next()).ok());
  ASSERT_TRUE(svc.flush().ok());
  std::uint64_t total = 0;
  for (auto c : svc.shard_packet_counts()) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kPackets));
}

// --- every service forwards its ServiceOptions taps ---------------------------

// One service shape: builds the service from `base` (taps set through the
// ServiceOptions base) and drives one operation that enters the runtime.
// The service is destroyed before drive() returns.
struct TapCase {
  const char* name;
  void (*drive)(const ServiceOptions& base);
};

template <typename Options>
Options with_base(const ServiceOptions& base) {
  Options options;
  static_cast<ServiceOptions&>(options) = base;
  return options;
}

const TapCase kTapCases[] = {
    {"RedisCheckpointed",
     [](const ServiceOptions& base) {
       auto o = with_base<miniredis::CheckpointedService::Options>(base);
       o.op_cost_ns = 0;
       miniredis::CheckpointedService svc(o);
       ASSERT_TRUE(svc.checkpoint().ok());
     }},
    {"Sharded",
     [](const ServiceOptions& base) {
       auto o = with_base<miniredis::ShardedService::Options>(base);
       o.op_cost_ns = 0;
       miniredis::ShardedService svc(o);
       ASSERT_TRUE(svc.request(get_cmd("k")).ok());
     }},
    {"Cached",
     [](const ServiceOptions& base) {
       auto o = with_base<miniredis::CachedService::Options>(base);
       o.op_cost_ns = 0;
       miniredis::CachedService svc(o);
       ASSERT_TRUE(svc.request(get_cmd("k")).ok());
       EXPECT_EQ(svc.misses(), 1u);
     }},
    {"Replicated",
     [](const ServiceOptions& base) {
       auto o = with_base<miniredis::ReplicatedService::Options>(base);
       o.mode = miniredis::ReplicatedService::Mode::kChain;
       o.op_cost_ns = 0;
       miniredis::ReplicatedService svc(o);
       ASSERT_TRUE(svc.request(set_cmd("k", "v")).ok());
     }},
    {"Rebalanced",
     [](const ServiceOptions& base) {
       auto o = with_base<miniredis::RebalancedService::Options>(base);
       o.op_cost_ns = 0;
       miniredis::RebalancedService svc(o);
       ASSERT_TRUE(svc.request(get_cmd("k")).ok());
     }},
    {"SuricataCheckpointed",
     [](const ServiceOptions& base) {
       auto o = with_base<minisuricata::CheckpointedService::Options>(base);
       o.cost_ns = 0;
       minisuricata::CheckpointedService svc(o);
       ASSERT_TRUE(svc.checkpoint().ok());
     }},
    {"Steered",
     [](const ServiceOptions& base) {
       auto o = with_base<minisuricata::SteeredService::Options>(base);
       o.shards = 1;  // every packet fills the same batch
       o.batch_size = 8;
       o.cost_ns = 0;
       minisuricata::SteeredService svc(o);
       minisuricata::FlowGenerator gen({}, 44);
       for (std::size_t i = 0; i < o.batch_size; ++i) {
         ASSERT_TRUE(svc.process(gen.next()).ok());
       }
       std::uint64_t steered = 0;
       for (auto c : svc.shard_packet_counts()) steered += c;
       EXPECT_EQ(steered, o.batch_size);
     }},
};

class ServiceTaps : public ::testing::TestWithParam<TapCase> {};

TEST_P(ServiceTaps, ForwardsEveryTapToTheRuntime) {
  obs::Tracer tracer;
  obs::Metrics metrics;
  obs::Profiler profiler;
  ServiceOptions base;
  base.trace_sink = &tracer;
  base.metrics = &metrics;
  base.profiler = &profiler;
  base.profile_out = ::testing::TempDir() + "service_taps_" +
                     GetParam().name + ".json";
  std::filesystem::remove(base.profile_out);

  GetParam().drive(base);
  if (HasFatalFailure()) return;

  EXPECT_GT(metrics.counter("push_sent").value(), 0u);
  EXPECT_FALSE(profiler.snapshot().junctions.empty());
  EXPECT_FALSE(tracer.drain().empty());
  EXPECT_TRUE(std::filesystem::exists(base.profile_out));
  std::filesystem::remove(base.profile_out);
}

INSTANTIATE_TEST_SUITE_P(AllServices, ServiceTaps,
                         ::testing::ValuesIn(kTapCases),
                         [](const ::testing::TestParamInfo<TapCase>& info) {
                           return std::string(info.param.name);
                         });

// --- direct-C++ baselines (Table 2 control) -----------------------------------

TEST(Baselines, CheckpointedRedisMatchesDslBehavior) {
  baseline::CheckpointedRedis svc(0);
  EXPECT_TRUE(svc.request(set_cmd("a", "1")).found);
  ASSERT_TRUE(svc.checkpoint().ok());
  EXPECT_EQ(svc.checkpoints_taken(), 1u);
  (void)svc.request(set_cmd("b", "2"));
  ASSERT_TRUE(svc.crash_and_resume().ok());
  EXPECT_TRUE(svc.request(get_cmd("a")).found);
  EXPECT_FALSE(svc.request(get_cmd("b")).found);
}

TEST(Baselines, ShardedRedisRoutesAndAnswers) {
  baseline::ShardedRedis svc(4, 0);
  exercise_kv(svc);
  std::uint64_t total = 0;
  for (auto c : svc.shard_counts()) total += c;
  EXPECT_EQ(total, 41u);
}

TEST(Baselines, CachedRedisMemoizes) {
  baseline::CachedRedis svc(64, 0);
  ASSERT_TRUE(svc.request(set_cmd("x", "1")).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(svc.request(get_cmd("x")).ok());
  EXPECT_EQ(svc.hits(), 3u);
}

}  // namespace
}  // namespace csaw
