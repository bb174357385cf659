// Dynamic membership + live bucket handoff (RebalancedService over
// patterns/rebalance): versioned bucket routing, kWrongOwner nack/retry
// with a bounded client-observed routing-error window, live handoff under
// concurrent writers, the crash matrix (donor down, receiver down,
// partition-then-heal), abort purge (no key resurrection), double-rebalance
// idempotence, journaled flips surviving restart, and the acceptance story:
// scale-out 2 -> 8 shards mid-workload with zero lost acknowledged writes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/miniredis/services.hpp"
#include "compart/membership.hpp"
#include "support/io.hpp"

namespace csaw {
namespace {

using namespace std::chrono_literals;
using miniredis::Command;
using miniredis::RebalancedService;

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

Command del_cmd(const std::string& k) {
  Command c;
  c.op = Command::Op::kDel;
  c.key = k;
  return c;
}

RebalancedService::Options fast_options(std::size_t shards = 2) {
  RebalancedService::Options o;
  o.shards = shards;
  o.buckets = 16;
  o.op_cost_ns = 0;
  o.timeout_ms = 500;  // fail fast when an owner is down
  o.max_retries = 12;
  o.backoff_initial = 200us;
  o.backoff_max = 5ms;
  return o;
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/csaw_rebalance_test_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p;
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path + "'";
    (void)std::system(cmd.c_str());
  }
};

// Seeds `n` keys and returns them grouped by bucket (the same djb2-mod the
// router uses), so tests can pick a populated bucket to move.
std::unordered_map<std::size_t, std::vector<std::string>> seed_keys(
    RebalancedService& svc, int n, std::size_t buckets,
    const std::string& prefix = "k") {
  std::unordered_map<std::size_t, std::vector<std::string>> by_bucket;
  for (int i = 0; i < n; ++i) {
    const std::string key = prefix + std::to_string(i);
    auto r = svc.request(set_cmd(key, "v" + std::to_string(i)));
    EXPECT_TRUE(r.ok()) << r.error().to_string();
    by_bucket[BucketMap::bucket_of(key, buckets)].push_back(key);
  }
  return by_bucket;
}

void expect_all_readable(RebalancedService& svc, int n,
                         const std::string& prefix = "k") {
  for (int i = 0; i < n; ++i) {
    auto r = svc.request(get_cmd(prefix + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r->found) << prefix << i;
    EXPECT_EQ(r->value, "v" + std::to_string(i));
  }
}

// First bucket owned by shard `i` that holds at least one seeded key.
std::size_t populated_bucket_of(
    RebalancedService& svc, std::size_t i,
    const std::unordered_map<std::size_t, std::vector<std::string>>& keys) {
  for (std::size_t b : svc.owned_buckets(i)) {
    auto it = keys.find(b);
    if (it != keys.end() && !it->second.empty()) return b;
  }
  ADD_FAILURE() << "shard " << i << " owns no populated bucket";
  return 0;
}

// --- membership primitives -------------------------------------------------

TEST(BucketMapUnit, EvenSpreadIsBalancedAndTotal) {
  const std::vector<std::string> owners = {"Shd1", "Shd2", "Shd3"};
  const auto m = BucketMap::even(7, owners, 16);
  EXPECT_EQ(m.version, 7u);
  ASSERT_EQ(m.buckets(), 16u);
  std::unordered_map<std::string, int> per_owner;
  for (const auto& o : m.owners) per_owner[o]++;
  ASSERT_EQ(per_owner.size(), owners.size());
  for (const auto& [o, n] : per_owner) {
    EXPECT_GE(n, 5) << o;  // 16 over 3: 6/5/5
    EXPECT_LE(n, 6) << o;
  }
  // Every key routes somewhere, deterministically.
  for (int i = 0; i < 64; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::size_t b = m.bucket_of(key);
    EXPECT_LT(b, 16u);
    EXPECT_EQ(b, BucketMap::bucket_of(key, 16));
    EXPECT_EQ(m.owner_of(key), m.owners[b]);
  }
  // buckets_of partitions the bucket space.
  std::size_t total = 0;
  for (const auto& o : owners) total += m.buckets_of(o).size();
  EXPECT_EQ(total, 16u);
}

TEST(BucketMapUnit, CodecRoundTripsAndRejectsGarbage) {
  const auto m = BucketMap::even(42, {"a", "b"}, 8);
  auto decoded = BucketMap::decode(m.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->version, 42u);
  EXPECT_EQ(decoded->owners, m.owners);
  EXPECT_FALSE(BucketMap::decode(Bytes{0xde, 0xad, 0xbe, 0xef}).ok());
}

TEST(RoutingTableUnit, AdoptsOnlyStrictlyNewerMaps) {
  RoutingTable rt(BucketMap::even(3, {"a", "b"}, 4));
  EXPECT_EQ(rt.version(), 3u);
  // Stale and same-version maps are fenced out...
  EXPECT_FALSE(rt.adopt(BucketMap::even(2, {"c"}, 4)));
  EXPECT_FALSE(rt.adopt(BucketMap::even(3, {"c"}, 4)));
  EXPECT_EQ(rt.owner_of_bucket(0), "a");
  // ...a newer one is adopted, and install is the authority's override.
  EXPECT_TRUE(rt.adopt(BucketMap::even(4, {"c"}, 4)));
  EXPECT_EQ(rt.owner_of_bucket(0), "c");
  rt.install(BucketMap::even(9, {"d"}, 4));
  EXPECT_EQ(rt.version(), 9u);
}

// --- serving and live handoff ----------------------------------------------

TEST(Rebalance, ServesAcrossShardsAndRoutesEveryBucket) {
  RebalancedService svc(fast_options());
  EXPECT_EQ(svc.name(), "rebalanced");
  EXPECT_EQ(svc.shard_count(), 2u);
  EXPECT_GE(svc.routing_version(), 1u);
  seed_keys(svc, 32, 16);
  expect_all_readable(svc, 32);
  auto miss = svc.request(get_cmd("absent"));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->found);
  ASSERT_TRUE(svc.request(del_cmd("k3")).ok());
  auto gone = svc.request(get_cmd("k3"));
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->found);
  // Ownership partitions the full bucket space between the two shards.
  EXPECT_EQ(svc.owned_buckets(0).size() + svc.owned_buckets(1).size(), 16u);
}

TEST(Rebalance, HandoffMovesBucketAndBoundsTheRoutingErrorWindow) {
  RebalancedService svc(fast_options());
  const auto keys = seed_keys(svc, 64, 16);
  const std::size_t bucket = populated_bucket_of(svc, 0, keys);
  const std::uint64_t v0 = svc.routing_version();

  ASSERT_TRUE(svc.handoff(bucket, 1).ok());
  EXPECT_EQ(svc.handoffs_completed(), 1u);
  EXPECT_EQ(svc.handoffs_aborted(), 0u);
  EXPECT_GT(svc.routing_version(), v0);

  // The moved bucket now belongs to shard 1 (and to it alone).
  const auto owned = svc.owned_buckets(1);
  EXPECT_NE(std::find(owned.begin(), owned.end(), bucket), owned.end());

  // Every key is still readable -- including the moved ones, whose first
  // read after the flip hits the stale client view, gets the kWrongOwner
  // nack with the new routing version, and retries against the refreshed
  // table. That retry episode is the routing-error window.
  expect_all_readable(svc, 64);
  EXPECT_GE(svc.wrong_owner_nacks(), 1u);
  EXPECT_GE(svc.client_retries(), 1u);
  const auto windows = svc.routing_error_windows();
  ASSERT_FALSE(windows.empty());
  for (const auto w : windows) {
    EXPECT_GT(w, Nanos(0));
    EXPECT_LT(w, Nanos(2s)) << "routing-error window unbounded";
  }
}

TEST(Rebalance, ConcurrentWritesDuringHandoffAreNeverLost) {
  auto opts = fast_options();
  opts.chunk_keys = 1;  // many chunks => a long streaming phase to race
  RebalancedService svc(opts);
  const auto keys = seed_keys(svc, 128, 16);
  const std::size_t bucket = populated_bucket_of(svc, 0, keys);

  // A writer hammers counters at keys inside the moving bucket (so every
  // write lands in the delta log or the drain tail) while the handoff
  // streams. `acked[key]` is the last value whose response we saw.
  std::atomic<bool> stop{false};
  std::mutex acked_mu;
  std::unordered_map<std::string, int> acked;
  const auto& bucket_keys = keys.at(bucket);
  std::thread writer([&] {
    int n = 0;
    while (!stop.load()) {
      const std::string& key = bucket_keys[n % bucket_keys.size()];
      ++n;
      if (svc.request(set_cmd(key, "c" + std::to_string(n))).ok()) {
        std::scoped_lock lock(acked_mu);
        acked[key] = n;
      }
    }
  });

  // Start the handoff once the writer has its first ack (10 s at most): a
  // handoff can finish before a freshly started thread sends a request,
  // and then nothing raced it.
  const auto writer_up = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < writer_up) {
    {
      std::scoped_lock lock(acked_mu);
      if (!acked.empty()) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(svc.handoff(bucket, 1).ok());
  stop.store(true);
  writer.join();

  // No acked write may be lost: each key reads back at least its last
  // acked counter (a later in-doubt write may have applied -- at-least-once
  // is fine, regression is not).
  std::scoped_lock lock(acked_mu);
  EXPECT_FALSE(acked.empty()) << "writer never got a single ack";
  for (const auto& [key, n] : acked) {
    auto r = svc.request(get_cmd(key));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_TRUE(r->found) << key << " lost after handoff";
    ASSERT_EQ(r->value.rfind("c", 0), 0u);
    EXPECT_GE(std::atoi(r->value.c_str() + 1), n)
        << key << " regressed past its acked write";
  }
}

// --- the crash matrix ------------------------------------------------------

TEST(Rebalance, DonorCrashAbortsHandoffAndRetryAfterRestartSucceeds) {
  RebalancedService svc(fast_options());
  const auto keys = seed_keys(svc, 64, 16);
  const std::size_t bucket = populated_bucket_of(svc, 0, keys);
  const std::uint64_t v0 = svc.routing_version();

  ASSERT_TRUE(svc.crash_shard(0).ok());
  auto st = svc.handoff(bucket, 1);
  EXPECT_FALSE(st.ok());
  EXPECT_GE(svc.handoffs_aborted(), 1u);
  // Ownership never flipped: the bucket still routes to the (dead) donor.
  EXPECT_EQ(svc.routing_version(), v0);

  ASSERT_TRUE(svc.restart_shard(0).ok());
  ASSERT_TRUE(svc.handoff(bucket, 1).ok());
  EXPECT_GT(svc.routing_version(), v0);
  expect_all_readable(svc, 64);
}

TEST(Rebalance, ReceiverCrashAbortsHandoffWithoutFlippingOwnership) {
  RebalancedService svc(fast_options());
  const auto keys = seed_keys(svc, 64, 16);
  const std::size_t bucket = populated_bucket_of(svc, 0, keys);
  const std::uint64_t v0 = svc.routing_version();

  ASSERT_TRUE(svc.crash_shard(1).ok());
  EXPECT_FALSE(svc.handoff(bucket, 1).ok());
  EXPECT_GE(svc.handoffs_aborted(), 1u);
  EXPECT_EQ(svc.routing_version(), v0);
  EXPECT_EQ(svc.handoffs_completed(), 0u);

  ASSERT_TRUE(svc.restart_shard(1).ok());
  ASSERT_TRUE(svc.handoff(bucket, 1).ok());
  expect_all_readable(svc, 64);
}

TEST(Rebalance, MidStreamReceiverCrashNeverResurrectsDeletedKeys) {
  // A receiver crash after some chunks already shipped leaves a partial
  // bucket copy behind; the abort must purge it, or a key deleted at the
  // donor before the retry would come back from the dead.
  auto opts = fast_options();
  opts.chunk_keys = 1;  // hundreds of chunks => the crash lands mid-stream
  RebalancedService svc(opts);
  const auto keys = seed_keys(svc, 600, 16);
  const std::size_t bucket = populated_bucket_of(svc, 0, keys);
  const auto& bucket_keys = keys.at(bucket);
  ASSERT_GE(bucket_keys.size(), 8u);

  std::thread killer([&] {
    std::this_thread::sleep_for(3ms);
    (void)svc.crash_shard(1);
  });
  auto st = svc.handoff(bucket, 1);
  killer.join();
  ASSERT_TRUE(svc.restart_shard(1).ok());

  if (st.ok()) {
    // The crash landed after the flip; nothing mid-stream to verify, the
    // handoff is simply done and the data intact.
    expect_all_readable(svc, 600);
    return;
  }
  EXPECT_GE(svc.handoffs_aborted(), 1u);

  // Delete a spread of the bucket's keys at the donor (still the owner),
  // then retry the handoff. If the purge on abort were missing, the
  // receiver's partial copy would resurrect whichever of them had already
  // shipped before the crash.
  std::vector<std::string> deleted;
  for (std::size_t i = 0; i < bucket_keys.size(); i += 2) {
    deleted.push_back(bucket_keys[i]);
    ASSERT_TRUE(svc.request(del_cmd(bucket_keys[i])).ok());
  }
  ASSERT_TRUE(svc.handoff(bucket, 1).ok());
  for (const auto& key : deleted) {
    auto r = svc.request(get_cmd(key));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_FALSE(r->found) << key << " resurrected by the aborted stream";
  }
  // The surviving keys made the trip.
  for (std::size_t i = 1; i < bucket_keys.size(); i += 2) {
    auto r = svc.request(get_cmd(bucket_keys[i]));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found) << bucket_keys[i];
  }
}

TEST(Rebalance, PartitionAbortsHandoffAndHealedRetrySucceeds) {
  RebalancedService svc(fast_options());
  const auto keys = seed_keys(svc, 64, 16);
  const std::size_t bucket = populated_bucket_of(svc, 0, keys);
  const std::uint64_t v0 = svc.routing_version();

  // Cut the mover off from the receiver: chunks cannot be acknowledged, so
  // the handoff must abort rather than flip ownership over unshipped data.
  svc.runtime().router().set_partition(Symbol("Mov"), Symbol("Shd2"), true);
  EXPECT_FALSE(svc.handoff(bucket, 1).ok());
  EXPECT_GE(svc.handoffs_aborted(), 1u);
  EXPECT_EQ(svc.routing_version(), v0);

  svc.runtime().router().set_partition(Symbol("Mov"), Symbol("Shd2"), false);
  ASSERT_TRUE(svc.handoff(bucket, 1).ok());
  EXPECT_GT(svc.routing_version(), v0);
  expect_all_readable(svc, 64);
}

TEST(Rebalance, DoubleRebalanceIsIdempotent) {
  RebalancedService svc(fast_options());
  seed_keys(svc, 64, 16);
  ASSERT_TRUE(svc.add_shard().ok());
  ASSERT_TRUE(svc.add_shard().ok());
  EXPECT_EQ(svc.shard_count(), 4u);

  ASSERT_TRUE(svc.rebalance().ok());
  const std::uint64_t v = svc.routing_version();
  const std::uint64_t done = svc.handoffs_completed();
  EXPECT_GT(done, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(svc.owned_buckets(i).size(), 4u) << "shard " << i;
  }

  // Already balanced: a second rebalance is a pure no-op -- no handoffs, no
  // version churn, no data movement.
  ASSERT_TRUE(svc.rebalance().ok());
  EXPECT_EQ(svc.routing_version(), v);
  EXPECT_EQ(svc.handoffs_completed(), done);
  expect_all_readable(svc, 64);
}

// --- the acceptance story: scale-out mid-workload --------------------------

TEST(Rebalance, ScaleOutTwoToEightMidWorkloadLosesNoAckedWrite) {
  RebalancedService svc(fast_options());
  seed_keys(svc, 64, 16);

  // Four writers with disjoint key spaces push monotone counters while the
  // control plane grows the cluster 2 -> 8 and rebalances after each join.
  // Each writer records the last counter that was ACKNOWLEDGED per key.
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::mutex acked_mu;
  std::unordered_map<std::string, int> acked;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      int n = 0;
      while (!stop.load()) {
        ++n;
        const std::string key =
            "w" + std::to_string(w) + "-k" + std::to_string(n % 32);
        if (svc.request(set_cmd(key, "c" + std::to_string(n))).ok()) {
          std::scoped_lock lock(acked_mu);
          acked[key] = n;
        }
      }
    });
  }

  for (int join = 0; join < 6; ++join) {
    ASSERT_TRUE(svc.add_shard().ok());
    ASSERT_TRUE(svc.rebalance().ok()) << "rebalance after join " << join;
    std::this_thread::sleep_for(2ms);  // let the workload breathe mid-grow
  }
  stop.store(true);
  for (auto& t : writers) t.join();

  EXPECT_EQ(svc.shard_count(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(svc.owned_buckets(i).size(), 2u) << "shard " << i;
  }

  // Zero lost acked writes: every acknowledged key reads back at least its
  // last acked counter.
  std::scoped_lock lock(acked_mu);
  EXPECT_FALSE(acked.empty());
  for (const auto& [key, n] : acked) {
    auto r = svc.request(get_cmd(key));
    ASSERT_TRUE(r.ok()) << key << ": " << r.error().to_string();
    ASSERT_TRUE(r->found) << key << " lost during scale-out";
    EXPECT_GE(std::atoi(r->value.c_str() + 1), n) << key << " regressed";
  }

  // The routing-error window stayed bounded for every retry episode the
  // writers hit across six ownership flips.
  const auto windows = svc.routing_error_windows();
  for (const auto w : windows) {
    EXPECT_LT(w, Nanos(2s)) << "routing-error window unbounded";
  }
  expect_all_readable(svc, 64);  // the seeded keys all survived too
}

// --- journaled recovery across restart -------------------------------------

TEST(Rebalance, JournaledFlipAndMembershipSurviveRestart) {
  TempDir dir;
  std::uint64_t version = 0;
  std::size_t moved_bucket = 0;
  {
    auto opts = fast_options();
    opts.journal_dir = dir.path;
    RebalancedService svc(opts);
    const auto keys = seed_keys(svc, 32, 16);
    ASSERT_TRUE(svc.add_shard().ok());
    moved_bucket = populated_bucket_of(svc, 0, keys);
    ASSERT_TRUE(svc.handoff(moved_bucket, 2).ok());
    version = svc.routing_version();
  }
  // A new incarnation over the same journal dir restores the persisted
  // routing map: same version, same owner for the moved bucket, and the
  // membership grown to cover every owner the map names (the third shard
  // exists even though Options still says two).
  auto opts = fast_options();
  opts.journal_dir = dir.path;
  RebalancedService svc(opts);
  EXPECT_EQ(svc.shard_count(), 3u);
  EXPECT_EQ(svc.routing_version(), version);
  const auto owned = svc.owned_buckets(2);
  EXPECT_NE(std::find(owned.begin(), owned.end(), moved_bucket), owned.end());
  // The restored shard serves its bucket (stores are volatile; routing and
  // membership are what persist).
  const std::string key = "restart-probe";
  ASSERT_TRUE(svc.request(set_cmd(key, "v")).ok());
  auto r = svc.request(get_cmd(key));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r->found);
}

}  // namespace
}  // namespace csaw
