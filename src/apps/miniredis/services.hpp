// miniredis deployments behind C-Saw architectures.
//
// Each service wires one architecture pattern to the miniredis substrate and
// exposes the same request() interface, so benches and applications can swap
// architectures the way the paper swaps DSL expressions:
//
//   BaselineService      -- unmodified single store (the paper's "Baseline")
//   CheckpointedService  -- Fig 4 snapshot architecture checkpointing the
//                           keyspace to an auditor; supports crash + resume
//                           (the paper's Checkpointing / "Replication")
//   ShardedService       -- Fig 5 N-ary sharding by key hash (djb2),
//                           object-size class, or a custom chooser
//   CachedService        -- Fig 7 inline cache in front of the store
//   ReplicatedService    -- chain or quorum replication (patterns/chain,
//                           patterns/quorum) with per-table consistency
//                           knobs: eventual / read-your-writes (HLC token) /
//                           linearizable (epoch leader)
//   RebalancedService    -- dynamic membership + live bucket handoff
//                           (patterns/rebalance): fixed hash buckets routed
//                           by a versioned BucketMap, shards added at
//                           runtime, buckets streamed between owners while
//                           writes continue (kWrongOwner fencing + journaled
//                           handoff phases that survive crashes)
//
// Every service's Options derives from ServiceOptions (the push timeout and
// the observability taps, apps/service_options.hpp).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/miniredis/command.hpp"
#include "apps/miniredis/store.hpp"
#include "apps/service_options.hpp"
#include "compart/consistency.hpp"
#include "compart/membership.hpp"
#include "core/interp.hpp"
#include "obs/hlc.hpp"
#include "patterns/caching.hpp"
#include "patterns/chain.hpp"
#include "patterns/quorum.hpp"
#include "patterns/rebalance.hpp"
#include "patterns/sharding.hpp"
#include "patterns/snapshot.hpp"

namespace csaw::miniredis {

// Default per-command CPU cost (models Redis command processing).
constexpr std::uint64_t kDefaultOpCostNs = 900;

class Service {
 public:
  virtual ~Service() = default;
  virtual Result<Response> request(const Command& command) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

// --- unmodified ---------------------------------------------------------------

class BaselineService : public Service {
 public:
  explicit BaselineService(std::uint64_t op_cost_ns = kDefaultOpCostNs)
      : store_(op_cost_ns) {}

  Result<Response> request(const Command& command) override;
  [[nodiscard]] std::string name() const override { return "baseline"; }
  Store& store() { return store_; }

 private:
  Store store_;
};

// --- checkpointing (Fig 4 snapshot pattern) -------------------------------------

class CheckpointedService : public Service {
 public:
  struct Options : ServiceOptions {
    std::uint64_t op_cost_ns = kDefaultOpCostNs;
  };

  CheckpointedService() : CheckpointedService(make_default_options()) {}
  explicit CheckpointedService(Options options);

  Result<Response> request(const Command& command) override;
  [[nodiscard]] std::string name() const override { return "checkpointed"; }

  // Drives one snapshot of the whole keyspace through the architecture.
  Status checkpoint();
  // Requests a snapshot without waiting for it (overlaps serving traffic,
  // like the paper's interval checkpointer).
  Status checkpoint_async();
  // Crash the serving instance (its store is lost) and resume it from the
  // auditor's last checkpoint.
  Status crash_and_resume();

  [[nodiscard]] std::size_t checkpoints_taken() const;
  [[nodiscard]] std::size_t keyspace_size() const;
  // Bound /metrics port, or -1 when the HTTP endpoint is disabled.
  [[nodiscard]] int metrics_http_port() const;

 private:
  static Options make_default_options();
  struct ActState;
  struct AudState;
  std::shared_ptr<ActState> act_;
  std::shared_ptr<AudState> aud_;
  std::unique_ptr<Engine> engine_;
};

// --- sharding (Fig 5) ------------------------------------------------------------

class ShardedService : public Service {
 public:
  enum class Mode { kByKeyHash, kByObjectSize };

  struct Options : ServiceOptions {
    std::size_t shards = 4;
    Mode mode = Mode::kByKeyHash;
    std::uint64_t op_cost_ns = kDefaultOpCostNs;
    // Object-size class boundaries (inclusive upper bounds; last is +inf).
    std::vector<std::size_t> size_bounds = {4 * 1024, 16 * 1024, 64 * 1024};
  };

  ShardedService() : ShardedService(make_default_options()) {}
  explicit ShardedService(Options options);

  Result<Response> request(const Command& command) override;
  [[nodiscard]] std::string name() const override {
    return options_.mode == Mode::kByKeyHash ? "shard-key" : "shard-size";
  }

  static Options make_default_options();

  // Which shard index the service would route this key/value to.
  [[nodiscard]] std::size_t shard_of(const Command& command) const;
  // Per-shard processed-request counters.
  [[nodiscard]] std::vector<std::uint64_t> shard_counts() const;
  // Bound /metrics port, or -1 when the HTTP endpoint is disabled.
  [[nodiscard]] int metrics_http_port() const;

 private:
  struct FrontState;
  struct BackState;
  Options options_;
  std::shared_ptr<FrontState> front_;
  std::vector<std::shared_ptr<BackState>> backs_;
  std::unique_ptr<Engine> engine_;
};

// --- caching (Fig 7) --------------------------------------------------------------

class CachedService : public Service {
 public:
  struct Options : ServiceOptions {
    bool cache_enabled = true;  // false = same architecture, cache bypassed
    std::size_t cache_capacity = 4096;
    std::uint64_t op_cost_ns = kDefaultOpCostNs;
  };

  CachedService() : CachedService(make_default_options()) {}
  explicit CachedService(Options options);
  static Options make_default_options();

  Result<Response> request(const Command& command) override;
  [[nodiscard]] std::string name() const override {
    return options_.cache_enabled ? "cached" : "uncached";
  }

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  // Bound /metrics port, or -1 when the HTTP endpoint is disabled.
  [[nodiscard]] int metrics_http_port() const;

 private:
  struct CacheState;
  struct FunState;
  Options options_;
  std::shared_ptr<CacheState> cache_;
  std::shared_ptr<FunState> fun_;
  std::unique_ptr<Engine> engine_;
};

// --- replication (chain / quorum, ROADMAP item 3) ---------------------------------

// miniredis behind the chain or quorum replication pattern, with per-table
// consistency knobs (compart/consistency.hpp):
//
//   kEventual       -- reads served locally by any live replica.
//   kReadYourWrites -- each Session carries an HLC token per key it wrote
//                      (stamped by the acknowledged write); a replica serves
//                      the read only if its applied stamp for the key is
//                      at-or-after the token, else routing falls through to
//                      the epoch leader (head / leader replica), which holds
//                      every acknowledged write by construction.
//   kLinearizable   -- reads routed through the architecture and serialized
//                      with writes at the epoch leader (chain: full relay,
//                      response from the tail; quorum: leader read).
//
// Writes always traverse the architecture. Chain: a client ack means every
// live chain node applied the command (the per-hop ack cascades from the
// tail). Quorum: a client ack means at least `write_quorum` replicas
// applied it; reads with `read_quorum` > 1 fan out and merge by HLC
// last-writer-wins, repairing any replica that answered with a stale stamp.
//
// Failure handling is epoch-fenced control-plane reconfiguration: on a
// failed call the service consults the runtime's liveness view
// (`is_running`, fed by the failure detector in mesh deployments), bumps
// the service epoch, compiles the surviving replica set as a fresh
// incarnation of the pattern, rebinds the surviving replica states, and
// retries. Replica stores live outside the engine, so no acknowledged
// write is lost across incarnations.
class ReplicatedService : public Service {
 public:
  enum class Mode { kChain, kQuorum };

  // Client session: the read-your-writes token (per-key HLC stamps of the
  // session's acknowledged writes). Sessions may be shared across threads.
  class Session {
   public:
    // The session's token for `key` (invalid Hlc when it never wrote it).
    [[nodiscard]] obs::Hlc token(const std::string& key) const;

   private:
    friend class ReplicatedService;
    mutable std::mutex mu_;
    std::unordered_map<std::string, obs::Hlc> last_write_;
  };

  struct Options : ServiceOptions {
    Mode mode = Mode::kChain;
    std::size_t replicas = 3;
    // Quorum tuning (quorum mode). W is strict: writes fail (and are NOT
    // acknowledged) while fewer than `write_quorum` replicas are reachable.
    // R only applies to eventual reads; it is clamped to the live count.
    std::size_t write_quorum = 2;
    std::size_t read_quorum = 1;
    // Per-table read consistency default; overridable per request.
    Consistency consistency = Consistency::kEventual;
    std::uint64_t op_cost_ns = kDefaultOpCostNs;
  };

  ReplicatedService() : ReplicatedService(make_default_options()) {}
  explicit ReplicatedService(Options options);
  static Options make_default_options();

  // Table-default consistency, no session (kEventual/kLinearizable).
  Result<Response> request(const Command& command) override;
  // Session-scoped request (read-your-writes tokens), optionally overriding
  // the table's consistency level for this call.
  Result<Response> request(const Command& command, Session& session);
  Result<Response> request(const Command& command, Session* session,
                           std::optional<Consistency> consistency);

  [[nodiscard]] std::string name() const override {
    return options_.mode == Mode::kChain ? "chain" : "quorum";
  }

  // --- control plane -------------------------------------------------------
  // Crash replica `i` (0-based). Its store is lost; the next failed call
  // (or an explicit reconfigure()) excises it.
  Status crash_replica(std::size_t i);
  // Bump the epoch and compile the surviving replica set as a fresh
  // incarnation. No-op error when no replica survives.
  Status reconfigure();
  // Re-arm fan-out membership for replicas the runtime reports running
  // again (after a partition heals, quorum mode).
  void refresh_membership();
  // Service epoch (incarnation count; also the runtime's authority epoch).
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::size_t live_replicas() const;
  // Per-replica applied-command counters (index = original replica slot).
  [[nodiscard]] std::vector<std::uint64_t> replica_applied() const;
  // The underlying runtime (chaos-harness hookup in tests).
  Runtime& runtime();

 private:
  struct FrontState;
  struct RepState;
  struct Gather;

  void build_engine();
  Status reconfigure_locked(bool force);
  void merge_survivors(const std::vector<std::size_t>& live);
  Result<Response> through_architecture(const Command& command, bool is_read,
                                        std::vector<bool> members,
                                        std::size_t required, obs::Hlc stamp,
                                        bool require_leader);
  // Serves the read from a live replica's store when one qualifies (for
  // read-your-writes: its applied stamp covers the session token); nullopt
  // falls the caller through to the leader / chain read.
  std::optional<Response> local_read(const Command& command,
                                     const Session* session);
  [[nodiscard]] std::size_t leader_slot() const;  // lowest live original slot
  [[nodiscard]] std::size_t live_index_of(std::size_t slot) const;

  Options options_;
  mutable std::mutex mu_;  // serializes requests and reconfiguration
  std::uint64_t epoch_ = 0;
  std::size_t rr_ = 0;  // read round-robin cursor
  std::shared_ptr<FrontState> front_;
  std::vector<std::shared_ptr<RepState>> reps_;  // original slots, fixed
  std::vector<bool> alive_;                      // per original slot
  std::vector<std::size_t> live_slots_;          // instance order -> slot
  std::vector<std::string> rep_names_;           // instance order -> name
  std::shared_ptr<Gather> gather_;
  std::unique_ptr<Engine> engine_;
};

// --- rebalance (dynamic membership + live handoff, ROADMAP item 2) ----------------

// miniredis behind the rebalance pattern (patterns/rebalance): keys hash
// into a fixed set of buckets, a versioned BucketMap (compart/membership)
// assigns each bucket an owning shard, and shards can be added at runtime
// with buckets handed off *live* -- the donor keeps serving the bucket while
// the mover streams its contents, then ownership flips under an epoch bump.
//
// Fencing. Every shard re-checks ownership against the authority routing
// table inside H_shard; a request routed by a stale client view is refused
// with a kWrongOwner nack carrying the authority's routing version. The
// client (request()) adopts the newer table and retries under capped
// exponential backoff with jitter, which bounds the routing-error window to
// roughly one drain + one backoff step. Acked writes are never lost: a
// write is acknowledged only after it was applied by the shard that owns
// the bucket *under the version the flip published*, and the handoff drains
// in-flight requests (a short exclusive window) before flipping.
//
// Crash safety. Every handoff phase transition (prepare -> streaming ->
// draining -> flip) is journaled to `journal_dir` with write_file_atomic
// before it takes effect. Recovery (constructor or recover()) applies one
// rule: a journal short of the flip record aborts the handoff -- the
// receiver's partial bucket copy is purged so deleted keys cannot resurrect
// -- while a flip record re-applies the flip (idempotent install of the
// journaled map) and then clears the journal. The routing map itself is
// persisted at every install, so a restarted control plane resumes with
// the newest published ownership.
class RebalancedService : public Service {
 public:
  struct Options : ServiceOptions {
    std::size_t shards = 2;    // initial shard count
    std::size_t buckets = 16;  // fixed bucket count (never changes)
    std::uint64_t op_cost_ns = kDefaultOpCostNs;
    // kWrongOwner client retry policy: capped exponential backoff with
    // jitter in [backoff/2, backoff], doubling up to backoff_max.
    int max_retries = 10;
    std::chrono::nanoseconds backoff_initial = std::chrono::milliseconds(1);
    std::chrono::nanoseconds backoff_max = std::chrono::milliseconds(32);
    // Handoff streaming: keys per chunk, and how many delta rounds to chase
    // concurrent writers before draining.
    std::size_t chunk_keys = 64;
    int max_delta_rounds = 4;
    // Directory for the handoff journal + persisted routing map. Empty =
    // volatile (no files; crash recovery across process restarts disabled,
    // in-process aborts still work).
    std::string journal_dir;
  };

  RebalancedService() : RebalancedService(make_default_options()) {}
  explicit RebalancedService(Options options);
  static Options make_default_options();

  Result<Response> request(const Command& command) override;
  [[nodiscard]] std::string name() const override { return "rebalanced"; }

  // --- control plane -------------------------------------------------------
  // Membership join: adds one empty shard (it owns no buckets until a
  // handoff assigns it some) and recompiles the architecture around the
  // grown shard set. Requests are excluded only for the rebuild itself.
  Status add_shard();
  // One live bucket handoff: stream `bucket` from its current owner to
  // shard `to_shard`, then flip ownership under a bumped routing version.
  Status handoff(std::size_t bucket, std::size_t to_shard);
  // Handoffs until ownership is spread evenly over all current shards.
  Status rebalance();
  // Crash / restart shard `i`'s instance (its store survives -- it models
  // infrastructure outside the instance; a mid-handoff crash is what the
  // journal + abort rule are for).
  Status crash_shard(std::size_t i);
  Status restart_shard(std::size_t i);
  // Journal-driven recovery: abort an interrupted handoff (journal short of
  // the flip) or re-apply a journaled flip. The constructor runs this when
  // journal_dir holds a journal; tests call it after crash injections.
  Status recover();

  // --- introspection -------------------------------------------------------
  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] std::uint64_t routing_version() const;
  [[nodiscard]] std::vector<std::size_t> owned_buckets(std::size_t i) const;
  [[nodiscard]] std::uint64_t wrong_owner_nacks() const;
  [[nodiscard]] std::uint64_t client_retries() const;
  [[nodiscard]] std::uint64_t handoffs_completed() const;
  [[nodiscard]] std::uint64_t handoffs_aborted() const;
  // Client-observed routing-error windows, one per retry episode: first
  // kWrongOwner nack to the next successful response (bench p99 input).
  [[nodiscard]] std::vector<std::chrono::nanoseconds> routing_error_windows()
      const;
  // The underlying runtime (chaos-harness hookup in tests).
  Runtime& runtime();

 private:
  struct ControlBlock;
  struct FrontState;
  struct ShardState;
  struct MoverState;

  void build_engine_locked();
  Status handoff_locked(std::size_t bucket, std::size_t to_shard);
  Status stream_keys_locked(ShardState& donor, std::size_t to_shard,
                            std::size_t bucket,
                            const std::vector<std::string>& keys);
  void abort_handoff_locked(std::size_t bucket, std::size_t to_shard);
  Status journal_locked(std::uint8_t phase, std::size_t bucket,
                        std::size_t from, std::size_t to,
                        std::uint64_t version);
  void journal_clear_locked();
  void persist_routing_locked();
  Status recover_locked();
  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string shard_name(std::size_t i) const;
  [[nodiscard]] std::size_t shard_index(const std::string& name) const;
  void trace_handoff(const char* label, std::uint64_t value);

  Options options_;
  // Lock order: ctl_mu_ (control plane / handoff state machine) before
  // req_mu_ (request serialization + engine rebuild exclusion). request()
  // takes only req_mu_; handoff takes ctl_mu_ and acquires req_mu_ just for
  // the drain-and-flip window, so requests keep flowing while a bucket
  // streams.
  mutable std::mutex ctl_mu_;
  mutable std::mutex req_mu_;
  std::shared_ptr<ControlBlock> control_;
  std::shared_ptr<FrontState> front_;
  std::vector<std::shared_ptr<ShardState>> shards_;
  std::shared_ptr<MoverState> mover_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace csaw::miniredis
