// RebalancedService: miniredis behind patterns/rebalance -- dynamic
// membership (shards added at runtime) with live bucket handoff. See the
// class comment in services.hpp for the fencing and crash-safety story;
// this file is the host side of the pattern plus the handoff state machine.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/miniredis/services.hpp"
#include "core/builder.hpp"
#include "core/compile.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"

namespace csaw::miniredis {
namespace {

constexpr auto kCallDeadline = std::chrono::seconds(10);
constexpr const char* kShardPrefix = "Shd";  // matches RebalanceOptions

// Handoff journal phases, in commit order. Anything short of kFlip aborts
// on recovery; kFlip re-applies (the flip record is written *before* the
// routing install, so a crash between the two redoes an idempotent install).
constexpr std::uint8_t kPhasePrepare = 1;
constexpr std::uint8_t kPhaseStreaming = 2;
constexpr std::uint8_t kPhaseDraining = 3;
constexpr std::uint8_t kPhaseFlip = 4;

Response apply(Store& store, const Command& c) {
  switch (c.op) {
    case Command::Op::kGet: {
      auto v = store.get(c.key);
      return Response{v.has_value(), v.value_or("")};
    }
    case Command::Op::kSet:
      store.set(c.key, c.value);
      return Response{true, ""};
    case Command::Op::kDel:
      return Response{store.del(c.key), ""};
  }
  return Response{};
}

}  // namespace

// --- wire payloads -----------------------------------------------------------------

// A routed request carries the client's routing version so the stale-route
// fence is visible on the wire (the shard nacks against its own authority
// view regardless; the version documents what the client believed).
struct RebPayload {
  Command cmd;
  std::uint64_t routing_version = 0;
};
template <typename Ar>
void serdes_fields(Ar& ar, RebPayload& p) {
  ar.field(p.cmd);
  ar.field(p.routing_version);
}

// Shard reply: either the response, or a kWrongOwner nack carrying the
// authority's routing version (the client refreshes and retries).
struct RebReply {
  bool wrong_owner = false;
  std::uint64_t routing_version = 0;
  Response resp;
};
template <typename Ar>
void serdes_fields(Ar& ar, RebReply& r) {
  ar.field(r.wrong_owner);
  ar.field(r.routing_version);
  ar.field(r.resp);
}

// One handoff chunk: absolute key states (value or tombstone), so re-sending
// after a crash is idempotent by construction.
struct ChunkEntry {
  std::string key;
  bool found = false;
  std::string value;
};
template <typename Ar>
void serdes_fields(Ar& ar, ChunkEntry& e) {
  ar.field(e.key);
  ar.field(e.found);
  ar.field(e.value);
}

struct ChunkPayload {
  std::uint64_t bucket = 0;
  std::vector<ChunkEntry> entries;
};
template <typename Ar>
void serdes_fields(Ar& ar, ChunkPayload& c) {
  ar.field(c.bucket);
  ar.field(c.entries);
}

// The journaled handoff record (one per handoff, rewritten atomically at
// each phase transition).
struct HandoffRecord {
  std::uint8_t phase = 0;
  std::uint64_t bucket = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t version = 0;
};
template <typename Ar>
void serdes_fields(Ar& ar, HandoffRecord& r) {
  ar.field(r.phase);
  ar.field(r.bucket);
  ar.field(r.from);
  ar.field(r.to);
  ar.field(r.version);
}

// --- shared state ------------------------------------------------------------------

// State shared by the request path (every H_shard run), the client retry
// loop, and the handoff control plane.
struct RebalancedService::ControlBlock {
  // The authority table: what the control plane has published. Shards fence
  // against this; flips install into it.
  RoutingTable authority;
  // The client view: what request() routes by. Deliberately NOT updated at
  // flips -- it catches up through the kWrongOwner nack path, which is what
  // makes the routing-error window real and measurable.
  RoutingTable client;

  // In-flight handoff (at most one; ctl_mu_ serializes the control plane).
  std::atomic<std::int64_t> moving_bucket{-1};
  std::atomic<std::int64_t> moving_from{-1};
  // Drain flag: the donor nacks requests for the moving bucket while set.
  std::atomic<bool> blocked{false};
  // Keys of the moving bucket written at the donor since the last delta
  // sweep (the WAL-tail analogue the mover streams after the snapshot).
  std::mutex delta_mu;
  std::unordered_set<std::string> delta;

  std::atomic<std::uint64_t> chunks_ingested{0};
  std::atomic<std::uint64_t> wrong_owner{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> aborted{0};

  std::mutex window_mu;
  std::vector<std::chrono::nanoseconds> windows;

  obs::Counter* m_wrong_owner = nullptr;
  obs::Counter* m_retries = nullptr;
  obs::Counter* m_completed = nullptr;
  obs::Counter* m_aborted = nullptr;
  obs::Counter* m_chunks = nullptr;
};

struct RebalancedService::FrontState {
  Mailbox<RebPayload> requests;
  Mailbox<RebReply> responses;
  RebPayload current;
  std::size_t buckets = 0;
  std::shared_ptr<ControlBlock> control;
  Rng rng{0x9e3779b97f4a7c15ULL};  // retry jitter; only touched under req_mu_
};

struct RebalancedService::ShardState {
  ShardState(std::size_t slot_in, std::string name_in, std::uint64_t cost,
             std::shared_ptr<ControlBlock> control_in)
      : slot(slot_in), name(std::move(name_in)), store(cost),
        control(std::move(control_in)) {}
  const std::size_t slot;
  const std::string name;
  std::mutex mu;  // guards store + bucket_keys
  Store store;
  // bucket -> keys living there. The Store has no enumeration API, so the
  // shard maintains the per-bucket index itself; it is what the handoff
  // snapshots and what an abort purges.
  std::unordered_map<std::size_t, std::unordered_set<std::string>> bucket_keys;
  RebPayload current;
  RebReply reply;
  std::atomic<std::uint64_t> processed{0};
  std::shared_ptr<ControlBlock> control;
};

struct RebalancedService::MoverState {
  struct Job {
    ChunkPayload chunk;
    std::int64_t target = 0;  // receiver shard index (its ingest junction)
  };
  Mailbox<Job> jobs;
  Job current;
};

// --- construction ------------------------------------------------------------------

RebalancedService::Options RebalancedService::make_default_options() {
  return Options{};
}

std::string RebalancedService::shard_name(std::size_t i) const {
  return kShardPrefix + std::to_string(i + 1);
}

std::size_t RebalancedService::shard_index(const std::string& name) const {
  const std::size_t prefix = std::string(kShardPrefix).size();
  if (name.size() <= prefix) return 0;
  return static_cast<std::size_t>(std::stoull(name.substr(prefix))) - 1;
}

RebalancedService::RebalancedService(Options options)
    : options_(std::move(options)) {
  CSAW_CHECK(options_.shards >= 1) << "rebalanced: need at least one shard";
  CSAW_CHECK(options_.buckets >= 1) << "rebalanced: need at least one bucket";
  control_ = std::make_shared<ControlBlock>();
  if (options_.metrics != nullptr) {
    control_->m_wrong_owner = &options_.metrics->counter("routing_wrong_owner");
    control_->m_retries = &options_.metrics->counter("routing_retries");
    control_->m_completed = &options_.metrics->counter("rebalance_completed");
    control_->m_aborted = &options_.metrics->counter("rebalance_aborts");
    control_->m_chunks = &options_.metrics->counter("rebalance_chunks");
  }
  front_ = std::make_shared<FrontState>();
  front_->buckets = options_.buckets;
  front_->control = control_;
  mover_ = std::make_shared<MoverState>();
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_shared<ShardState>(
        i, shard_name(i), options_.op_cost_ns, control_));
  }

  std::scoped_lock c(ctl_mu_);
  std::scoped_lock r(req_mu_);
  // Initial routing: the persisted map when one exists (membership and
  // ownership survive a control-plane restart), else an even spread.
  BucketMap initial;
  bool restored = false;
  if (!options_.journal_dir.empty()) {
    (void)io::ensure_dir(options_.journal_dir);
    if (auto data = io::read_file(options_.journal_dir + "/routing.map");
        data.ok()) {
      if (auto m = BucketMap::decode(*data); m.ok()) {
        initial = *std::move(m);
        restored = true;
      }
    }
  }
  if (restored) {
    // The persisted map implies membership: grow the shard set to cover
    // every owner it names.
    for (const auto& owner : initial.owners) {
      const std::size_t idx = shard_index(owner);
      while (shards_.size() <= idx) {
        shards_.push_back(std::make_shared<ShardState>(
            shards_.size(), shard_name(shards_.size()), options_.op_cost_ns,
            control_));
      }
    }
  } else {
    std::vector<std::string> names;
    names.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i)
      names.push_back(shard_name(i));
    initial = BucketMap::even(1, names, options_.buckets);
  }
  control_->authority.install(initial);
  control_->client.install(std::move(initial));
  build_engine_locked();
  if (!options_.journal_dir.empty()) {
    persist_routing_locked();
    (void)recover_locked();
  }
}

void RebalancedService::build_engine_locked() {
  patterns::RebalanceOptions popts;
  popts.shards = shards_.size();
  popts.timeout_ms = options_.timeout_ms;

  const std::size_t buckets = options_.buckets;
  HostBindings b;
  b.block("complain", [](HostCtx&) { return Status::ok_status(); });
  b.block("Route", [buckets](HostCtx& ctx) -> Status {
    auto& st = ctx.state<FrontState>();
    auto req = st.requests.pop(Deadline::after(std::chrono::seconds(5)));
    if (!req) return make_error(Errc::kHostFailure, "no request");
    st.current = std::move(*req);
    const std::size_t bucket =
        BucketMap::bucket_of(st.current.cmd.key, buckets);
    const std::string owner = st.control->client.owner_of_bucket(bucket);
    // "Shd<k>" -> engine instance index k-1; a map never names a shard the
    // current engine does not have (flips only target existing shards).
    std::int64_t idx = 0;
    const std::size_t prefix = std::string(kShardPrefix).size();
    if (owner.size() > prefix) {
      idx = static_cast<std::int64_t>(std::stoull(owner.substr(prefix))) - 1;
    }
    return ctx.set_idx("tgt", idx);
  });
  b.saver("pack_request", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.RebPayload", ctx.state<FrontState>().current);
  });
  b.restorer("unpack_request",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto req = unpack<RebPayload>("miniredis.RebPayload", sv);
               if (!req) return req.error();
               ctx.state<ShardState>().current = *std::move(req);
               return Status::ok_status();
             });
  b.block("H_shard", [buckets](HostCtx& ctx) -> Status {
    auto& st = ctx.state<ShardState>();
    auto& ctl = *st.control;
    const Command& cmd = st.current.cmd;
    const std::size_t bucket = BucketMap::bucket_of(cmd.key, buckets);
    const std::string owner = ctl.authority.owner_of_bucket(bucket);
    const bool draining =
        ctl.blocked.load() &&
        ctl.moving_bucket.load() == static_cast<std::int64_t>(bucket);
    if (owner != st.name || draining) {
      // The stale-route fence (or the drain window): refuse, tell the
      // client the authority's version so it can catch up.
      st.reply = RebReply{true, ctl.authority.version(), Response{}};
      ctl.wrong_owner.fetch_add(1);
      if (ctl.m_wrong_owner != nullptr) ctl.m_wrong_owner->add();
      ctx.trace(Symbol("routing_wrong_owner"), bucket);
      return Status::ok_status();
    }
    Response resp;
    {
      std::scoped_lock lock(st.mu);
      resp = apply(st.store, cmd);
      if (cmd.op == Command::Op::kSet) {
        st.bucket_keys[bucket].insert(cmd.key);
      } else if (cmd.op == Command::Op::kDel) {
        if (auto it = st.bucket_keys.find(bucket);
            it != st.bucket_keys.end()) {
          it->second.erase(cmd.key);
        }
      }
      // Delta capture: a write to the bucket being streamed away from this
      // shard must reach the receiver before the flip.
      if (cmd.op != Command::Op::kGet &&
          ctl.moving_bucket.load() == static_cast<std::int64_t>(bucket) &&
          ctl.moving_from.load() == static_cast<std::int64_t>(st.slot)) {
        std::scoped_lock d(ctl.delta_mu);
        ctl.delta.insert(cmd.key);
      }
    }
    st.processed.fetch_add(1);
    st.reply = RebReply{false, st.current.routing_version, std::move(resp)};
    return Status::ok_status();
  });
  b.saver("pack_response", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.RebReply", ctx.state<ShardState>().reply);
  });
  b.restorer("deliver_response",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto reply = unpack<RebReply>("miniredis.RebReply", sv);
               if (!reply) return reply.error();
               ctx.state<FrontState>().responses.push(*std::move(reply));
               return Status::ok_status();
             });
  b.block("NextChunk", [](HostCtx& ctx) -> Status {
    auto& st = ctx.state<MoverState>();
    auto job = st.jobs.pop(Deadline::after(std::chrono::seconds(5)));
    if (!job) return make_error(Errc::kHostFailure, "no pending chunk");
    st.current = std::move(*job);
    return ctx.set_idx("tgt", st.current.target);
  });
  b.saver("pack_chunk", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.RebChunk", ctx.state<MoverState>().current.chunk);
  });
  b.restorer("ingest_chunk",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto chunk = unpack<ChunkPayload>("miniredis.RebChunk", sv);
               if (!chunk) return chunk.error();
               auto& st = ctx.state<ShardState>();
               {
                 std::scoped_lock lock(st.mu);
                 auto& keys =
                     st.bucket_keys[static_cast<std::size_t>(chunk->bucket)];
                 for (const auto& e : chunk->entries) {
                   if (e.found) {
                     st.store.set(e.key, e.value);
                     keys.insert(e.key);
                   } else {
                     (void)st.store.del(e.key);
                     keys.erase(e.key);
                   }
                 }
               }
               st.control->chunks_ingested.fetch_add(1);
               if (st.control->m_chunks != nullptr) st.control->m_chunks->add();
               ctx.trace(Symbol("rebalance_chunk_ingested"),
                         chunk->entries.size());
               return Status::ok_status();
             });

  auto compiled = compile(patterns::rebalance(popts));
  CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
  engine_ = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                     options_.engine_options());
  engine_->set_state(Symbol(popts.front_instance), front_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    engine_->set_state(Symbol(shard_name(i)), shards_[i]);
  }
  engine_->set_state(Symbol(popts.mover_instance), mover_);
  auto st = engine_->run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
  // Fence the fresh runtime's epoch to the routing version: future flips
  // must publish versions newer than anything this map has seen.
  auto& rt = engine_->runtime();
  while (rt.epoch() < control_->authority.version()) rt.bump_epoch();
}

// --- request path ------------------------------------------------------------------

Result<Response> RebalancedService::request(const Command& command) {
  bool nacked = false;
  SteadyTime first_nack{};
  auto backoff = options_.backoff_initial;
  for (int attempt = 0;; ++attempt) {
    // req_mu_ is held per ATTEMPT, never across the backoff sleep: a nacked
    // client waiting out a drain-window nack must release the lock so the
    // handoff's drain-and-flip (which acquires req_mu_ as its barrier) can
    // actually complete -- holding it through the sleep would stall the very
    // flip the retry is waiting for until the client exhausts its retries.
    std::unique_lock lock(req_mu_);
    front_->requests.push(RebPayload{command, control_->client.version()});
    CSAW_TRY(engine_->call("Fnt", "j", Deadline::after(kCallDeadline)));
    // deliver_response runs inside the junction body, so by the time the
    // call returned the response (if any) is already in the mailbox; a
    // short pop distinguishes "complained" from "answered".
    auto reply = front_->responses.pop(
        Deadline::after(std::chrono::milliseconds(options_.timeout_ms)));
    if (!reply) {
      return make_error(Errc::kUnreachable,
                        "no response from shard (owner unreachable)");
    }
    if (!reply->wrong_owner) {
      if (nacked) {
        std::scoped_lock w(control_->window_mu);
        control_->windows.push_back(std::chrono::duration_cast<Nanos>(
            steady_now() - first_nack));
      }
      return reply->resp;
    }
    control_->retries.fetch_add(1);
    if (control_->m_retries != nullptr) control_->m_retries->add();
    if (!nacked) {
      nacked = true;
      first_nack = steady_now();
    }
    if (attempt >= options_.max_retries) {
      return make_error(Errc::kUnreachable,
                        "routing did not converge (wrong owner after max "
                        "retries)");
    }
    // Refresh the client view from the authority when the nack says it is
    // newer (adopt-if-newer; a drain-window nack carries the same version
    // and the adopt is a no-op), then back off with jitter.
    if (reply->routing_version > control_->client.version()) {
      (void)control_->client.adopt(control_->authority.snapshot());
    }
    // Draw the jitter while still holding req_mu_ (the shared RNG is
    // guarded by it), but sleep outside the lock -- see the comment at the
    // top of the loop.
    const auto half = backoff / 2;
    const Nanos jitter{static_cast<std::int64_t>(front_->rng.below(
        static_cast<std::uint64_t>(half.count()) + 1))};
    lock.unlock();
    std::this_thread::sleep_for(half + jitter);
    backoff = std::min<Nanos>(backoff * 2, options_.backoff_max);
  }
}

// --- handoff control plane ---------------------------------------------------------

std::string RebalancedService::journal_path() const {
  return options_.journal_dir + "/handoff.rec";
}

Status RebalancedService::journal_locked(std::uint8_t phase,
                                         std::size_t bucket, std::size_t from,
                                         std::size_t to,
                                         std::uint64_t version) {
  if (options_.journal_dir.empty()) return Status::ok_status();
  HandoffRecord rec{phase, bucket, from, to, version};
  const SerializedValue sv = pack("miniredis.HandoffRecord", rec);
  return io::write_file_atomic(journal_path(), sv.bytes.data(),
                               sv.bytes.size());
}

void RebalancedService::journal_clear_locked() {
  if (options_.journal_dir.empty()) return;
  (void)io::remove_file(journal_path());
}

void RebalancedService::persist_routing_locked() {
  if (options_.journal_dir.empty()) return;
  const Bytes bytes = control_->authority.snapshot().encode();
  (void)io::write_file_atomic(options_.journal_dir + "/routing.map",
                              bytes.data(), bytes.size());
}

void RebalancedService::trace_handoff(const char* label, std::uint64_t value) {
  if (options_.trace_sink == nullptr || engine_ == nullptr) return;
  obs::TraceEvent ev;
  ev.kind = obs::TraceEvent::Kind::kCustom;
  ev.at = steady_now();
  ev.label = Symbol(label);
  ev.value_ns = value;
  ev.hlc = engine_->runtime().hlc().tick();
  options_.trace_sink->record(ev);
}

Status RebalancedService::stream_keys_locked(
    ShardState& donor, std::size_t to_shard, std::size_t bucket,
    const std::vector<std::string>& keys) {
  auto& rt = engine_->runtime();
  for (std::size_t off = 0; off < keys.size(); off += options_.chunk_keys) {
    // A dead endpoint aborts the handoff (the journal + abort rule make
    // that safe); the mover would otherwise burn its full otherwise[t]
    // timeout per chunk learning the same thing.
    if (!rt.is_running(Symbol(donor.name))) {
      return make_error(Errc::kUnreachable, "donor crashed mid-handoff");
    }
    if (!rt.is_running(Symbol(shard_name(to_shard)))) {
      return make_error(Errc::kUnreachable, "receiver crashed mid-handoff");
    }
    MoverState::Job job;
    job.target = static_cast<std::int64_t>(to_shard);
    job.chunk.bucket = bucket;
    const std::size_t end = std::min(keys.size(), off + options_.chunk_keys);
    {
      std::scoped_lock lock(donor.mu);
      for (std::size_t i = off; i < end; ++i) {
        auto v = donor.store.get(keys[i]);
        job.chunk.entries.push_back(
            ChunkEntry{keys[i], v.has_value(), v.value_or("")});
      }
    }
    // Acknowledgement-as-evidence: the chunk counts as transferred only
    // when the receiver's ingest ran (it retracted the mover's Inbound and
    // bumped chunks_ingested); a completed mover call with no ingest ack
    // means the complain path fired.
    const std::uint64_t before = control_->chunks_ingested.load();
    mover_->jobs.push(std::move(job));
    CSAW_TRY(engine_->call("Mov", "m", Deadline::after(kCallDeadline)));
    if (control_->chunks_ingested.load() < before + 1) {
      return make_error(Errc::kUnreachable,
                        "handoff chunk not acknowledged by receiver");
    }
  }
  return Status::ok_status();
}

void RebalancedService::abort_handoff_locked(std::size_t bucket,
                                             std::size_t to_shard) {
  // Purge the receiver's partial copy of the bucket. Without this a later
  // retry could resurrect a key that was deleted at the donor after the
  // aborted stream shipped it.
  if (to_shard < shards_.size()) {
    ShardState& recv = *shards_[to_shard];
    std::scoped_lock lock(recv.mu);
    if (auto it = recv.bucket_keys.find(bucket);
        it != recv.bucket_keys.end()) {
      for (const auto& key : it->second) (void)recv.store.del(key);
      recv.bucket_keys.erase(it);
    }
  }
  {
    std::scoped_lock d(control_->delta_mu);
    control_->delta.clear();
  }
  control_->blocked.store(false);
  control_->moving_bucket.store(-1);
  control_->moving_from.store(-1);
  journal_clear_locked();
  control_->aborted.fetch_add(1);
  if (control_->m_aborted != nullptr) control_->m_aborted->add();
  trace_handoff("rebalance_abort", bucket);
}

Status RebalancedService::handoff(std::size_t bucket, std::size_t to_shard) {
  std::scoped_lock lock(ctl_mu_);
  return handoff_locked(bucket, to_shard);
}

Status RebalancedService::handoff_locked(std::size_t bucket,
                                         std::size_t to_shard) {
  if (bucket >= options_.buckets) {
    return make_error(Errc::kUndefinedName, "no such bucket");
  }
  if (to_shard >= shards_.size()) {
    return make_error(Errc::kUndefinedName, "no such shard");
  }
  const std::string to_name = shard_name(to_shard);
  const std::string from_name = control_->authority.owner_of_bucket(bucket);
  if (from_name == to_name) return Status::ok_status();
  const std::size_t from = shard_index(from_name);
  CSAW_CHECK(from < shards_.size()) << "routing names unknown shard";
  ShardState& donor = *shards_[from];

  // Phase 1: prepare. Journal first, then open the delta capture -- from
  // here every donor write to the bucket is recorded for the tail rounds.
  CSAW_TRY(journal_locked(kPhasePrepare, bucket, from, to_shard,
                          control_->authority.version()));
  trace_handoff("rebalance_prepare", bucket);
  {
    std::scoped_lock d(control_->delta_mu);
    control_->delta.clear();
  }
  control_->moving_from.store(static_cast<std::int64_t>(from));
  control_->moving_bucket.store(static_cast<std::int64_t>(bucket));

  // Phase 2: streaming. Full bucket snapshot, then delta rounds chasing
  // concurrent writers; requests keep flowing the whole time.
  Status st = journal_locked(kPhaseStreaming, bucket, from, to_shard,
                             control_->authority.version());
  if (st.ok()) {
    trace_handoff("rebalance_streaming", bucket);
    std::vector<std::string> keys;
    {
      std::scoped_lock lock(donor.mu);
      if (auto it = donor.bucket_keys.find(bucket);
          it != donor.bucket_keys.end()) {
        keys.assign(it->second.begin(), it->second.end());
      }
    }
    st = stream_keys_locked(donor, to_shard, bucket, keys);
    for (int round = 0; st.ok() && round < options_.max_delta_rounds;
         ++round) {
      std::vector<std::string> delta;
      {
        std::scoped_lock d(control_->delta_mu);
        delta.assign(control_->delta.begin(), control_->delta.end());
        control_->delta.clear();
      }
      if (delta.empty()) break;
      st = stream_keys_locked(donor, to_shard, bucket, delta);
    }
  }

  // Phase 3+4: drain, then flip. req_mu_ is the drain barrier: once held,
  // no request is mid-flight, so the final delta sweep is complete -- an
  // acked write is either in the receiver already or in this last batch.
  if (st.ok()) {
    st = journal_locked(kPhaseDraining, bucket, from, to_shard,
                        control_->authority.version());
  }
  if (st.ok()) {
    trace_handoff("rebalance_draining", bucket);
    control_->blocked.store(true);
    std::scoped_lock rq(req_mu_);
    std::vector<std::string> tail;
    {
      std::scoped_lock d(control_->delta_mu);
      tail.assign(control_->delta.begin(), control_->delta.end());
      control_->delta.clear();
    }
    if (!tail.empty()) st = stream_keys_locked(donor, to_shard, bucket, tail);
    if (st.ok()) {
      // Version = a freshly bumped authority epoch: stale-map fencing and
      // stale-writer fencing share one ordering.
      const std::uint64_t version =
          std::max(engine_->runtime().bump_epoch(),
                   control_->authority.version() + 1);
      st = journal_locked(kPhaseFlip, bucket, from, to_shard, version);
      if (st.ok()) {
        BucketMap next = control_->authority.snapshot();
        next.version = version;
        next.owners[bucket] = to_name;
        control_->authority.install(std::move(next));
        persist_routing_locked();
        // Donor hygiene: the bucket's keys moved; drop the stale copy so
        // it cannot be served by mistake and memory is reclaimed.
        {
          std::scoped_lock lock(donor.mu);
          if (auto it = donor.bucket_keys.find(bucket);
              it != donor.bucket_keys.end()) {
            for (const auto& key : it->second) (void)donor.store.del(key);
            donor.bucket_keys.erase(it);
          }
        }
        journal_clear_locked();
      }
    }
    control_->blocked.store(false);
    control_->moving_bucket.store(-1);
    control_->moving_from.store(-1);
  }
  if (!st.ok()) {
    abort_handoff_locked(bucket, to_shard);
    return st;
  }
  control_->completed.fetch_add(1);
  if (control_->m_completed != nullptr) control_->m_completed->add();
  trace_handoff("rebalance_flip", bucket);
  return Status::ok_status();
}

Status RebalancedService::add_shard() {
  std::scoped_lock c(ctl_mu_);
  std::scoped_lock r(req_mu_);
  const std::size_t slot = shards_.size();
  shards_.push_back(std::make_shared<ShardState>(
      slot, shard_name(slot), options_.op_cost_ns, control_));
  // Recompile around the grown shard set. The routing map is untouched:
  // the new shard owns nothing until a handoff assigns it buckets.
  engine_.reset();
  build_engine_locked();
  trace_handoff("rebalance_add_shard", slot);
  return Status::ok_status();
}

Status RebalancedService::rebalance() {
  std::scoped_lock lock(ctl_mu_);
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    names.push_back(shard_name(i));
  const BucketMap target = BucketMap::even(0, names, options_.buckets);
  for (std::size_t bucket = 0; bucket < options_.buckets; ++bucket) {
    const std::string& want = target.owners[bucket];
    if (control_->authority.owner_of_bucket(bucket) == want) continue;
    CSAW_TRY(handoff_locked(bucket, shard_index(want)));
  }
  return Status::ok_status();
}

Status RebalancedService::crash_shard(std::size_t i) {
  std::scoped_lock lock(ctl_mu_);
  if (i >= shards_.size()) {
    return make_error(Errc::kUndefinedName, "no such shard");
  }
  engine_->crash(shard_name(i));
  return Status::ok_status();
}

Status RebalancedService::restart_shard(std::size_t i) {
  std::scoped_lock lock(ctl_mu_);
  if (i >= shards_.size()) {
    return make_error(Errc::kUndefinedName, "no such shard");
  }
  const std::string name = shard_name(i);
  if (engine_->runtime().is_running(Symbol(name))) {
    return Status::ok_status();
  }
  return engine_->start_instance(name);
}

Status RebalancedService::recover() {
  std::scoped_lock lock(ctl_mu_);
  return recover_locked();
}

Status RebalancedService::recover_locked() {
  if (options_.journal_dir.empty()) return Status::ok_status();
  auto data = io::read_file(journal_path());
  if (!data.ok()) return Status::ok_status();  // no journal, nothing pending
  SerializedValue sv{Symbol("miniredis.HandoffRecord"), *std::move(data)};
  auto rec = unpack<HandoffRecord>("miniredis.HandoffRecord", sv);
  if (!rec.ok()) {
    // A corrupt journal cannot be resumed; treat it as an interrupted
    // handoff with unknown receiver -- nothing flipped, so dropping the
    // journal alone is safe (no acked write depends on it).
    trace_handoff("rebalance_journal_corrupt", 0);
    journal_clear_locked();
    return Status::ok_status();
  }
  const std::size_t bucket = static_cast<std::size_t>(rec->bucket);
  const std::size_t to_shard = static_cast<std::size_t>(rec->to);
  if (rec->phase < kPhaseFlip) {
    // Short of the flip record: ownership never changed, so the receiver's
    // partial copy is the only artifact -- abort and purge it.
    abort_handoff_locked(bucket, to_shard);
    return Status::ok_status();
  }
  // Flip was journaled: the handoff is committed. Re-apply the install
  // (idempotent -- adopt only if the persisted map is older) and clear.
  BucketMap m = control_->authority.snapshot();
  if (m.version < rec->version && bucket < m.owners.size() &&
      to_shard < shards_.size()) {
    m.version = rec->version;
    m.owners[bucket] = shard_name(to_shard);
    control_->authority.install(std::move(m));
    persist_routing_locked();
    auto& rt = engine_->runtime();
    while (rt.epoch() < rec->version) rt.bump_epoch();
  }
  control_->blocked.store(false);
  control_->moving_bucket.store(-1);
  control_->moving_from.store(-1);
  journal_clear_locked();
  control_->completed.fetch_add(1);
  trace_handoff("rebalance_recovered_flip", bucket);
  return Status::ok_status();
}

// --- introspection -----------------------------------------------------------------

std::size_t RebalancedService::shard_count() const {
  std::scoped_lock lock(ctl_mu_);
  return shards_.size();
}

std::uint64_t RebalancedService::routing_version() const {
  return control_->authority.version();
}

std::vector<std::size_t> RebalancedService::owned_buckets(
    std::size_t i) const {
  return control_->authority.snapshot().buckets_of(shard_name(i));
}

std::uint64_t RebalancedService::wrong_owner_nacks() const {
  return control_->wrong_owner.load();
}

std::uint64_t RebalancedService::client_retries() const {
  return control_->retries.load();
}

std::uint64_t RebalancedService::handoffs_completed() const {
  return control_->completed.load();
}

std::uint64_t RebalancedService::handoffs_aborted() const {
  return control_->aborted.load();
}

std::vector<std::chrono::nanoseconds>
RebalancedService::routing_error_windows() const {
  std::scoped_lock lock(control_->window_mu);
  return control_->windows;
}

Runtime& RebalancedService::runtime() { return engine_->runtime(); }

}  // namespace csaw::miniredis
