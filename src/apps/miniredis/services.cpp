#include "apps/miniredis/services.hpp"

#include <bit>
#include <deque>

#include "core/builder.hpp"
#include "core/compile.hpp"
#include "support/rng.hpp"

namespace csaw::miniredis {
namespace {

constexpr auto kCallDeadline = std::chrono::seconds(10);

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

// --- BaselineService ------------------------------------------------------------

Result<Response> BaselineService::request(const Command& command) {
  return apply(store_, command);
}

CheckpointedService::Options CheckpointedService::make_default_options() {
  return Options{};
}
ShardedService::Options ShardedService::make_default_options() {
  return Options{};
}
CachedService::Options CachedService::make_default_options() {
  return Options{};
}

// --- CheckpointedService ----------------------------------------------------------
// LOC-COUNT-BEGIN(glue_checkpoint)

struct CheckpointedService::ActState {
  explicit ActState(std::uint64_t cost) : store(cost) {}
  std::mutex mu;  // the single-threaded server: queries block on checkpoints
  Store store;
};

struct CheckpointedService::AudState {
  std::mutex mu;
  Bytes last;
  std::size_t count = 0;
};

CheckpointedService::CheckpointedService(Options options) {
  patterns::SnapshotOptions popts;
  popts.timeout_ms = options.timeout_ms;
  aud_ = std::make_shared<AudState>();

  HostBindings b;
  b.block("complain", [](HostCtx&) { return Status::ok_status(); });
  b.block("H1", [](HostCtx&) { return Status::ok_status(); });
  b.block("H2", [](HostCtx&) { return Status::ok_status(); });
  b.saver("capture_state", [](HostCtx& ctx) -> Result<SerializedValue> {
    auto& act = ctx.state<ActState>();
    std::scoped_lock lock(act.mu);
    return SerializedValue{Symbol("store.image"), act.store.snapshot()};
  });
  b.restorer("ingest_state",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto& aud = ctx.state<AudState>();
               std::scoped_lock lock(aud.mu);
               aud.last = sv.bytes;
               ++aud.count;
               return Status::ok_status();
             });

  auto compiled = compile(patterns::remote_snapshot(popts));
  CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
  engine_ = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                     options.engine_options());
  const auto cost = options.op_cost_ns;
  engine_->set_state_factory(Symbol("Act"), [this, cost] {
    act_ = std::make_shared<ActState>(cost);
    return std::static_pointer_cast<void>(act_);
  });
  engine_->set_state(Symbol("Aud"), aud_);
  auto st = engine_->run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
}

Result<Response> CheckpointedService::request(const Command& command) {
  auto act = act_;
  std::scoped_lock lock(act->mu);
  return apply(act->store, command);
}

Status CheckpointedService::checkpoint() {
  return engine_->call("Act", "j", Deadline::after(kCallDeadline));
}

Status CheckpointedService::checkpoint_async() {
  return engine_->schedule("Act", "j");
}

Status CheckpointedService::crash_and_resume() {
  engine_->crash("Act");
  CSAW_TRY(engine_->start_instance("Act"));  // fresh, empty store
  Bytes image;
  {
    std::scoped_lock lock(aud_->mu);
    image = aud_->last;
  }
  if (image.empty()) return Status::ok_status();  // nothing checkpointed yet
  auto act = act_;
  std::scoped_lock lock(act->mu);
  return act->store.restore(image);
}

int CheckpointedService::metrics_http_port() const {
  return engine_->runtime().metrics_http_port();
}

std::size_t CheckpointedService::checkpoints_taken() const {
  std::scoped_lock lock(aud_->mu);
  return aud_->count;
}

std::size_t CheckpointedService::keyspace_size() const {
  auto act = act_;
  std::scoped_lock lock(act->mu);
  return act->store.size();
}

// LOC-COUNT-END(glue_checkpoint)

// --- ShardedService ----------------------------------------------------------------
// LOC-COUNT-BEGIN(glue_sharding)

struct ShardedService::FrontState {
  Mailbox<Command> requests;
  Mailbox<Response> responses;
  Command current;
  // Size-aware routing keeps a key -> size-class table at the router
  // (S5.2's "custom table that maps keys to object sizes").
  std::mutex mu;
  std::unordered_map<std::string, std::size_t> size_class;
  const ShardedService* owner = nullptr;
};

struct ShardedService::BackState {
  explicit BackState(std::uint64_t cost) : store(cost) {}
  Store store;
  Command current;
  Response response;
  std::atomic<std::uint64_t> processed{0};
};

ShardedService::ShardedService(Options options) : options_(std::move(options)) {
  patterns::ShardingOptions popts;
  popts.backends = options_.shards;
  popts.timeout_ms = options_.timeout_ms;

  front_ = std::make_shared<FrontState>();
  front_->owner = this;

  HostBindings b;
  b.block("complain", [](HostCtx&) { return Status::ok_status(); });
  b.block("Choose", [](HostCtx& ctx) -> Status {
    auto& st = ctx.state<FrontState>();
    auto cmd = st.requests.pop(Deadline::after(std::chrono::seconds(5)));
    if (!cmd) return make_error(Errc::kHostFailure, "no request");
    st.current = std::move(*cmd);
    return ctx.set_idx("tgt", static_cast<std::int64_t>(
                                  st.owner->shard_of(st.current)));
  });
  b.saver("pack_request", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.Command", ctx.state<FrontState>().current);
  });
  b.restorer("unpack_request",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto cmd = unpack<Command>("miniredis.Command", sv);
               if (!cmd) return cmd.error();
               ctx.state<BackState>().current = std::move(*cmd);
               return Status::ok_status();
             });
  b.block("H_back", [](HostCtx& ctx) {
    auto& st = ctx.state<BackState>();
    st.response = apply(st.store, st.current);
    st.processed.fetch_add(1);
    return Status::ok_status();
  });
  b.saver("pack_response", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.Response", ctx.state<BackState>().response);
  });
  b.restorer("deliver_response",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto resp = unpack<Response>("miniredis.Response", sv);
               if (!resp) return resp.error();
               ctx.state<FrontState>().responses.push(std::move(*resp));
               return Status::ok_status();
             });

  auto compiled = compile(patterns::sharding(popts));
  CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
  engine_ = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                     options_.engine_options());
  engine_->set_state(Symbol(popts.front_instance), front_);
  for (const auto& name : patterns::shard_backend_names(popts)) {
    backs_.push_back(std::make_shared<BackState>(options_.op_cost_ns));
    engine_->set_state(Symbol(name), backs_.back());
  }
  auto st = engine_->run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
}

std::size_t ShardedService::shard_of(const Command& command) const {
  if (options_.mode == Mode::kByKeyHash) {
    return djb2(command.key) % options_.shards;
  }
  // Object-size classes; SETs are classified by their value size and the
  // class is remembered so GET/DEL route to the same shard.
  std::scoped_lock lock(front_->mu);
  if (command.op == Command::Op::kSet) {
    std::size_t cls = 0;
    while (cls < options_.size_bounds.size() &&
           command.value.size() > options_.size_bounds[cls]) {
      ++cls;
    }
    cls = std::min(cls, options_.shards - 1);
    front_->size_class[command.key] = cls;
    return cls;
  }
  auto it = front_->size_class.find(command.key);
  return it == front_->size_class.end() ? 0 : it->second;
}

Result<Response> ShardedService::request(const Command& command) {
  front_->requests.push(command);
  CSAW_TRY(engine_->call("Fnt", "j", Deadline::after(kCallDeadline)));
  auto resp = front_->responses.pop(Deadline::after(kCallDeadline));
  if (!resp) return make_error(Errc::kTimeout, "no response from shard");
  return *resp;
}

int ShardedService::metrics_http_port() const {
  return engine_->runtime().metrics_http_port();
}

std::vector<std::uint64_t> ShardedService::shard_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(backs_.size());
  for (const auto& back : backs_) out.push_back(back->processed.load());
  return out;
}

// LOC-COUNT-END(glue_sharding)

// --- CachedService ------------------------------------------------------------------
// LOC-COUNT-BEGIN(glue_caching)

struct CachedService::CacheState {
  Mailbox<Command> requests;
  Mailbox<Response> responses;
  Command current;
  Response result;
  // FIFO-bounded memo table; policy is host-side per S7.2.
  std::unordered_map<std::string, std::string> cache;
  std::deque<std::string> fifo;
  std::size_t capacity = 4096;
  bool enabled = true;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

struct CachedService::FunState {
  explicit FunState(std::uint64_t cost) : store(cost) {}
  Store store;
  Command current;
  Response response;
};

CachedService::CachedService(Options options) : options_(std::move(options)) {
  patterns::CachingOptions popts;
  popts.timeout_ms = options_.timeout_ms;

  cache_ = std::make_shared<CacheState>();
  cache_->capacity = options_.cache_capacity;
  cache_->enabled = options_.cache_enabled;
  fun_ = std::make_shared<FunState>(options_.op_cost_ns);

  HostBindings b;
  b.block("complain", [](HostCtx&) { return Status::ok_status(); });
  b.block("CheckCacheable", [](HostCtx& ctx) -> Status {
    auto& st = ctx.state<CacheState>();
    auto cmd = st.requests.pop(Deadline::after(std::chrono::seconds(5)));
    if (!cmd) return make_error(Errc::kHostFailure, "no request");
    st.current = std::move(*cmd);
    const bool cacheable =
        st.enabled && st.current.op == Command::Op::kGet;
    if (st.current.op != Command::Op::kGet) {
      // Writes invalidate (the cache fronts a mutable store).
      st.cache.erase(st.current.key);
    }
    return ctx.set_prop("Cacheable", cacheable);
  });
  b.block("LookupCache", [](HostCtx& ctx) -> Status {
    auto& st = ctx.state<CacheState>();
    auto it = st.cache.find(st.current.key);
    if (it != st.cache.end()) {
      st.result = Response{true, it->second};
      st.responses.push(st.result);
      st.hits.fetch_add(1);
      return ctx.set_prop("Cached", true);
    }
    st.misses.fetch_add(1);
    return ctx.set_prop("Cached", false);
  });
  b.block("UpdateCache", [](HostCtx& ctx) {
    auto& st = ctx.state<CacheState>();
    if (!st.result.found) return Status::ok_status();
    if (st.cache.size() >= st.capacity && !st.fifo.empty()) {
      st.cache.erase(st.fifo.front());
      st.fifo.pop_front();
    }
    if (st.cache.emplace(st.current.key, st.result.value).second) {
      st.fifo.push_back(st.current.key);
    }
    return Status::ok_status();
  });
  b.saver("pack_request", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.Command", ctx.state<CacheState>().current);
  });
  b.restorer("unpack_request",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto cmd = unpack<Command>("miniredis.Command", sv);
               if (!cmd) return cmd.error();
               ctx.state<FunState>().current = std::move(*cmd);
               return Status::ok_status();
             });
  b.block("F", [](HostCtx& ctx) {
    auto& st = ctx.state<FunState>();
    st.response = apply(st.store, st.current);
    return Status::ok_status();
  });
  b.saver("pack_response", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.Response", ctx.state<FunState>().response);
  });
  b.restorer("deliver_response",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto resp = unpack<Response>("miniredis.Response", sv);
               if (!resp) return resp.error();
               auto& st = ctx.state<CacheState>();
               st.result = *resp;
               st.responses.push(std::move(*resp));
               return Status::ok_status();
             });

  auto compiled = compile(patterns::caching(popts));
  CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
  engine_ = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                     options_.engine_options());
  engine_->set_state(Symbol("Cache"), cache_);
  engine_->set_state(Symbol("Fun"), fun_);
  auto st = engine_->run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
}

Result<Response> CachedService::request(const Command& command) {
  cache_->requests.push(command);
  CSAW_TRY(engine_->call("Cache", "j", Deadline::after(kCallDeadline)));
  auto resp = cache_->responses.pop(Deadline::after(kCallDeadline));
  if (!resp) return make_error(Errc::kTimeout, "no response");
  return *resp;
}

int CachedService::metrics_http_port() const {
  return engine_->runtime().metrics_http_port();
}

std::uint64_t CachedService::hits() const { return cache_->hits.load(); }
std::uint64_t CachedService::misses() const { return cache_->misses.load(); }
// LOC-COUNT-END(glue_caching)

// --- ReplicatedService --------------------------------------------------------------
// LOC-COUNT-BEGIN(glue_replication)

// The datum relayed through the replication patterns: the client command plus
// the service-stamped HLC (last-writer-wins ordering across replicas and
// repair writes) and the read flag (reads traverse the same relay/fan but
// must not mutate).
struct ReplPayload {
  Command cmd;
  std::uint64_t hlc_packed = 0;
  bool is_read = false;
};

template <typename Ar>
void serdes_fields(Ar& ar, ReplPayload& p) {
  ar.field(p.cmd);
  ar.field(p.hlc_packed);
  ar.field(p.is_read);
}

// Shared per-request scoreboard. Requests are serialized by the service
// mutex, so one board suffices: replica host blocks push read rows / write
// ack bits, the service merges rows by HLC last-writer-wins after the call.
struct ReplicatedService::Gather {
  struct Row {
    std::size_t slot = 0;  // original replica slot
    bool found = false;
    std::string value;
    std::uint64_t stamp = 0;  // packed applied HLC for the key (0 = never)
  };
  std::mutex mu;
  std::vector<Row> rows;
  std::uint64_t ack_mask = 0;     // write acks, one bit per original slot
  std::uint64_t leader_mask = 0;  // leader's slot bit when its ack is required
};

// One replica's durable half: the store and its per-key applied stamps live
// here, OUTSIDE the engine, so they survive reconfiguration (a fresh
// incarnation rebinds the same RepState) and an acknowledged write is never
// lost with the incarnation that carried it.
struct ReplicatedService::RepState {
  RepState(std::size_t slot, std::uint64_t cost, std::shared_ptr<Gather> g)
      : slot(slot), gather(std::move(g)), store(cost) {}
  const std::size_t slot;
  std::shared_ptr<Gather> gather;
  std::mutex mu;  // store/stamps: host blocks vs. control plane and local reads
  Store store;
  std::unordered_map<std::string, obs::Hlc> stamps;  // per-key applied stamp
  obs::Hlc watermark;  // newest stamp ever applied here
  std::atomic<std::uint64_t> applied{0};
  ReplPayload current;  // only touched by this replica's own junction runs
  bool is_tail = false;  // chain: the tail answers (head-write/tail-read)
};

struct ReplicatedService::FrontState {
  Mailbox<ReplPayload> requests;
  ReplPayload current;
  std::shared_ptr<Gather> gather;
  // Per-request fan-out plan, written by the service before the push and read
  // by the same call's host blocks (the mailbox handoff orders the two).
  std::vector<bool> members;  // quorum: tgt subset of the incarnation's Reps
  std::size_t required = 1;   // quorum: acks needed (W writes / R reads)
  std::atomic<std::size_t> acks{0};
};

ReplicatedService::Options ReplicatedService::make_default_options() {
  return Options{};
}

ReplicatedService::ReplicatedService(Options options)
    : options_(std::move(options)) {
  CSAW_CHECK(options_.replicas >= 1 && options_.replicas <= 64)
      << "replicas must be in [1, 64]";
  gather_ = std::make_shared<Gather>();
  front_ = std::make_shared<FrontState>();
  front_->gather = gather_;
  alive_.assign(options_.replicas, true);
  for (std::size_t s = 0; s < options_.replicas; ++s) {
    reps_.push_back(std::make_shared<RepState>(s, options_.op_cost_ns, gather_));
  }
  build_engine();
}

void ReplicatedService::build_engine() {
  live_slots_.clear();
  for (std::size_t s = 0; s < reps_.size(); ++s) {
    if (alive_[s]) live_slots_.push_back(s);
  }
  CSAW_CHECK(!live_slots_.empty());
  const bool chain_mode = options_.mode == Mode::kChain;

  HostBindings b;
  b.saver("pack_request", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("miniredis.ReplPayload", ctx.state<FrontState>().current);
  });
  b.restorer("unpack_request",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto p = unpack<ReplPayload>("miniredis.ReplPayload", sv);
               if (!p) return p.error();
               ctx.state<RepState>().current = std::move(*p);
               return Status::ok_status();
             });
  // A failed fan-out/relay surfaces as a host failure so the engine call --
  // and with it the client request -- is NOT acknowledged.
  b.block("complain", [](HostCtx&) -> Status {
    return make_error(Errc::kHostFailure, "replication fan-out failed");
  });

  // The replica-side apply, shared by chain (H_apply, every node) and quorum
  // (H_replica, each fanned-to replica). Writes apply last-writer-wins by
  // HLC: an at-or-after stamp applies and advances the key's stamp, an older
  // one (a repair racing a newer client write) is dropped.
  auto replica_apply = [chain_mode](HostCtx& ctx) -> Status {
    auto& st = ctx.state<RepState>();
    std::scoped_lock lock(st.mu);
    const ReplPayload& p = st.current;
    const obs::Hlc h = obs::Hlc::from_packed(p.hlc_packed);
    if (p.is_read) {
      // Chain answers reads at the tail only (the node every acknowledged
      // write has provably reached); quorum records every responder so the
      // service can LWW-merge and repair stale ones.
      if (!chain_mode || st.is_tail) {
        auto it = st.stamps.find(p.cmd.key);
        auto v = st.store.get(p.cmd.key);
        std::scoped_lock g(st.gather->mu);
        st.gather->rows.push_back(
            {st.slot, v.has_value(), v.value_or(""),
             it == st.stamps.end() ? 0 : it->second.packed()});
      }
      return Status::ok_status();
    }
    auto& stamp = st.stamps[p.cmd.key];
    Response resp{true, ""};
    if (h >= stamp) {
      resp = apply(st.store, p.cmd);
      stamp = h;
      if (h > st.watermark) st.watermark = h;
    }
    st.applied.fetch_add(1);
    std::scoped_lock g(st.gather->mu);
    if (chain_mode) {
      // The tail's row is the write's response (carries DEL's found flag).
      if (st.is_tail) {
        st.gather->rows.push_back({st.slot, resp.found, resp.value, h.packed()});
      }
    } else {
      st.gather->ack_mask |= (1ull << st.slot);
    }
    return Status::ok_status();
  };

  if (chain_mode) {
    b.block("Ingest", [](HostCtx& ctx) -> Status {
      auto& st = ctx.state<FrontState>();
      auto p = st.requests.pop(Deadline::after(std::chrono::seconds(5)));
      if (!p) return make_error(Errc::kHostFailure, "no request");
      st.current = std::move(*p);
      return Status::ok_status();
    });
    b.block("H_apply", replica_apply);
  } else {
    b.block("ChooseSet", [](HostCtx& ctx) -> Status {
      auto& st = ctx.state<FrontState>();
      auto p = st.requests.pop(Deadline::after(std::chrono::seconds(5)));
      if (!p) return make_error(Errc::kHostFailure, "no request");
      st.current = std::move(*p);
      st.acks.store(0);
      return ctx.set_subset("tgt", st.members);
    });
    // One ack = one replica's synced Work[b] retraction made it back in time
    // (its transactional hop committed). HaveQuorum needs `required` acks
    // AND -- for writes -- the leader's, so the leader provably holds every
    // acknowledged write and linearizable reads can be served as R={leader}.
    b.block("CountAck", [](HostCtx& ctx) -> Status {
      auto& st = ctx.state<FrontState>();
      const std::size_t acks = st.acks.fetch_add(1) + 1;
      bool leader_pending;
      {
        std::scoped_lock g(st.gather->mu);
        leader_pending = st.gather->leader_mask != 0 &&
                         (st.gather->ack_mask & st.gather->leader_mask) == 0;
      }
      if (acks >= st.required && !leader_pending) {
        return ctx.set_prop("HaveQuorum", true);
      }
      return Status::ok_status();
    });
    b.block("H_replica", replica_apply);
  }

  if (chain_mode) {
    patterns::ChainOptions popts;
    popts.replicas = live_slots_.size();
    popts.timeout_ms = options_.timeout_ms;
    rep_names_ = patterns::chain_replica_names(popts);
    auto compiled = compile(patterns::chain(popts));
    CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
    engine_ = std::make_unique<Engine>(
        std::move(compiled).value(), std::move(b), options_.engine_options());
  } else {
    patterns::QuorumOptions popts;
    popts.replicas = live_slots_.size();
    popts.timeout_ms = options_.timeout_ms;
    rep_names_ = patterns::quorum_replica_names(popts);
    auto compiled = compile(patterns::quorum(popts));
    CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
    engine_ = std::make_unique<Engine>(
        std::move(compiled).value(), std::move(b), options_.engine_options());
  }

  engine_->set_state(Symbol("Fnt"), front_);
  for (std::size_t i = 0; i < rep_names_.size(); ++i) {
    auto& rep = reps_[live_slots_[i]];
    rep->is_tail = (i + 1 == rep_names_.size());
    engine_->set_state(Symbol(rep_names_[i]), rep);
  }
  front_->members.assign(live_slots_.size(), true);
  auto st = engine_->run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
  // Epoch fence: the new incarnation speaks with the service epoch, so
  // anything left over from the previous one is stale by construction.
  while (engine_->runtime().epoch() < epoch_) engine_->runtime().bump_epoch();
}

Result<Response> ReplicatedService::request(const Command& command) {
  return request(command, nullptr, std::nullopt);
}

Result<Response> ReplicatedService::request(const Command& command,
                                            Session& session) {
  return request(command, &session, std::nullopt);
}

Result<Response> ReplicatedService::request(
    const Command& command, Session* session,
    std::optional<Consistency> consistency) {
  std::scoped_lock lock(mu_);
  const Consistency level = consistency.value_or(options_.consistency);
  const bool is_read = command.op == Command::Op::kGet;
  const bool fan_read = options_.mode == Mode::kQuorum &&
                        options_.read_quorum > 1 &&
                        level == Consistency::kEventual;

  if (is_read && !fan_read && level != Consistency::kLinearizable) {
    auto local = local_read(
        command, level == Consistency::kReadYourWrites ? session : nullptr);
    if (local) return *local;
    // No live replica covers the session token (e.g. the replica that held
    // the write failed over): fall through to the leader / chain read.
  }

  // Through the architecture. The fan-out plan is recomputed against the
  // current incarnation (and again after a reconfiguration).
  const bool require_leader = options_.mode == Mode::kQuorum && !is_read;
  auto plan = [&](std::vector<bool>& members, std::size_t& required) {
    const std::size_t n = live_slots_.size();
    if (options_.mode == Mode::kChain || !is_read) {
      members.assign(n, true);
      required = options_.mode == Mode::kQuorum ? options_.write_quorum : 1;
      return;
    }
    if (fan_read) {
      required = std::min(options_.read_quorum, n);
      members.assign(n, false);
      for (std::size_t k = 0; k < required; ++k) members[(rr_ + k) % n] = true;
      ++rr_;
      return;
    }
    // Linearizable (or read-your-writes fallback): the leader read. The
    // leader acks every acknowledged write, so its answer is current; the
    // service mutex serializes it against concurrent writes.
    members.assign(n, false);
    members[live_index_of(leader_slot())] = true;
    required = 1;
  };

  const obs::Hlc stamp = engine_->runtime().hlc().tick();
  std::vector<bool> members;
  std::size_t required = 1;
  plan(members, required);
  auto r = through_architecture(command, is_read, std::move(members), required,
                                stamp, require_leader);
  if (!r.ok() && reconfigure_locked(/*force=*/false).ok()) {
    // Some replica died mid-flight (chain head crash, quorum leader loss):
    // the survivors now form a fresh incarnation -- retry once against it.
    plan(members, required);
    r = through_architecture(command, is_read, std::move(members), required,
                             stamp, require_leader);
  }
  if (r.ok() && !is_read && session != nullptr) {
    std::scoped_lock sl(session->mu_);
    auto& token = session->last_write_[command.key];
    if (stamp > token) token = stamp;
  }
  return r;
}

Result<Response> ReplicatedService::through_architecture(
    const Command& command, bool is_read, std::vector<bool> members,
    std::size_t required, obs::Hlc stamp, bool require_leader) {
  {
    std::scoped_lock g(gather_->mu);
    gather_->rows.clear();
    gather_->ack_mask = 0;
    gather_->leader_mask = require_leader ? (1ull << leader_slot()) : 0;
  }
  front_->members = std::move(members);
  front_->required = required;
  front_->acks.store(0);
  front_->requests.push(ReplPayload{command, stamp.packed(), is_read});
  CSAW_TRY(engine_->call("Fnt", "j", Deadline::after(kCallDeadline)));

  // The call returning only means the front-end's junction ran to the end of
  // its body; a failed relay surfaces in there as complain(), not in the call
  // status. The acknowledgement verdict is the *evidence* the replicas left
  // on the scoreboard: the chain tail's row (the write provably traversed
  // every hop) or >= W quorum ack bits including the leader's.
  std::vector<Gather::Row> rows;
  std::uint64_t ack_mask = 0;
  std::uint64_t leader_mask = 0;
  {
    std::scoped_lock g(gather_->mu);
    rows = gather_->rows;
    ack_mask = gather_->ack_mask;
    leader_mask = gather_->leader_mask;
  }
  if (!is_read) {
    if (options_.mode == Mode::kQuorum) {
      const auto acked = static_cast<std::size_t>(std::popcount(ack_mask));
      if (acked < required ||
          (leader_mask != 0 && (ack_mask & leader_mask) == 0)) {
        return make_error(Errc::kUnreachable,
                          "write reached " + std::to_string(acked) + "/" +
                              std::to_string(required) + " replicas" +
                              (leader_mask != 0 && (ack_mask & leader_mask) == 0
                                   ? " (leader missing)"
                                   : ""));
      }
      return Response{true, ""};
    }
    // Chain: acked means the tail applied (its row carries DEL's found flag).
    if (rows.empty()) {
      return make_error(Errc::kUnreachable, "write did not reach the tail");
    }
    return Response{rows.front().found, rows.front().value};
  }
  if (rows.size() < required) {
    return make_error(Errc::kUnreachable,
                      "read answered by " + std::to_string(rows.size()) + "/" +
                          std::to_string(required) + " replicas");
  }
  if (rows.empty()) {
    return make_error(Errc::kUnreachable, "no replica answered the read");
  }
  const Gather::Row* best = &rows.front();
  for (const auto& row : rows) {
    if (row.stamp > best->stamp) best = &row;
  }
  if (options_.mode == Mode::kQuorum && best->stamp != 0) {
    // Read repair: any responder whose stamp trails the winner gets the
    // winner re-written at the winner's stamp (deletions propagate as DELs).
    // Best-effort and idempotent -- LWW at the replica drops it if a newer
    // client write raced in.
    std::vector<bool> stale(live_slots_.size(), false);
    std::size_t count = 0;
    for (const auto& row : rows) {
      if (row.stamp < best->stamp) {
        stale[live_index_of(row.slot)] = true;
        ++count;
      }
    }
    if (count > 0) {
      Command repair;
      repair.op = best->found ? Command::Op::kSet : Command::Op::kDel;
      repair.key = command.key;
      repair.value = best->value;
      (void)through_architecture(repair, /*is_read=*/false, std::move(stale),
                                 count, obs::Hlc::from_packed(best->stamp),
                                 /*require_leader=*/false);
    }
  }
  return Response{best->found, best->value};
}

std::optional<Response> ReplicatedService::local_read(const Command& command,
                                                      const Session* session) {
  obs::Hlc token;
  if (session != nullptr) token = session->token(command.key);
  const std::size_t n = live_slots_.size();
  for (std::size_t k = 0; k < n; ++k) {
    auto& st = *reps_[live_slots_[(rr_ + k) % n]];
    std::scoped_lock l(st.mu);
    if (token.valid()) {
      auto it = st.stamps.find(command.key);
      const obs::Hlc have =
          it == st.stamps.end() ? obs::Hlc{} : it->second;
      if (have < token) continue;  // hasn't applied this session's write yet
    }
    ++rr_;
    auto v = st.store.get(command.key);
    return Response{v.has_value(), v.value_or("")};
  }
  return std::nullopt;
}

Status ReplicatedService::crash_replica(std::size_t i) {
  std::scoped_lock lock(mu_);
  if (i >= reps_.size()) {
    return make_error(Errc::kUndefinedName, "no such replica");
  }
  if (!alive_[i]) return make_error(Errc::kLifecycle, "replica already down");
  engine_->crash(rep_names_[live_index_of(i)]);
  alive_[i] = false;
  return Status::ok_status();
}

Status ReplicatedService::reconfigure() {
  std::scoped_lock lock(mu_);
  return reconfigure_locked(/*force=*/true);
}

Status ReplicatedService::reconfigure_locked(bool force) {
  // Sweep the runtime's liveness view (is_running consults the failure
  // detector on mesh transports), so chaos-crashed instances are excised
  // even when nobody called crash_replica().
  for (std::size_t i = 0; i < rep_names_.size(); ++i) {
    if (!engine_->runtime().is_running(Symbol(rep_names_[i]))) {
      alive_[live_slots_[i]] = false;
    }
  }
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < reps_.size(); ++s) {
    if (alive_[s]) live.push_back(s);
  }
  if (live.empty()) return make_error(Errc::kUnreachable, "no replica survives");
  if (!force && live == live_slots_) {
    return make_error(Errc::kLifecycle, "membership unchanged");
  }
  ++epoch_;
  engine_.reset();  // tear down the old incarnation (joins its workers)
  merge_survivors(live);
  build_engine();
  return Status::ok_status();
}

// LWW-converge the survivors before the next incarnation serves: every key
// ends at the newest applied stamp across survivors, deletions included (the
// stamps map remembers keys the store no longer holds). An acknowledged
// write reached >= W replicas (quorum) or every node (chain), so as long as
// fewer than W replicas died it is in the union and survives -- this is what
// makes the new leader current even when the old leader is among the dead.
void ReplicatedService::merge_survivors(const std::vector<std::size_t>& live) {
  struct Best {
    obs::Hlc stamp;
    bool found = false;
    std::string value;
  };
  std::unordered_map<std::string, Best> best;
  for (std::size_t s : live) {
    auto& st = *reps_[s];
    std::scoped_lock l(st.mu);
    for (const auto& [key, stamp] : st.stamps) {
      auto& b = best[key];
      if (stamp > b.stamp) {
        auto v = st.store.get(key);
        b = Best{stamp, v.has_value(), v.value_or("")};
      }
    }
  }
  for (std::size_t s : live) {
    auto& st = *reps_[s];
    std::scoped_lock l(st.mu);
    for (const auto& [key, b] : best) {
      auto& have = st.stamps[key];
      if (have < b.stamp) {
        if (b.found) {
          st.store.set(key, b.value);
        } else {
          st.store.del(key);
        }
        have = b.stamp;
        if (b.stamp > st.watermark) st.watermark = b.stamp;
      }
    }
  }
}

void ReplicatedService::refresh_membership() {
  std::scoped_lock lock(mu_);
  if (options_.mode != Mode::kQuorum) return;
  // The quorum fan-out retracts ActiveReplica[b] when a hop times out
  // (partition/crash), and nothing inside the program re-adds it: membership
  // belongs to the control plane. Healing is therefore an explicit push of
  // the membership prop for every replica the runtime reports reachable.
  auto& rt = engine_->runtime();
  for (const auto& name : rep_names_) {
    if (!rt.is_running(Symbol(name))) continue;
    const Symbol key(
        mangle_prop(Symbol("ActiveReplica"), CtValue(addr(name, "j"))));
    (void)rt.push({.to = addr("Fnt", "j"),
                   .update = Update::assert_prop(key),
                   .deadline = Deadline::after(std::chrono::seconds(1)),
                   .from = Symbol("control")});
  }
}

obs::Hlc ReplicatedService::Session::token(const std::string& key) const {
  std::scoped_lock lock(mu_);
  auto it = last_write_.find(key);
  return it == last_write_.end() ? obs::Hlc{} : it->second;
}

std::size_t ReplicatedService::leader_slot() const { return live_slots_.front(); }

std::size_t ReplicatedService::live_index_of(std::size_t slot) const {
  for (std::size_t i = 0; i < live_slots_.size(); ++i) {
    if (live_slots_[i] == slot) return i;
  }
  return 0;
}

std::uint64_t ReplicatedService::epoch() const {
  std::scoped_lock lock(mu_);
  return epoch_;
}

std::size_t ReplicatedService::live_replicas() const {
  std::scoped_lock lock(mu_);
  return live_slots_.size();
}

std::vector<std::uint64_t> ReplicatedService::replica_applied() const {
  std::vector<std::uint64_t> out;
  out.reserve(reps_.size());
  for (const auto& rep : reps_) out.push_back(rep->applied.load());
  return out;
}

Runtime& ReplicatedService::runtime() { return engine_->runtime(); }

// LOC-COUNT-END(glue_replication)

}  // namespace csaw::miniredis
