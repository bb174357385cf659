#include "compart/runtime.hpp"

#include "compart/tcp.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "obs/profile.hpp"
#include "serdes/buffer.hpp"
#include "support/blocking.hpp"
#include "support/check.hpp"
#include "support/io.hpp"

namespace csaw {

namespace {
// Poll slice while awaiting acks so that crash/stop abort flags are noticed
// even under an infinite deadline.
constexpr auto kAckPollSlice = std::chrono::milliseconds(5);

// The junction run currently executing on this thread, if any: its span is
// the causal parent of every push the body makes.
thread_local obs::TraceContext t_active_ctx;

// The instance whose junction is evaluating on this thread. Lets stop()
// detect self-stop without owning per-junction threads.
thread_local const void* t_current_inst = nullptr;
// The entity evaluating on this thread: the change listener suppresses
// self-wakes for a junction's own writes (the post-run rearm covers them;
// waking here would double every eval).
thread_local Scheduler::Entity* t_current_entity = nullptr;

class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(obs::TraceContext ctx) : saved_(t_active_ctx) {
    t_active_ctx = ctx;
  }
  ~ScopedTraceContext() { t_active_ctx = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  obs::TraceContext saved_;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

obs::TraceContext Runtime::current_context() { return t_active_ctx; }

std::uint64_t Runtime::new_trace_id() {
  const auto id = splitmix64(id_base_ + next_id_.fetch_add(1));
  return id != 0 ? id : 1;
}

bool RuntimeView::instance_running(Symbol instance) const {
  return rt_->is_running(instance);
}

Result<bool> RuntimeView::remote_prop(const JunctionAddr& at,
                                      Symbol prop) const {
  auto* inst = rt_->find(at.instance);
  if (inst == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "unknown instance '" + at.instance.str() + "'");
  }
  std::scoped_lock lock(inst->mu);
  if (inst->state != Runtime::InstanceRt::State::kRunning) {
    return make_error(Errc::kUnreachable,
                      at.qualified() + " is not running (ternary @-read)");
  }
  auto* junction = rt_->find_junction(*inst, at.junction);
  if (junction == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "unknown junction " + at.qualified());
  }
  return junction->table->prop(prop);
}

Runtime::Runtime(RuntimeOptions options) : options_(options) {
  {
    std::random_device rd;
    id_base_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }
  sched_ = std::make_unique<Scheduler>(options_.scheduler, options_.metrics);
  profiler_ = options_.profiler;
  // The profiler is the only home of per-junction and per-link costs, so a
  // metrics registry (whose /metrics renders them) implies one too.
  if (profiler_ == nullptr &&
      (!options_.profile_out.empty() || options_.metrics != nullptr)) {
    owned_profiler_ = std::make_unique<obs::Profiler>();
    profiler_ = owned_profiler_.get();
  }
  if (options_.metrics_http_port >= 0 && options_.metrics != nullptr) {
    exposer_ = std::make_unique<obs::HttpExposer>(
        options_.metrics, dynamic_cast<obs::Tracer*>(options_.trace_sink),
        options_.metrics_http_port);
  }
  if (options_.metrics != nullptr) {
    auto& m = *options_.metrics;
    ins_.push_sent = &m.counter("push_sent");
    ins_.push_acked = &m.counter("push_acked");
    ins_.push_nacked = &m.counter("push_nacked");
    ins_.push_timeout = &m.counter("push_timeout");
    ins_.junction_scheduled = &m.counter("junction_scheduled");
    ins_.guard_rejected = &m.counter("guard_rejected");
    ins_.kv_applied = &m.counter("kv_updates_applied");
    ins_.instances_started = &m.counter("instances_started");
    ins_.instances_stopped = &m.counter("instances_stopped");
    ins_.instances_crashed = &m.counter("instances_crashed");
    ins_.instances_restarted = &m.counter("instances_restarted");
    ins_.epoch_rejected = &m.counter("epoch_rejected");
    ins_.epoch_adopted = &m.counter("epoch_adopted");
    ins_.wal_recoveries = &m.counter("wal_recoveries");
    ins_.wal_replayed_records = &m.counter("wal_replayed_records");
    ins_.wal_tail_torn = &m.counter("wal_tail_torn");
    ins_.push_latency_ns = &m.histogram("push_latency_ns");
    ins_.sched_wildcard_guards = &m.gauge("sched_wildcard_guards");
  }
  if (!options_.durability_dir.empty()) {
    auto st = io::ensure_dir(options_.durability_dir);
    CSAW_CHECK(st.ok()) << "durability_dir: " << st.error().to_string();
    // The authority epoch survives restarts -- deliberately NOT bumped here:
    // a restarted node keeps its pre-crash epoch, so if authority moved on
    // while it was down, its frames are stale until it learns the new epoch.
    if (auto bytes = io::read_file(options_.durability_dir + "/epoch");
        bytes.ok()) {
      std::string text(bytes->begin(), bytes->end());
      epoch_.store(std::strtoull(text.c_str(), nullptr, 10),
                   std::memory_order_relaxed);
    }
  }
  if (options_.transport == Transport::kTcpLoopback) {
    // Envelopes the router releases are pushed through a real loopback TCP
    // connection (a "self" peer on the transport); the transport's event
    // loop performs the delivery.
    TcpOptions topts = options_.tcp;
    topts.loopback_self = true;
    topts.peers.clear();
    topts.remote_instances.clear();
    if (topts.listen_port < 0) topts.listen_port = 0;
    tcp_ = std::make_unique<TcpTransport>(
        [this](Envelope&& env) { deliver_local(std::move(env)); },
        std::move(topts), options_.metrics, options_.trace_sink, profiler_);
    router_ = std::make_unique<Router>(
        options_.default_link, options_.seed,
        [this](Envelope&& env) { (void)tcp_->route(env); });
  } else if (options_.transport == Transport::kTcpMesh) {
    tcp_ = std::make_unique<TcpTransport>(
        [this](Envelope&& env) { deliver_local(std::move(env)); },
        options_.tcp, options_.metrics, options_.trace_sink, profiler_);
    router_ = std::make_unique<Router>(
        options_.default_link, options_.seed, [this](Envelope&& env) {
          // Locally-hosted instances are delivered in-process; everything
          // else rides the mesh. Unroutable envelopes fall through to local
          // delivery, which nacks unknown instances.
          if (find(env.to.instance) == nullptr && tcp_->route(env)) return;
          deliver_local(std::move(env));
        });
  } else {
    router_ = std::make_unique<Router>(
        options_.default_link, options_.seed,
        [this](Envelope&& env) { deliver_local(std::move(env)); });
  }
  // Node identity: explicit name, else listener-derived, else "local".
  // Needed beyond heartbeats now -- every cost-profile row carries it.
  node_name_ = !options_.tcp.node_name.empty()
                   ? options_.tcp.node_name
                   : (tcp_ != nullptr ? "node@" + std::to_string(tcp_->port())
                                      : "local");
  if (profiler_ != nullptr) profiler_->set_node(node_name_);
  if (tcp_ != nullptr && options_.tcp.heartbeat_interval.count() > 0) {
    FailureDetector::Options dopts;
    dopts.heartbeat_interval = options_.tcp.heartbeat_interval;
    dopts.suspect_after_missed = options_.tcp.suspect_after_missed;
    detector_ = std::make_unique<FailureDetector>(dopts, options_.metrics,
                                                  options_.trace_sink);
    tcp_->set_heartbeat_source([this] { return make_heartbeat(); });
  }
  if (exposer_ != nullptr && profiler_ != nullptr) {
    // Safe capture: the exposer's accept thread joins in ~Runtime before
    // the members this callback reads are torn down (exposer_ is declared
    // after tcp_/instances_, so it is destroyed first).
    exposer_->set_profile_source([this] { return cost_profile(); });
  }
  constructed_.store(true, std::memory_order_release);
  constructed_.notify_all();
}

Runtime::~Runtime() {
  shutdown();
  // Stop the pool while instances_ (whose JunctionRts the entity eval
  // callbacks point into) is still alive; queued stale entities drain and
  // bail on the stopped instances.
  sched_->stop();
  if (profiler_ != nullptr) {
    // Table rows were folded per-instance at stop time (shutdown above);
    // link totals live in the transport, which is still up here.
    for (const auto& row : live_link_costs()) profiler_->fold_link(row);
    if (!options_.profile_out.empty()) {
      const auto st = obs::write_cost_profile_file(options_.profile_out,
                                                   profiler_->snapshot());
      if (!st.ok()) {
        std::fprintf(stderr, "csaw: profile_out: %s\n",
                     st.error().to_string().c_str());
      }
    }
  }
  // Nothing may deliver into this runtime once its members start to go:
  // the transport's event loop delivers inbound frames and sends their
  // acks through the router, and the router's thread (if it ever started)
  // routes through the transport. Stop the loop, then the router; both
  // objects stay alive, so a delivery finishing meanwhile can still send.
  if (tcp_ != nullptr) tcp_->stop();
  router_->stop();
}

std::uint64_t Runtime::bump_epoch() {
  const auto next = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  persist_epoch(next);
  if (options_.trace_sink != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::kCustom;
    e.label = Symbol("epoch_bumped");
    e.value_ns = next;
    record_event(std::move(e));
  }
  return next;
}

bool Runtime::remove_peer(const std::string& peer) {
  bool removed = false;
  if (tcp_ != nullptr) removed = tcp_->remove_peer(peer);
  if (detector_ != nullptr) removed = detector_->forget(Symbol(peer)) || removed;
  return removed;
}

void Runtime::observe_epoch(std::uint64_t seen) {
  auto current = epoch_.load(std::memory_order_relaxed);
  while (seen > current) {
    if (epoch_.compare_exchange_weak(current, seen,
                                     std::memory_order_relaxed)) {
      persist_epoch(seen);
      if (ins_.epoch_adopted != nullptr) ins_.epoch_adopted->add();
      if (options_.trace_sink != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::TraceEvent::Kind::kCustom;
        e.label = Symbol("epoch_adopted");
        e.value_ns = seen;
        record_event(std::move(e));
      }
      return;
    }
  }
}

void Runtime::persist_epoch(std::uint64_t value) {
  if (options_.durability_dir.empty()) return;
  auto st = io::write_file_atomic(options_.durability_dir + "/epoch",
                                  std::to_string(value));
  // Fail-stop, like the WAL: an epoch we cannot persist is an epoch a
  // restart would forget, which reopens the split-brain window.
  CSAW_CHECK(st.ok()) << "epoch persist failed: " << st.error().to_string();
}

Envelope Runtime::make_heartbeat() {
  Envelope env;
  env.kind = Envelope::Kind::kHeartbeat;
  env.from_instance = Symbol(node_name_);
  env.epoch = epoch();
  ByteWriter w;
  std::vector<Symbol> running;
  {
    std::scoped_lock reg_lock(reg_mu_);
    for (const auto& [name, inst] : instances_) {
      std::scoped_lock lock(inst->mu);
      if (inst->state == InstanceRt::State::kRunning) running.push_back(name);
    }
  }
  w.uvarint(running.size());
  for (const auto name : running) w.str(name.str());
  // Trailing RTT probe (cost profiling): our steady clock at send, then an
  // echo of every peer heartbeat we have seen -- the sender's original
  // timestamp plus how long we held it. Receivers that predate this field
  // parse the running list and ignore the rest, so the wire stays
  // compatible in both directions.
  const std::uint64_t now = steady_ns();
  w.uvarint(now);
  {
    std::scoped_lock hb_lock(hb_mu_);
    w.uvarint(hb_seen_.size());
    for (const auto& [node, seen] : hb_seen_) {
      w.str(node);
      w.uvarint(seen.origin_ts_ns);
      w.uvarint(now >= seen.recv_ns ? now - seen.recv_ns : 0);
    }
  }
  env.update.kind = Update::Kind::kWriteData;
  env.update.key = Symbol("heartbeat");
  env.update.value.bytes = w.take();
  return env;
}

void Runtime::handle_heartbeat(const Envelope& env) {
  if (detector_ == nullptr && profiler_ == nullptr) return;
  ByteReader r(env.update.value.bytes);
  auto count = r.uvarint();
  if (!count) return;  // malformed gossip: ignore, the next one will come
  std::vector<Symbol> running;
  running.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto name = r.str();
    if (!name) return;
    running.emplace_back(*name);
  }
  if (detector_ != nullptr) {
    detector_->observe(env.from_instance, env.epoch, std::move(running),
                       steady_now());
  }
  // Trailing RTT probe (absent on heartbeats from older builds). Record
  // when the sender minted its timestamp so our next heartbeat can echo it,
  // then look for an echo of *our* name: origin and now are both our steady
  // clock, so rtt = elapsed minus the remote hold -- no cross-host clock
  // agreement needed.
  auto origin = r.uvarint();
  if (!origin) return;
  const std::string from = env.from_instance.str();
  {
    std::scoped_lock hb_lock(hb_mu_);
    auto& seen = hb_seen_[from];
    seen.origin_ts_ns = *origin;
    seen.recv_ns = steady_ns();
  }
  auto echoes = r.uvarint();
  if (!echoes) return;
  for (std::uint64_t i = 0; i < *echoes; ++i) {
    auto node = r.str();
    auto echo_ts = r.uvarint();
    auto hold = r.uvarint();
    if (!node || !echo_ts || !hold) return;
    if (*node != node_name_) continue;
    const std::uint64_t now = steady_ns();
    // Underflow guard: a stale echo from before a restart (fresh steady
    // epoch) or a hold overlapping our send is noise, not a sample.
    if (now < *echo_ts + *hold) continue;
    const std::uint64_t rtt = now - *echo_ts - *hold;
    if (profiler_ != nullptr) profiler_->record_rtt(from, rtt);
  }
}

void Runtime::record_event(obs::TraceEvent e) {
  auto* sink = options_.trace_sink;
  if (sink == nullptr) return;
  if (!e.hlc.valid()) e.hlc = hlc_.tick();
  sink->record(e);
}

void Runtime::trace(obs::TraceEvent::Kind kind, Symbol instance,
                    Symbol junction, Symbol peer, std::uint64_t seq,
                    std::uint64_t value_ns) {
  if (options_.trace_sink == nullptr) return;
  obs::TraceEvent e;
  e.kind = kind;
  e.instance = instance;
  e.junction = junction;
  e.peer = peer;
  e.seq = seq;
  e.value_ns = value_ns;
  record_event(std::move(e));
}

void Runtime::add_instance(InstanceDesc desc) {
  // The whole registration -- duplicate check, scheduler entity creation,
  // registry insert, incremental wake-plan resolution -- happens under
  // reg_mu_, so concurrent add_instance calls (the chaos harness, dynamic
  // membership) serialize instead of racing the wake-plan path. The lock
  // must precede entity creation: a losing duplicate would otherwise have
  // already registered entities whose eval callbacks capture an InstanceRt
  // about to be destroyed.
  std::scoped_lock lock(reg_mu_);
  auto inst = std::make_unique<InstanceRt>();
  inst->desc = std::move(desc);
  CSAW_CHECK(!instances_.contains(inst->desc.name))
      << "duplicate instance '" << inst->desc.name << "'";
  for (const auto& jdesc : inst->desc.junctions) {
    auto jrt = std::make_unique<JunctionRt>();
    jrt->desc = jdesc;
    auto* ip = inst.get();
    auto* jp = jrt.get();
    jrt->entity = sched_->add_entity(
        inst->desc.name.str() + "::" + jrt->desc.name.str(),
        [this, ip, jp] { return junction_eval(*ip, *jp); });
    if (profiler_ != nullptr) {
      // Slot survives restarts (and this Runtime): costs accumulate across
      // the junction's whole lifetime, not per incarnation.
      jrt->entity->prof = profiler_->junction(inst->desc.name.str(),
                                              jrt->desc.name.str());
    }
    inst->junctions.push_back(std::move(jrt));
  }
  auto* ip = inst.get();
  instances_.emplace(inst->desc.name, std::move(inst));
  // Registered after the pool already started (e.g. the chaos harness adds
  // instances while others run): resolve this instance's wake plan now,
  // against the registry as it stands. Junctions elsewhere that reference
  // *this* instance were resolved when it was absent and are already
  // volatile (polled), so they stay correct, just less precise.
  if (wake_plans_resolved_) resolve_wake_plan_locked(*ip);
}

Status Runtime::start(Symbol instance) {
  auto* inst = find(instance);
  if (inst == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "start of unknown instance '" + instance.str() + "'");
  }
  // Before taking inst->mu: wake-plan resolution walks the registry under
  // reg_mu_, and heartbeat emission takes reg_mu_ -> inst->mu, so the
  // opposite nesting here would invert the order.
  ensure_scheduler_started();
  std::scoped_lock lock(inst->mu);
  if (inst->state == InstanceRt::State::kRunning ||
      inst->state == InstanceRt::State::kStopping) {
    return make_error(Errc::kLifecycle,
                      "instance '" + instance.str() + "' already started");
  }
  // Fresh tables: restart re-initializes state from the declarations; any
  // durable state must flow back through the architecture (e.g. the
  // fail-over pattern's Activating protocol), exactly as in the paper --
  // UNLESS durability is on, in which case the table recovers its last
  // acknowledged state (applied values and acked-but-pending updates) from
  // the WAL + snapshot before the junctions launch.
  const bool durable = !options_.durability_dir.empty();
  for (auto& jrt : inst->junctions) {
    jrt->table = std::make_unique<KvTable>(
        jrt->desc.table_spec, instance.str() + "::" + jrt->desc.name.str());
    jrt->table->set_observer(options_.trace_sink, ins_.kv_applied, instance,
                             jrt->desc.name);
    {
      auto* jp = jrt.get();
      jrt->table->set_change_listener(
          [this, jp](Symbol key, KvTable::Change change) {
            on_table_change(*jp, key, change);
          });
    }
    if (durable) {
      const std::string fname = instance.str() + "__" + jrt->desc.name.str();
      auto recovered = wal_recover(options_.durability_dir, fname);
      if (!recovered.ok()) return recovered.error();
      jrt->table->adopt_recovered(*recovered);
      Wal::Options wopts;
      wopts.compact_bytes = options_.wal_compact_bytes;
      auto wal = Wal::open(options_.durability_dir, fname, wopts,
                           options_.metrics, recovered->last_lsn + 1);
      if (!wal.ok()) return wal.error();
      jrt->wal = std::move(*wal);
      // Reopen compaction: fold the recovered state into a fresh snapshot
      // and clear the log. Mandatory when the tail was torn -- appending
      // after damaged bytes would hide every later record from replay.
      const auto state = jrt->table->durable_state();
      if (auto st =
              jrt->wal->compact(state.image, state.pending, state.max_stamp);
          !st.ok()) {
        return st;
      }
      jrt->table->set_durability(jrt->wal.get());
      if (ins_.wal_recoveries != nullptr) ins_.wal_recoveries->add();
      if (ins_.wal_replayed_records != nullptr) {
        ins_.wal_replayed_records->add(recovered->records_replayed);
      }
      if (recovered->tail_torn && ins_.wal_tail_torn != nullptr) {
        ins_.wal_tail_torn->add();
      }
      if (options_.trace_sink != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::TraceEvent::Kind::kCustom;
        e.instance = instance;
        e.junction = jrt->desc.name;
        e.label = Symbol(recovered->tail_torn ? "wal_recovered_torn"
                                              : "wal_recovered");
        e.value_ns = recovered->records_replayed;
        record_event(std::move(e));
      }
    }
    jrt->pending_schedules = 0;
    jrt->consumed = jrt->completed;
    jrt->guard_rejections = 0;
    jrt->eval_active = false;
    jrt->blocked_traced = false;
    jrt->volatile_repolls = 0;
    jrt->repoll_anomaly_traced = false;
  }
  inst->abort.store(false);
  inst->state = InstanceRt::State::kRunning;
  const bool restarted = inst->started_before;
  inst->started_before = true;
  // "When an instance is started, its junctions are started concurrently in
  // an arbitrary order" (S6): initial evals (auto guards may already hold,
  // recovered tables may carry pending updates), plus the S(i) watchers
  // that just saw this instance come up.
  for (auto& jrt : inst->junctions) sched_->wake(jrt->entity);
  for (auto* watcher : inst->lifecycle_watchers) sched_->wake(watcher);
  if (restarted) {
    if (ins_.instances_restarted != nullptr) ins_.instances_restarted->add();
    trace(obs::TraceEvent::Kind::kInstanceRestarted, instance);
  } else {
    if (ins_.instances_started != nullptr) ins_.instances_started->add();
    trace(obs::TraceEvent::Kind::kInstanceStarted, instance);
  }
  return Status::ok_status();
}

Status Runtime::stop_locked_state(InstanceRt& inst,
                                  InstanceRt::State final_state) {
  {
    std::scoped_lock lock(inst.mu);
    if (inst.state != InstanceRt::State::kRunning) {
      return make_error(Errc::kLifecycle, "instance '" + inst.desc.name.str() +
                                              "' is not running");
    }
    CSAW_CHECK(t_current_inst != &inst) << "an instance cannot stop itself";
    inst.state = InstanceRt::State::kStopping;
    inst.abort.store(true);
    for (auto& jrt : inst.junctions) {
      if (jrt->table) jrt->table->interrupt();
    }
    inst.cv.notify_all();
  }
  {
    // Wake every waiting push: those this instance made see its abort flag.
    std::scoped_lock lock(ack_mu_);
    for (auto& [seq, slot] : ack_slots_) slot->cv.notify_one();
  }
  {
    // Quiesce: no new evals start once the state left kRunning; wait out
    // the in-flight ones (their blocked waits were interrupted above).
    // Announced as blocking so that a body stopping *another* instance
    // does not pin its worker while it drains.
    std::optional<ScopedBlockingRegion> blocking;
    std::unique_lock lock(inst.mu);
    while (true) {
      bool active = false;
      for (const auto& jrt : inst.junctions) active |= jrt->eval_active;
      if (!active) break;
      if (!blocking.has_value()) blocking.emplace();
      inst.cv.wait(lock);
    }
  }
  // Graceful stop drains acked-but-unapplied updates: an ack promises the
  // update takes effect unless the instance *crashes*, and the final evals
  // may have been cut off between ack and apply. Folding them in here also
  // means the WALs below close over a state with no pending tail.
  if (final_state == InstanceRt::State::kDown) {
    for (auto& jrt : inst.junctions) {
      if (jrt->table != nullptr) jrt->table->apply_pending();
    }
  }
  // Fold this incarnation's table costs into the profiler before the WAL
  // handles (whose cumulative byte totals the rows carry) close below; a
  // restart swaps in fresh tables, so waiting for ~Runtime would lose them.
  if (profiler_ != nullptr) {
    obs::TableCost row;
    row.node = profiler_->node();
    row.instance = inst.desc.name.str();
    for (const auto& jrt : inst.junctions) {
      if (jrt->table == nullptr) continue;
      row.keys += jrt->table->key_count();
      row.writes += jrt->table->counters().applied;
      if (jrt->wal != nullptr) {
        row.wal_bytes += jrt->wal->total_appended_bytes();
      }
    }
    profiler_->fold_table(row);
  }
  // Close the WALs so another incarnation (this process or a successor
  // sharing durability_dir) can recover from a quiesced log.
  for (auto& jrt : inst.junctions) {
    if (jrt->wal != nullptr) {
      if (jrt->table != nullptr) jrt->table->set_durability(nullptr);
      jrt->wal.reset();
    }
  }
  {
    std::scoped_lock lock(inst.mu);
    inst.state = final_state;
    // S(i) guards watching this instance just changed verdict. Under mu:
    // a late add_instance may be appending a watcher concurrently.
    for (auto* watcher : inst.lifecycle_watchers) sched_->wake(watcher);
  }
  if (final_state == InstanceRt::State::kCrashed) {
    if (ins_.instances_crashed != nullptr) ins_.instances_crashed->add();
    trace(obs::TraceEvent::Kind::kInstanceCrashed, inst.desc.name);
  } else {
    if (ins_.instances_stopped != nullptr) ins_.instances_stopped->add();
    trace(obs::TraceEvent::Kind::kInstanceStopped, inst.desc.name);
  }
  return Status::ok_status();
}

Status Runtime::stop(Symbol instance) {
  auto* inst = find(instance);
  if (inst == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "stop of unknown instance '" + instance.str() + "'");
  }
  return stop_locked_state(*inst, InstanceRt::State::kDown);
}

void Runtime::crash(Symbol instance) {
  auto* inst = find(instance);
  if (inst == nullptr) return;
  (void)stop_locked_state(*inst, InstanceRt::State::kCrashed);
}

bool Runtime::is_running(Symbol instance) const {
  auto* inst = find(instance);
  if (inst == nullptr) {
    // Not hosted here: in a heartbeat-carrying mesh, the failure detector
    // answers for remote instances (S(i) guards in watchdog patterns work
    // across processes); without one, unknown means not running.
    if (detector_ != nullptr) {
      return detector_->instance_alive(instance, steady_now());
    }
    return false;
  }
  std::scoped_lock lock(inst->mu);
  return inst->state == InstanceRt::State::kRunning;
}

void Runtime::shutdown() {
  for (auto& [name, inst] : instances_) {
    (void)stop_locked_state(*inst, InstanceRt::State::kDown);
  }
}

Status Runtime::push(PushRequest req) {
  const std::size_t payload =
      req.update.value.size() + req.update.key.str().size() + 16;
  Envelope env;
  env.kind = Envelope::Kind::kUpdate;
  env.from_instance = req.from;
  env.to = req.to;
  env.update = std::move(req.update);
  env.epoch = epoch();

  // Span of this push within the ambient distributed trace: child of the
  // junction run executing on this thread (if any), root of a fresh trace
  // otherwise. The context rides in the envelope so the receiver can chain.
  const bool tracing = options_.trace_sink != nullptr;
  obs::TraceContext span;
  std::uint64_t parent_span = 0;
  if (tracing) {
    const obs::TraceContext active = t_active_ctx;
    span.trace_id = active.valid() ? active.trace_id : new_trace_id();
    span.span_id = new_trace_id();
    span.hlc = hlc_.tick();
    parent_span = active.span_id;
    env.ctx = span;
  }
  const auto push_event = [&](obs::TraceEvent::Kind kind, std::uint64_t seq,
                              std::uint64_t dt) {
    if (!tracing) return;
    obs::TraceEvent e;
    e.kind = kind;
    e.instance = req.from;
    e.junction = req.to.junction;
    e.peer = req.to.instance;
    e.seq = seq;
    e.value_ns = dt;
    e.trace_id = span.trace_id;
    e.span_id = span.span_id;
    e.parent_span = parent_span;
    if (kind == obs::TraceEvent::Kind::kPushSent) e.hlc = span.hlc;
    record_event(std::move(e));
  };

  // Timing is only measured when someone will consume it.
  const bool observed = tracing || ins_.push_latency_ns != nullptr;
  const SteadyTime t0 = observed ? steady_now() : SteadyTime{};
  const auto elapsed_ns = [&] {
    return observed
               ? static_cast<std::uint64_t>(
                     std::chrono::duration_cast<Nanos>(steady_now() - t0)
                         .count())
               : 0;
  };

  if (!options_.acks_enabled) {
    env.seq = 0;  // no ack requested
    if (ins_.push_sent != nullptr) ins_.push_sent->add();
    push_event(obs::TraceEvent::Kind::kPushSent, 0, 0);
    router_->send(std::move(env), payload);
    return Status::ok_status();
  }

  const std::uint64_t seq = next_seq_.fetch_add(1);
  env.seq = seq;
  AckSlot slot;
  {
    std::scoped_lock lock(ack_mu_);
    ack_slots_.emplace(seq, &slot);
  }
  if (ins_.push_sent != nullptr) ins_.push_sent->add();
  push_event(obs::TraceEvent::Kind::kPushSent, seq, 0);
  router_->send(std::move(env), payload);

  // Announced lazily: only an ack wait that actually parks is blocking
  // (an inline delivery has filled the slot before send returns).
  std::optional<ScopedBlockingRegion> blocking;
  std::unique_lock lock(ack_mu_);
  while (true) {
    if (slot.result.has_value()) {  // the ack also unregistered the slot
      Status st = std::move(*slot.result);
      lock.unlock();
      const auto dt = elapsed_ns();
      if (st.ok()) {
        if (ins_.push_acked != nullptr) ins_.push_acked->add();
        if (ins_.push_latency_ns != nullptr) ins_.push_latency_ns->record(dt);
        push_event(obs::TraceEvent::Kind::kPushAcked, seq, dt);
      } else {
        if (ins_.push_nacked != nullptr) ins_.push_nacked->add();
        push_event(obs::TraceEvent::Kind::kPushNacked, seq, dt);
      }
      return st;
    }
    if (req.abort != nullptr && req.abort->load(std::memory_order_relaxed)) {
      ack_slots_.erase(seq);
      lock.unlock();
      // Sender-side failure: classified with the nacks, not the timeouts.
      if (ins_.push_nacked != nullptr) ins_.push_nacked->add();
      push_event(obs::TraceEvent::Kind::kPushNacked, seq, elapsed_ns());
      return make_error(Errc::kUnreachable, "sender aborted while pushing");
    }
    if (req.deadline.expired()) {
      ack_slots_.erase(seq);
      lock.unlock();
      if (ins_.push_timeout != nullptr) ins_.push_timeout->add();
      push_event(obs::TraceEvent::Kind::kPushTimeout, seq, elapsed_ns());
      return make_error(
          Errc::kTimeout,
          "no ack from " + req.to.qualified() + " before deadline");
    }
    if (!blocking.has_value()) blocking.emplace();
    const auto slice = Deadline::after(kAckPollSlice).min(req.deadline);
    slot.cv.wait_until(lock, slice.when());
  }
}

Status Runtime::inject(const JunctionAddr& to, Update update) {
  auto* inst = find(to.instance);
  if (inst == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "inject into unknown instance '" + to.instance.str() +
                          "'");
  }
  std::scoped_lock lock(inst->mu);
  if (inst->state != InstanceRt::State::kRunning) {
    return make_error(Errc::kUnreachable,
                      to.qualified() + " is not running");
  }
  auto* jrt = find_junction(*inst, to.junction);
  if (jrt == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "unknown junction " + to.qualified());
  }
  auto st = jrt->table->enqueue(update);
  inst->cv.notify_all();
  return st;
}

Status Runtime::schedule(Symbol instance, Symbol junction) {
  auto* inst = find(instance);
  if (inst == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "schedule on unknown instance '" + instance.str() + "'");
  }
  std::scoped_lock lock(inst->mu);
  if (inst->state != InstanceRt::State::kRunning) {
    return make_error(Errc::kUnreachable,
                      "instance '" + instance.str() + "' is not running");
  }
  auto* jrt = find_junction(*inst, junction);
  if (jrt == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "unknown junction '" + junction.str() + "'");
  }
  ++jrt->pending_schedules;
  inst->cv.notify_all();
  sched_->wake(jrt->entity);
  if (ins_.junction_scheduled != nullptr) ins_.junction_scheduled->add();
  trace(obs::TraceEvent::Kind::kJunctionScheduled, instance, junction);
  return Status::ok_status();
}

Status Runtime::call(Symbol instance, Symbol junction, Deadline deadline) {
  auto* inst = find(instance);
  if (inst == nullptr) {
    return make_error(Errc::kUndefinedName,
                      "call on unknown instance '" + instance.str() + "'");
  }
  std::uint64_t target;
  std::uint64_t rejections_before;
  Scheduler::Entity* entity;
  {
    std::scoped_lock lock(inst->mu);
    if (inst->state != InstanceRt::State::kRunning) {
      return make_error(Errc::kUnreachable,
                        "instance '" + instance.str() + "' is not running");
    }
    auto* jrt = find_junction(*inst, junction);
    if (jrt == nullptr) {
      return make_error(Errc::kUndefinedName,
                        "unknown junction '" + junction.str() + "'");
    }
    // An auto junction takes no requests: any run completing after this
    // one is counted serves it.
    target = jrt->desc.auto_schedule
                 ? jrt->completed + 1
                 : jrt->consumed + jrt->pending_schedules + 1;
    rejections_before = jrt->guard_rejections;
    ++jrt->pending_schedules;
    inst->cv.notify_all();
    entity = jrt->entity;
  }
  if (ins_.junction_scheduled != nullptr) ins_.junction_scheduled->add();
  trace(obs::TraceEvent::Kind::kJunctionScheduled, instance, junction);
  // Caller-runs: this thread has nothing to do until the run ends, so it
  // runs the eval itself when the junction is idle, and the wait below
  // finds the run already completed. A call() from inside a body leaves
  // the run to the pool: running it here would nest one eval inside
  // another on this thread. A caller must hold no lock that the body's
  // host blocks take (DESIGN.md "Scheduler").
  if (t_current_inst != nullptr || !sched_->run_here(entity)) {
    sched_->wake(entity);
  }
  // Lazy blocking announcement: a body call()ing another junction must not
  // pin its worker while it waits (the pool spawns a spare), but the common
  // already-completed path must not spawn one.
  std::optional<ScopedBlockingRegion> blocking;
  std::unique_lock lock(inst->mu);
  auto* jrt = find_junction(*inst, junction);
  while (jrt->completed < target) {
    if (inst->state != InstanceRt::State::kRunning) {
      return make_error(Errc::kUnreachable,
                        "instance '" + instance.str() + "' went down mid-call");
    }
    if (deadline.expired()) {
      // Deadline edge: a run that consumed our request may be mid-body
      // right now (its guard passed just before the deadline). Wait out
      // the in-flight evaluation before classifying -- reporting kTimeout
      // (or a stale kGuardRejected) for a run that is about to complete
      // would make the verdict depend on a wakeup race.
      while (jrt->eval_active && jrt->completed < target &&
             inst->state == InstanceRt::State::kRunning) {
        if (!blocking.has_value()) blocking.emplace();
        inst->cv.wait(lock);
      }
      if (jrt->completed >= target) return Status::ok_status();
      if (inst->state != InstanceRt::State::kRunning) {
        return make_error(Errc::kUnreachable, "instance '" + instance.str() +
                                                  "' went down mid-call");
      }
      // Distinguish "the guard said no" from "the junction never got a
      // chance": if the junction evaluated its guard to false at least once
      // while our request was pending, report kGuardRejected.
      if (jrt->guard_rejections > rejections_before) {
        return make_error(Errc::kGuardRejected,
                          "guard rejected scheduled run of " + instance.str() +
                              "::" + junction.str());
      }
      return make_error(Errc::kTimeout, "call to " + instance.str() +
                                            "::" + junction.str() +
                                            " timed out");
    }
    // Woken by eval completions, guard verdicts, and state transitions; no
    // poll slice needed on either scheduler path.
    if (!blocking.has_value()) blocking.emplace();
    if (deadline.is_infinite()) {
      inst->cv.wait(lock);
    } else {
      inst->cv.wait_until(lock, deadline.when());
    }
  }
  return Status::ok_status();
}

KvTable& Runtime::table(Symbol instance, Symbol junction) {
  auto* inst = find(instance);
  CSAW_CHECK(inst != nullptr) << "unknown instance '" << instance << "'";
  std::scoped_lock lock(inst->mu);
  auto* jrt = find_junction(*inst, junction);
  CSAW_CHECK(jrt != nullptr) << "unknown junction '" << junction << "'";
  CSAW_CHECK(jrt->table != nullptr)
      << instance << "::" << junction << " has no table (never started)";
  return *jrt->table;
}

std::uint64_t Runtime::runs_completed(Symbol instance, Symbol junction) const {
  auto* inst = find(instance);
  CSAW_CHECK(inst != nullptr) << "unknown instance '" << instance << "'";
  std::scoped_lock lock(inst->mu);
  auto* jrt = find_junction(*inst, junction);
  CSAW_CHECK(jrt != nullptr) << "unknown junction '" << junction << "'";
  return jrt->completed;
}

std::uint64_t Runtime::junction_evals(Symbol instance, Symbol junction) const {
  auto* inst = find(instance);
  CSAW_CHECK(inst != nullptr) << "unknown instance '" << instance << "'";
  std::scoped_lock lock(inst->mu);
  auto* jrt = find_junction(*inst, junction);
  CSAW_CHECK(jrt != nullptr) << "unknown junction '" << junction << "'";
  return jrt->entity != nullptr
             ? jrt->entity->eval_count.load(std::memory_order_relaxed)
             : 0;
}

std::vector<obs::TableCost> Runtime::live_table_costs() const {
  std::vector<obs::TableCost> rows;
  if (profiler_ == nullptr) return rows;
  // reg_mu_ -> inst->mu nests in the heartbeat path's order.
  std::scoped_lock reg_lock(reg_mu_);
  for (const auto& [name, inst] : instances_) {
    std::scoped_lock lock(inst->mu);
    if (inst->state != InstanceRt::State::kRunning) continue;
    obs::TableCost row;
    row.node = profiler_->node();
    row.instance = name.str();
    for (const auto& jrt : inst->junctions) {
      if (jrt->table == nullptr) continue;
      row.keys += jrt->table->key_count();
      row.writes += jrt->table->counters().applied;
      if (jrt->wal != nullptr) {
        row.wal_bytes += jrt->wal->total_appended_bytes();
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<obs::LinkCost> Runtime::live_link_costs() const {
  std::vector<obs::LinkCost> rows;
  if (profiler_ == nullptr || tcp_ == nullptr) return rows;
  for (const auto& [peer, stats] : tcp_->peer_stats()) {
    obs::LinkCost row;
    row.node = profiler_->node();
    row.peer = peer;
    row.frames_sent = stats.frames_sent;
    row.bytes_sent = stats.bytes_sent;
    row.queue_drops = stats.queue_drops;
    row.reconnects = stats.reconnects;
    rows.push_back(std::move(row));
  }
  return rows;
}

obs::CostProfile Runtime::cost_profile() const {
  if (profiler_ == nullptr) return {};
  return profiler_->snapshot(live_table_costs(), live_link_costs());
}

Runtime::InstanceRt* Runtime::find(Symbol instance) const {
  std::scoped_lock lock(reg_mu_);
  auto it = instances_.find(instance);
  return it == instances_.end() ? nullptr : it->second.get();
}

Runtime::JunctionRt* Runtime::find_junction(InstanceRt& inst,
                                            Symbol junction) const {
  for (auto& jrt : inst.junctions) {
    if (jrt->desc.name == junction) return jrt.get();
  }
  return nullptr;
}

void Runtime::run_junction_body(InstanceRt& inst, JunctionRt& jrt) {
  obs::JunctionProfile* prof =
      jrt.entity != nullptr ? jrt.entity->prof : nullptr;
  const bool timed = options_.trace_sink != nullptr || prof != nullptr;
  // This run's span: child of the most recently delivered traced push (a
  // cross-instance edge), root of a fresh trace otherwise. The body's own
  // pushes nest under it via the thread-local context.
  const bool tracing = options_.trace_sink != nullptr;
  obs::TraceContext run_ctx;
  std::uint64_t cause_span = 0;
  if (tracing) {
    obs::TraceContext cause;
    {
      std::scoped_lock lock(inst.mu);
      cause = jrt.last_delivered;
      jrt.last_delivered = {};
    }
    run_ctx.trace_id = cause.valid() ? cause.trace_id : new_trace_id();
    run_ctx.span_id = new_trace_id();
    // The run span's HLC is taken *before* the body: pushes made inside
    // the body are its children and must not timestamp before it.
    run_ctx.hlc = hlc_.tick();
    cause_span = cause.span_id;
  }
  jrt.table->begin_run();
  const SteadyTime t0 = timed ? steady_now() : SteadyTime{};
  JunctionEnv env(*this, inst.desc.name, jrt.desc.name, *jrt.table,
                  inst.abort);
  {
    ScopedTraceContext scope(run_ctx);
    jrt.desc.body(env);
  }
  jrt.table->end_run();
  {
    std::scoped_lock lock(inst.mu);
    ++jrt.completed;
  }
  inst.cv.notify_all();
  if (prof != nullptr) prof->fires.fetch_add(1, std::memory_order_relaxed);
  if (timed) {
    const auto dt = static_cast<std::uint64_t>(
        std::chrono::duration_cast<Nanos>(steady_now() - t0).count());
    if (prof != nullptr) {
      prof->body_wall_ns.fetch_add(dt, std::memory_order_relaxed);
    }
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::kJunctionRan;
    e.instance = inst.desc.name;
    e.junction = jrt.desc.name;
    e.value_ns = dt;
    e.trace_id = run_ctx.trace_id;
    e.span_id = run_ctx.span_id;
    e.parent_span = cause_span;
    e.hlc = run_ctx.hlc;  // span start, not record time (see above)
    record_event(std::move(e));
  }
}

// --- event-driven path ------------------------------------------------------

EvalResult Runtime::junction_eval(InstanceRt& inst, JunctionRt& jrt) {
  {
    std::scoped_lock lock(inst.mu);
    // Stale queued wake for a stopped/crashed instance: bail before
    // touching the table (it may be recovering or gone).
    if (inst.state != InstanceRt::State::kRunning) return EvalResult::kIdle;
    jrt.eval_active = true;
  }
  t_current_inst = &inst;
  t_current_entity = jrt.entity;
  const EvalResult result = junction_eval_inner(inst, jrt);
  t_current_entity = nullptr;
  t_current_inst = nullptr;
  {
    std::scoped_lock lock(inst.mu);
    jrt.eval_active = false;
  }
  inst.cv.notify_all();  // stop() quiesce and call()'s deadline-edge grace
  return result;
}

EvalResult Runtime::junction_eval_inner(InstanceRt& inst, JunctionRt& jrt) {
  if (inst.abort.load(std::memory_order_relaxed)) return EvalResult::kIdle;
  jrt.table->apply_pending();
  bool requested = false;
  bool want = false;
  {
    std::scoped_lock lock(inst.mu);
    requested = jrt.pending_schedules > 0;
    want = jrt.desc.auto_schedule || requested;
  }
  // Woken only to absorb pending updates (manual junction, no request).
  if (!want) return EvalResult::kSpurious;
  const RuntimeView rtv(this);
  if (jrt.desc.guard && !jrt.desc.guard(*jrt.table, rtv)) {
    if (requested) {
      {
        std::scoped_lock lock(inst.mu);
        ++jrt.guard_rejections;
      }
      // One blocked-on-guard episode emits one trace event, however many
      // evals re-check the guard before it finally passes.
      if (!jrt.blocked_traced) {
        jrt.blocked_traced = true;
        if (ins_.guard_rejected != nullptr) ins_.guard_rejected->add();
        trace(obs::TraceEvent::Kind::kJunctionBlocked, inst.desc.name,
              jrt.desc.name);
      }
    }
    // The wake set cannot see all of this guard's inputs (hand-written
    // GuardFn, non-hosted remote dep, detector-fed liveness): re-check on
    // the timer wheel while the junction still wants to run.
    if (jrt.volatile_guard) {
      // A long stretch of re-polls with the verdict stuck at "no" means the
      // fallback budget is burning on a guard nothing is flipping: worth one
      // anomaly event per stuck stretch (counter resets when the guard
      // finally passes).
      const auto threshold = options_.scheduler.wildcard_anomaly_repolls;
      ++jrt.volatile_repolls;
      if (threshold != 0 && !jrt.repoll_anomaly_traced &&
          jrt.volatile_repolls >= threshold) {
        jrt.repoll_anomaly_traced = true;
        if (options_.trace_sink != nullptr) {
          obs::TraceEvent e;
          e.kind = obs::TraceEvent::Kind::kCustom;
          e.instance = inst.desc.name;
          e.junction = jrt.desc.name;
          e.label = Symbol("wildcard_repoll_stuck");
          e.value_ns = jrt.volatile_repolls;
          record_event(std::move(e));
        }
      }
      sched_->poll_after(jrt.entity, options_.scheduler.timer_resolution);
    }
    return EvalResult::kSpurious;
  }
  jrt.blocked_traced = false;
  jrt.volatile_repolls = 0;
  jrt.repoll_anomaly_traced = false;
  if (!jrt.desc.auto_schedule) {
    std::scoped_lock lock(inst.mu);
    if (jrt.pending_schedules == 0) return EvalResult::kSpurious;
    --jrt.pending_schedules;
    ++jrt.consumed;
  }
  run_junction_body(inst, jrt);
  // Auto junctions re-check their guard after every run (the body may have
  // re-enabled it with a local write, which the listener deliberately does
  // not self-wake on); manual junctions drain remaining requests.
  bool more = jrt.desc.auto_schedule;
  if (!more) {
    std::scoped_lock lock(inst.mu);
    more = jrt.pending_schedules > 0;
  }
  return more ? EvalResult::kRearm : EvalResult::kIdle;
}

void Runtime::on_table_change(JunctionRt& jrt, Symbol key,
                              KvTable::Change change) {
  // Called with the table mutex held: wake() only touches scheduler-
  // internal leaf state, never the table or InstanceRt::mu.
  if (change == KvTable::Change::kEnqueued) {
    // Pending updates must become visible promptly whether or not they can
    // flip the guard -- host logic reads tables via rt.table() and remote
    // guards @-read applied state -- so an enqueue always wakes the owner
    // to apply_pending, mirroring the old poller's visibility.
    sched_->wake(jrt.entity);
    return;
  }
  const bool bulk = !key.valid();  // snapshot restore: any key moved
  if (t_current_entity != jrt.entity &&
      (bulk || jrt.wake_wildcard || jrt.wake_keys.contains(key))) {
    sched_->wake(jrt.entity);
  }
  // sub_mu: a late add_instance may be appending a subscriber right now.
  // wake() is lock-cheap (scheduler leaf mutexes only), so holding sub_mu
  // across the loop is fine.
  std::scoped_lock sub_lock(jrt.sub_mu);
  for (const auto& sub : jrt.subscribers) {
    if (bulk || sub.keys.contains(key)) sched_->wake(sub.entity);
  }
}

void Runtime::ensure_scheduler_started() {
  std::call_once(sched_start_once_, [this] {
    resolve_wake_plans();
    sched_->start();
  });
}

void Runtime::resolve_wake_plans() {
  std::scoped_lock lock(reg_mu_);
  for (auto& [name, inst] : instances_) resolve_wake_plan_locked(*inst);
  wake_plans_resolved_ = true;
}

void Runtime::resolve_wake_plan_locked(InstanceRt& inst) {
  for (auto& jrt : inst.junctions) {
    if (!jrt->desc.guard) continue;  // always schedulable: no wake deps
    const WakePlan& plan = jrt->desc.wake_plan;
    if (!plan.analyzed) {
      // Hand-written GuardFn: any change may matter, and so may state we
      // cannot observe at all.
      jrt->wake_wildcard = true;
      jrt->volatile_guard = true;
      if (ins_.sched_wildcard_guards != nullptr) {
        ins_.sched_wildcard_guards->add(1);
      }
      continue;
    }
    jrt->wake_wildcard = plan.wildcard;
    if (plan.wildcard && ins_.sched_wildcard_guards != nullptr) {
      ins_.sched_wildcard_guards->add(1);
    }
    jrt->wake_keys.insert(plan.keys.begin(), plan.keys.end());
    for (const auto& dep : plan.remote) {
      JunctionRt* target = nullptr;
      if (auto it = instances_.find(dep.at.instance); it != instances_.end()) {
        target = find_junction(*it->second, dep.at.junction);
      }
      if (target == nullptr) {
        // Hosted on a mesh peer, unknown, or simply not registered yet:
        // its table never notifies us (or cannot be subscribed to now), so
        // poll.
        jrt->volatile_guard = true;
        continue;
      }
      // sub_mu: the target may already be running, with its table listener
      // iterating this list under the table mutex.
      std::scoped_lock sub_lock(target->sub_mu);
      target->subscribers.push_back(JunctionRt::Subscriber{
          jrt->entity,
          std::unordered_set<Symbol>(dep.keys.begin(), dep.keys.end())});
    }
    for (const Symbol watched : plan.liveness) {
      if (auto it = instances_.find(watched); it != instances_.end()) {
        // it->second->mu: the watched instance may be mid-start/stop,
        // iterating its watcher list. reg_mu_ -> inst.mu matches the
        // heartbeat path's order.
        std::scoped_lock watch_lock(it->second->mu);
        it->second->lifecycle_watchers.push_back(jrt->entity);
      } else {
        // Remote liveness is detector-fed and flips without any local
        // event: poll.
        jrt->volatile_guard = true;
      }
    }
  }
}

void Runtime::deliver_local(Envelope&& env) {
  constructed_.wait(false, std::memory_order_acquire);
  deliver(std::move(env));
}

void Runtime::deliver(Envelope&& env) {
  // Receiving any traced frame advances our hybrid logical clock past the
  // sender's, which is what keeps cross-instance timestamps causal.
  if (env.ctx.has_value()) hlc_.merge(env.ctx->hlc);
  // Authority-epoch bookkeeping (split-brain prevention): any frame carrying
  // a higher epoch teaches us the new view; a kUpdate carrying a *lower*
  // non-zero epoch comes from a node that has not yet learned it lost
  // authority (e.g. a restarted primary) and is rejected below. Epoch 0 is
  // "unversioned" -- frames from runtimes without durability pass freely.
  if (env.epoch != 0) observe_epoch(env.epoch);
  if (env.kind == Envelope::Kind::kHeartbeat) {
    handle_heartbeat(env);
    return;
  }
  if (env.kind == Envelope::Kind::kAck) {
    std::scoped_lock lock(ack_mu_);
    if (auto it = ack_slots_.find(env.seq); it != ack_slots_.end()) {
      AckSlot& slot = *it->second;
      ack_slots_.erase(it);
      slot.result = env.nack ? Status(make_error(Errc::kUnreachable,
                                                 env.nack_reason))
                             : Status::ok_status();
      // Under ack_mu_: the slot dies as soon as its push sees the result.
      slot.cv.notify_one();
    }
    return;
  }

  if (env.epoch != 0 && env.epoch < epoch()) {
    if (ins_.epoch_rejected != nullptr) ins_.epoch_rejected->add();
    if (options_.trace_sink != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::TraceEvent::Kind::kCustom;
      e.peer = env.from_instance;
      e.seq = env.seq;
      e.value_ns = env.epoch;
      e.label = Symbol("epoch_rejected");
      record_event(std::move(e));
    }
    send_ack(env, true, "stale epoch " + std::to_string(env.epoch) +
                            " < " + std::to_string(epoch()));
    return;
  }

  auto* inst = find(env.to.instance);
  if (inst == nullptr) {
    send_ack(env, true, "unknown instance " + env.to.instance.str());
    return;
  }
  // The ack goes out after inst->mu is released: on a zero-delay link it is
  // delivered inline, re-entering the router on this thread (router.hpp,
  // "Deadlock freedom").
  bool nack = true;
  std::string reason;
  {
    std::scoped_lock lock(inst->mu);
    if (inst->state != InstanceRt::State::kRunning) {
      // Without nack_when_down the push vanishes; the sender discovers the
      // failure by timeout.
      if (!options_.nack_when_down) return;
      reason = env.to.qualified() + " is down";
    } else if (auto* jrt = find_junction(*inst, env.to.junction);
               jrt == nullptr) {
      reason = "unknown junction " + env.to.qualified();
    } else {
      auto st = jrt->table->enqueue(env.update);
      if (st.ok() && env.ctx.has_value()) {
        // The next run of this junction is causally downstream of this push.
        jrt->last_delivered = *env.ctx;
      }
      inst->cv.notify_all();
      nack = !st.ok();
      if (nack) reason = st.error().to_string();
    }
  }
  send_ack(env, nack, std::move(reason));
}

void Runtime::send_ack(const Envelope& original, bool nack,
                       std::string reason) {
  if (original.seq == 0) return;  // fire-and-forget
  Envelope ack;
  ack.kind = Envelope::Kind::kAck;
  ack.seq = original.seq;
  ack.from_instance = original.to.instance;
  ack.to = JunctionAddr{original.from_instance, Symbol()};
  ack.nack = nack;
  ack.nack_reason = std::move(reason);
  ack.epoch = epoch();
  if (original.ctx.has_value()) {
    // Echo the push's context with our clock reading, so the sender's HLC
    // merges the receiver's time when the ack lands.
    ack.ctx = obs::TraceContext{original.ctx->trace_id, original.ctx->span_id,
                                hlc_.tick()};
  }
  router_->send(std::move(ack), 16);
}

}  // namespace csaw
