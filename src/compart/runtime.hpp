// The distributed runtime (libcompart equivalent, paper S3 "Running software
// composed using C-Saw").
//
// An *instance* is an independently-failing unit of execution hosting one or
// more *junctions*; each junction owns a KV table and a body (in this repo,
// the body is produced by the DSL interpreter in src/core, but the runtime
// only sees an opaque callable -- the layering mirrors the paper, where
// libcompart knows nothing about the DSL).
//
// When an instance starts, "its junctions are started concurrently" (paper
// S6): junctions are entities on a fixed event-driven worker pool
// (compart/sched.hpp). Each eval applies pending KV updates, checks the
// guard, and runs the body if the junction is scheduled (auto, or requested
// via schedule()/call()). Evals are triggered by the events that can change
// the verdict -- KV change notifications routed through each junction's
// statically-analyzed wake set (JunctionDesc::wake_plan), schedule requests,
// instance lifecycle transitions -- so idle junctions cost zero CPU. Guards
// the analysis cannot see through are re-polled by a timer wheel instead.
// Bodies that block for long stretches (the fail-over pattern's reactivate
// watchdog sits in `wait` for its whole inactivity window) announce it via
// support/blocking.hpp and the pool grows a spare so siblings never starve.
// (The legacy thread-per-junction polling mode was an ablation; it is gone,
// and bench/sched_scale.cpp now ablates against the wildcard+timer fallback
// instead.)
//
// Remote updates are ack'd: the pushing junction blocks until the target
// applied the update (or a deadline/crash intervenes), which is what lets
// the DSL's `otherwise[t]` observe remote failure. Fire-and-forget mode
// exists for the ablation bench.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "compart/detector.hpp"
#include "compart/link.hpp"
#include "compart/message.hpp"
#include "compart/router.hpp"
#include "compart/sched.hpp"
#include "compart/tcp_options.hpp"
#include "kv/table.hpp"
#include "obs/expose.hpp"
#include "obs/hlc.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "support/result.hpp"

namespace csaw {

class Runtime;
class JunctionEnv;

// Read-only view of runtime-wide state available to guards and `verify`:
// liveness of instances (the paper's S(i) predicate) and -- for `verify`'s
// ternary-logic f@P checks only -- remote proposition reads.
class RuntimeView {
 public:
  [[nodiscard]] bool instance_running(Symbol instance) const;
  // Error (kUnreachable) if the instance is not running, per the paper:
  // "verify will return an error if it needs to evaluate f@P and f is not
  // running".
  Result<bool> remote_prop(const JunctionAddr& at, Symbol prop) const;

 private:
  friend class Runtime;
  explicit RuntimeView(const Runtime* rt) : rt_(rt) {}
  const Runtime* rt_;
};

// Guards read their own table through brief per-key locked reads (not a held
// table lock) so that guards containing remote reads (@-formulas, S(i))
// cannot deadlock two instances that guard on each other.
using GuardFn = std::function<bool(const KvTable&, const RuntimeView&)>;
using BodyFn = std::function<void(JunctionEnv&)>;

struct JunctionDesc {
  Symbol name;
  KvTable::Spec table_spec;
  GuardFn guard;  // null = always schedulable
  BodyFn body;
  // Auto junctions run whenever their guard holds (back-ends driven purely
  // by KV state); manual junctions run when host logic schedule()s them
  // (front-ends driven by client requests).
  bool auto_schedule = false;
  // What `guard` observes, from static analysis of its compiled formula
  // (core/deps.hpp); the event-driven scheduler wakes the junction only on
  // changes this plan names. Leave default-initialized (analyzed = false)
  // for hand-written GuardFns: the runtime then assumes any change matters
  // and timer-polls the guard. Ignored when guard is null.
  WakePlan wake_plan{};
};

struct InstanceDesc {
  Symbol name;
  Symbol type;
  std::vector<JunctionDesc> junctions;
};

// How strictly the DSL engine treats csaw-lint diagnostics at launch time
// (RuntimeOptions::validate).
enum class ValidateMode {
  kOff,     // no pre-launch analysis
  kWarn,    // analyze, report to stderr, launch anyway
  kStrict,  // refuse to launch a program with error-severity diagnostics
};

enum class Transport {
  kInProcess,    // router delivers via direct calls (default)
  kTcpLoopback,  // every envelope crosses a real 127.0.0.1 TCP connection
  kTcpMesh,      // multi-process: remote instances reached via per-peer TCP
                 // connections configured by RuntimeOptions::tcp
};

struct RuntimeOptions {
  LinkModel default_link = LinkModel::in_process();
  Transport transport = Transport::kInProcess;
  // TCP transport configuration (both kTcpLoopback and kTcpMesh): listener
  // address, peer map, instance placement, frame/queue bounds, reconnect
  // backoff (see compart/tcp_options.hpp). In kTcpMesh mode, envelopes for
  // instances not hosted by this runtime are sent to the peer named in
  // tcp.remote_instances; unroutable envelopes fall back to local delivery,
  // which nacks them as unknown.
  TcpOptions tcp{};
  // If true, a push to a stopped/crashed instance nacks at delivery time;
  // if false it vanishes and the sender discovers failure by timeout (the
  // distributed-faithful mode used by the fail-over benches).
  bool nack_when_down = true;
  // Fire-and-forget pushes (ablation; breaks otherwise-failure detection).
  bool acks_enabled = true;
  // Event-driven worker pool sizing, timer-wheel resolution, and the
  // wildcard-repoll anomaly threshold (compart/sched.hpp).
  SchedulerOptions scheduler{};
  // Static validation (core/analyze) of DSL programs before launch. The
  // runtime itself only sees opaque callables, so enforcement lives in the
  // DSL engine (core/interp): kWarn prints the analyzer's report to stderr
  // and launches anyway; kStrict refuses (kInvalidProgram) to launch a
  // program carrying any error-severity diagnostic. Hand-assembled
  // InstanceDescs are unaffected.
  ValidateMode validate = ValidateMode::kOff;
  std::uint64_t seed = 1;
  // Observability (src/obs). Both pointers are borrowed, may be null, and
  // must outlive the Runtime; null disables the corresponding hooks (each
  // hook is a single predictable branch, so disabled runs pay nothing
  // measurable). `metrics` receives the process-wide counters, gauges and
  // histograms listed in DESIGN.md ("Metrics"); `trace_sink` receives every
  // TraceEvent.
  obs::TraceSink* trace_sink = nullptr;
  obs::Metrics* metrics = nullptr;
  // HTTP exposition of `metrics` (and tracer buffer gauges) on
  // 127.0.0.1:<port>, serving /metrics in Prometheus text format, /healthz
  // and /profile. -1 disables; 0 binds an ephemeral port (read it back with
  // Runtime::metrics_http_port()). Requires `metrics` to be set.
  int metrics_http_port = -1;
  // Continuous cost profiling (obs/profile.hpp), the only home of the
  // per-junction and per-link costs. `profiler` is borrowed, may be null,
  // and must outlive the Runtime. When set, the scheduler and transport
  // record per-junction evals/fires/CPU/queue-delay and per-link RTT/queue-
  // depth into it; /profile serves its live CostProfile and /metrics renders
  // the same snapshot as labelled families. When `profiler` is null but
  // `profile_out` names a file or `metrics` is set, the runtime owns a
  // private profiler; with `profile_out` it writes the final CostProfile
  // JSON there at destruction (the common single-runtime case; pass an
  // external profiler to span several runtimes in one artifact).
  obs::Profiler* profiler = nullptr;
  std::string profile_out;
  // Crash recovery (kv/wal.hpp). When non-empty, every junction table is
  // backed by a write-ahead log + snapshots under this directory:
  // `start(i)` recovers each table's acknowledged state (applied values AND
  // acked-but-pending updates) from disk instead of re-initializing from
  // the declarations, and the runtime's authority epoch persists in
  // <dir>/epoch. One directory per OS process -- two live runtimes sharing
  // it would interleave logs.
  std::string durability_dir;
  // Per-table compaction threshold (snapshot + truncate once the log
  // exceeds this many bytes; 0 = never compact).
  std::size_t wal_compact_bytes = std::size_t{1} << 20;
};

// One ack'd update push, with named fields (replaces the old positional
// `push(to, update, deadline, from, abort)` signature). Designated
// initializers keep call sites self-describing:
//   rt.push({.to = addr("g", "j"), .update = Update::assert_prop(kWork),
//            .deadline = Deadline::after(1s), .from = Symbol("host")});
struct PushRequest {
  JunctionAddr to;
  Update update;
  // Blocks until ack or this deadline; infinite by default.
  Deadline deadline = {};
  // Sending instance: used for link selection/partitions and ack routing.
  Symbol from;
  // Optional sender abort flag (a crashing sender bails out of the wait).
  const std::atomic<bool>* abort = nullptr;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Registration. Thread-safe: the registry lock is held across the whole
  // operation (duplicate check, scheduler entity creation, and -- when the
  // pool already started -- incremental wake-plan resolution), so
  // concurrent add_instance calls and post-start registration are safe.
  // Registering a duplicate name is a fatal CSAW_CHECK.
  void add_instance(InstanceDesc desc);

  // --- lifecycle ----------------------------------------------------------
  // Starting an already-started instance or stopping a stopped one is a
  // kLifecycle error (paper S6 "Start and stop"). Restarting a stopped or
  // crashed instance re-initializes its KV tables from the declarations.
  Status start(Symbol instance);
  Status stop(Symbol instance);
  // Fault injection: the instance aborts mid-body and drops all state.
  void crash(Symbol instance);
  [[nodiscard]] bool is_running(Symbol instance) const;
  // Stops every running instance (also done by the destructor).
  void shutdown();

  // --- messaging -----------------------------------------------------------
  // Pushes `req.update` to the junction at `req.to`, blocking until the
  // target acked or the deadline expired. Returns:
  //   ok            -- the target's table applied (or queued) the update
  //   kUnreachable  -- nacked (target down/unknown), or the sender aborted
  //   kTimeout      -- no ack before `req.deadline` (lost/partitioned/slow)
  //
  // When tracing is enabled, each push is a span of the current distributed
  // trace: pushes made from inside a junction body become children of that
  // run's span, and the context travels to the target in the envelope (over
  // the wire in TCP mode), so one logical request is one trace however many
  // instances it hops through.
  Status push(PushRequest req);

  // --- host-side scheduling & injection --------------------------------------
  // Three entry points with one shared contract -- on success:
  //   inject()    the update is in the junction's table (applied or queued);
  //               nothing has run yet.
  //   schedule()  one future run of the (manual) junction is requested;
  //               returns without waiting for it.
  //   call()      that run has *completed* (schedule + block).
  // All three return kUndefinedName for an unknown instance/junction and
  // kUnreachable when the instance is not running. call() additionally
  // distinguishes why a run never completed before the deadline:
  //   kGuardRejected -- the junction evaluated its guard and the guard said
  //                     no while our schedule request was pending
  //   kTimeout       -- the deadline expired without a guard verdict (the
  //                     junction was busy or the deadline was too tight)
  //   kUnreachable   -- the instance stopped/crashed mid-call.

  // Synchronously injects an update into a junction's table, bypassing the
  // router: models an external client mutating junction state (the paper's
  // "Req is asserted externally to process client request", Fig 13).
  Status inject(const JunctionAddr& to, Update update);
  // Requests one run of a (manual) junction.
  Status schedule(Symbol instance, Symbol junction);
  // schedule() + block until that run completes.
  Status call(Symbol instance, Symbol junction, Deadline deadline = {});

  // --- accessors --------------------------------------------------------------
  // Table access for host logic and tests. The pointer stays valid while
  // the instance is running; a restart swaps in a fresh table.
  KvTable& table(Symbol instance, Symbol junction);
  [[nodiscard]] RuntimeView view() const { return RuntimeView(this); }
  Router& router() { return *router_; }
  // The TCP transport (null unless transport is kTcpLoopback/kTcpMesh):
  // bound listener port, dynamic peer registration, per-peer stats.
  [[nodiscard]] class TcpTransport* tcp_transport() const {
    return tcp_.get();
  }
  // Removes a peer from the cluster: transport routes and queued frames go
  // first (TcpTransport::remove_peer), then the failure detector forgets it
  // so a departed peer neither contributes instance-alive evidence nor keeps
  // flapping detector_* counters as its last frames drain. No-op (returns
  // false) without a TCP transport or when the peer is unknown to both.
  bool remove_peer(const std::string& peer);
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  // Observability sinks (null when disabled).
  [[nodiscard]] obs::TraceSink* trace_sink() const {
    return options_.trace_sink;
  }
  [[nodiscard]] obs::Metrics* metrics() const { return options_.metrics; }
  // The cost profiler (borrowed or runtime-owned; null when profiling is
  // off -- none of RuntimeOptions::profiler, profile_out, metrics was set).
  [[nodiscard]] obs::Profiler* profiler() const { return profiler_; }
  // Live CostProfile snapshot -- the profiler's junction slots and folded
  // rows plus current table/link rows; empty when profiling is off. Also
  // what GET /profile serves and the labelled /metrics families render.
  [[nodiscard]] obs::CostProfile cost_profile() const;
  // Bound /metrics port (-1 when the HTTP listener is disabled).
  [[nodiscard]] int metrics_http_port() const {
    return exposer_ ? exposer_->port() : -1;
  }
  // The runtime's hybrid logical clock (merged on every traced receive).
  [[nodiscard]] obs::HlcClock& hlc() { return hlc_; }

  // --- split-brain prevention ---------------------------------------------
  // The authority epoch: a view number that advances only on explicit
  // takeover (bump_epoch, called by failover logic when a spare assumes
  // authority), never on mere restart. Every outgoing frame carries it;
  // receivers adopt higher epochs from frames and reject updates carrying
  // strictly lower non-zero epochs (counted as `epoch_rejected`, traced,
  // nacked "stale epoch"). A revived primary therefore keeps its persisted
  // pre-takeover epoch and finds its writes refused until it learns the new
  // one. Persisted in <durability_dir>/epoch when durability is on.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  std::uint64_t bump_epoch();

  // The heartbeat failure detector (null unless the TCP transport runs with
  // heartbeat_interval > 0). When present, is_running() consults it for
  // instances not hosted by this runtime, which is what lets watchdog S(i)
  // guards see remote liveness.
  [[nodiscard]] FailureDetector* detector() const { return detector_.get(); }

  // Total completed junction runs (progress metric for benches).
  [[nodiscard]] std::uint64_t runs_completed(Symbol instance,
                                             Symbol junction) const;
  // Total scheduler evaluations of the junction (guard checks + runs).
  // Tests assert wake-set precision with this: an unrelated key write must
  // not move it.
  [[nodiscard]] std::uint64_t junction_evals(Symbol instance,
                                             Symbol junction) const;

  // The calling thread's active trace context: the span of the junction run
  // currently executing on it, or an invalid context elsewhere. Pushes made
  // with an active context become its children.
  [[nodiscard]] static obs::TraceContext current_context();

 private:
  friend class RuntimeView;
  friend class JunctionEnv;

  struct JunctionRt {
    JunctionDesc desc;
    std::unique_ptr<KvTable> table;
    std::unique_ptr<Wal> wal;  // non-null only while durability is on
    std::uint64_t pending_schedules = 0;  // guarded by InstanceRt::mu
    std::uint64_t completed = 0;
    // Requests a manual junction's runs have taken off pending_schedules
    // (guarded by InstanceRt::mu). Runs complete in the order they take
    // them, so the run serving a call() completes as the
    // (consumed + pending)-th: call() waits for that one, not for a run
    // already in flight with an earlier request.
    std::uint64_t consumed = 0;
    // Guard evaluations that said no while a schedule request was pending
    // (guarded by InstanceRt::mu); call() diffs this to tell guard
    // rejection apart from timeout.
    std::uint64_t guard_rejections = 0;
    // A guard/body evaluation is in flight (guarded by InstanceRt::mu).
    // stop() quiesces on it in event mode; call() uses it at the deadline
    // edge to avoid misreporting a mid-body run as kTimeout.
    bool eval_active = false;
    // Context of the most recently delivered traced update (guarded by
    // InstanceRt::mu); the next body run adopts it as its causal parent.
    obs::TraceContext last_delivered;

    // --- event-driven scheduling ------------------------------------------
    Scheduler::Entity* entity = nullptr;
    // Resolved from desc.wake_plan before this junction's instance first
    // starts (at the first runtime-wide start(), or at add_instance for
    // instances registered after that), immutable once its table listener
    // is installed: which of this junction's own (applied) keys can flip
    // its guard...
    std::unordered_set<Symbol> wake_keys;
    bool wake_wildcard = false;
    // ...and whether the guard also depends on state whose changes the
    // runtime cannot observe (hand GuardFns, non-hosted remote/liveness
    // deps): such guards are re-polled by the scheduler's timer wheel
    // while the junction wants to run.
    bool volatile_guard = false;
    // Junctions whose guards @-read this junction's table (wake on apply).
    // Guarded by sub_mu: a late add_instance may subscribe to a junction
    // whose table listener is concurrently iterating this list.
    struct Subscriber {
      Scheduler::Entity* entity;
      std::unordered_set<Symbol> keys;
    };
    std::mutex sub_mu;
    std::vector<Subscriber> subscribers;
    // Touched only inside this junction's own (serialized) evals.
    bool blocked_traced = false;
    // Consecutive volatile-guard timer re-polls whose guard verdict did not
    // change; crossing SchedulerOptions::wildcard_anomaly_repolls emits one
    // `wildcard_repoll_stuck` trace event. Touched only inside evals.
    std::uint64_t volatile_repolls = 0;
    bool repoll_anomaly_traced = false;
  };

  struct InstanceRt {
    enum class State { kDown, kRunning, kStopping, kCrashed };

    InstanceDesc desc;
    mutable std::mutex mu;
    std::condition_variable cv;
    State state = State::kDown;
    bool started_before = false;  // distinguishes started vs restarted
    std::atomic<bool> abort{false};
    std::vector<std::unique_ptr<JunctionRt>> junctions;
    // Entities whose guards test S(this instance); woken on start/stop.
    // Guarded by mu: wake-plan resolution for a late-added instance may
    // append while this instance is starting or stopping.
    std::vector<Scheduler::Entity*> lifecycle_watchers;
  };

  // Metric handles resolved once at construction (when options_.metrics is
  // set); recording is then atomic-only.
  struct Instruments {
    obs::Counter* push_sent = nullptr;
    obs::Counter* push_acked = nullptr;
    obs::Counter* push_nacked = nullptr;
    obs::Counter* push_timeout = nullptr;
    obs::Counter* junction_scheduled = nullptr;
    obs::Counter* guard_rejected = nullptr;
    obs::Counter* kv_applied = nullptr;
    obs::Counter* instances_started = nullptr;
    obs::Counter* instances_stopped = nullptr;
    obs::Counter* instances_crashed = nullptr;
    obs::Counter* instances_restarted = nullptr;
    obs::Counter* epoch_rejected = nullptr;
    obs::Counter* epoch_adopted = nullptr;
    obs::Counter* wal_recoveries = nullptr;
    obs::Counter* wal_replayed_records = nullptr;
    obs::Counter* wal_tail_torn = nullptr;
    obs::Histogram* push_latency_ns = nullptr;
    // Junctions whose wake plans resolved to wildcard+timer fallback (the
    // runtime twin of csaw-lint's wake-coverage report); set during
    // wake-plan resolution.
    obs::Gauge* sched_wildcard_guards = nullptr;
  };

  // Records one trace event, stamping its HLC from the runtime clock if the
  // caller left it unset (no-op when tracing is disabled).
  void record_event(obs::TraceEvent e);
  // Convenience wrapper for context-free events.
  void trace(obs::TraceEvent::Kind kind, Symbol instance, Symbol junction = {},
             Symbol peer = {}, std::uint64_t seq = 0,
             std::uint64_t value_ns = 0);
  // Fresh process-unique 64-bit id for traces and spans (never zero).
  std::uint64_t new_trace_id();

  // Adopts a higher epoch seen on a frame (persisting it when durable).
  void observe_epoch(std::uint64_t seen);
  void persist_epoch(std::uint64_t value);
  // Builds one kHeartbeat envelope (node name, epoch, running instances,
  // and -- trailing, ignored by older receivers -- an RTT probe: our steady
  // timestamp plus echoes of every peer heartbeat we have seen).
  Envelope make_heartbeat();
  // Feeds a received kHeartbeat to the detector and closes the RTT loop:
  // an echo of our own timestamp, minus the remote hold time, is one
  // round trip measured entirely on our steady clock.
  void handle_heartbeat(const Envelope& env);

  // Cost-profile row assembly (all no-ops / empty when profiler_ is null).
  [[nodiscard]] std::vector<obs::TableCost> live_table_costs() const;
  [[nodiscard]] std::vector<obs::LinkCost> live_link_costs() const;

  InstanceRt* find(Symbol instance) const;
  void deliver_local(Envelope&& env);
  JunctionRt* find_junction(InstanceRt& inst, Symbol junction) const;
  // One event-driven evaluation: apply pending, check the guard, maybe run
  // the body. The scheduler serializes evals per entity.
  EvalResult junction_eval(InstanceRt& inst, JunctionRt& jrt);
  EvalResult junction_eval_inner(InstanceRt& inst, JunctionRt& jrt);
  // One guard-approved body run with tracing/metrics.
  void run_junction_body(InstanceRt& inst, JunctionRt& jrt);
  // KvTable change listener (called with the table mutex held): routes the
  // change through the junction's wake set and its @-subscribers.
  void on_table_change(JunctionRt& jrt, Symbol key, KvTable::Change change);
  // Resolves every junction's WakePlan into wake_keys / subscribers /
  // lifecycle_watchers / volatile_guard, then starts the worker pool.
  // Runs once, at the first start(); instances registered after that are
  // resolved individually by add_instance (deps on instances that arrive
  // even later fall back to volatile polling).
  void ensure_scheduler_started();
  void resolve_wake_plans();
  // Resolves one instance's junctions against the current registry.
  // Caller holds reg_mu_.
  void resolve_wake_plan_locked(InstanceRt& inst);
  void deliver(Envelope&& env);
  void send_ack(const Envelope& original, bool nack, std::string reason);
  Status stop_locked_state(InstanceRt& inst, InstanceRt::State final_state);

  RuntimeOptions options_;
  Instruments ins_;  // all-null when options_.metrics is null
  // Cost profiling. Declared before the scheduler/transport members so the
  // owned profiler (whose slots their hot paths record into) is destroyed
  // after them. profiler_ aliases options_.profiler or owned_profiler_.
  std::unique_ptr<obs::Profiler> owned_profiler_;
  obs::Profiler* profiler_ = nullptr;
  // Last heartbeat seen from each peer node, for the RTT echo: the sender's
  // steady timestamp as received, and our steady clock at receipt (the
  // difference at echo time is the hold we report back).
  struct HbSeen {
    std::uint64_t origin_ts_ns = 0;
    std::uint64_t recv_ns = 0;
  };
  std::mutex hb_mu_;
  std::map<std::string, HbSeen> hb_seen_;
  // Guards the *structure* of instances_ (add_instance vs lookups from the
  // transport thread -- deliver and heartbeat emission start with the TCP
  // event loop, i.e. before registration is done). InstanceRt pointers are
  // stable once inserted (never erased), so holders need no further lock.
  mutable std::mutex reg_mu_;
  std::map<Symbol, std::unique_ptr<InstanceRt>> instances_;
  // Event-driven worker pool. Entities are added during add_instance; the
  // pool starts lazily at the first start().
  std::unique_ptr<Scheduler> sched_;
  std::once_flag sched_start_once_;
  bool wake_plans_resolved_ = false;  // under reg_mu_
  std::unique_ptr<class TcpTransport> tcp_;  // only in TCP transport modes
  std::unique_ptr<Router> router_;
  // Set when the constructor returns. The transport's event loop starts
  // inside the transport's constructor and may deliver a frame -- whose
  // ack leaves through router_ and tcp_ on that same thread -- before
  // either is assigned; deliver_local waits for this first.
  std::atomic<bool> constructed_{false};
  std::unique_ptr<obs::HttpExposer> exposer_;  // /metrics listener
  std::unique_ptr<FailureDetector> detector_;  // only with heartbeats on

  // Authority epoch (see epoch()); persisted under durability_dir.
  std::atomic<std::uint64_t> epoch_{0};
  std::string node_name_;  // identity in outgoing heartbeats

  // Distributed-trace identity. The id base is drawn from the system RNG at
  // construction so ids from different processes don't collide when their
  // traces are merged.
  obs::HlcClock hlc_;
  std::uint64_t id_base_ = 0;
  std::atomic<std::uint64_t> next_id_{1};

  // Ack correlation. Each acked push waits on its own slot, which lives on
  // the pusher's stack and is registered here under the push's seq until
  // the ack fills it or the push gives up; acks for seqs no longer
  // registered (abandoned pushes) are dropped on delivery.
  struct AckSlot {
    std::optional<Status> result;  // guarded by ack_mu_
    std::condition_variable cv;
  };
  std::mutex ack_mu_;
  std::unordered_map<std::uint64_t, AckSlot*> ack_slots_;
  std::atomic<std::uint64_t> next_seq_{1};
};

// Handle passed to junction bodies; the interpreter talks to the world only
// through this.
class JunctionEnv {
 public:
  JunctionEnv(Runtime& rt, Symbol instance, Symbol junction, KvTable& table,
              const std::atomic<bool>& abort)
      : rt_(rt), self_{instance, junction}, table_(table), abort_(abort) {}

  [[nodiscard]] KvTable& table() { return table_; }
  [[nodiscard]] const JunctionAddr& self() const { return self_; }
  [[nodiscard]] std::string qualified() const { return self_.qualified(); }
  [[nodiscard]] bool aborted() const {
    return abort_.load(std::memory_order_relaxed);
  }

  // Pushes on behalf of this junction: `from` and `abort` are filled in
  // with the junction's identity and crash flag (caller-set values are
  // overwritten).
  Status push(PushRequest req) {
    req.from = self_.instance;
    req.abort = &abort_;
    return rt_.push(std::move(req));
  }
  Status start_instance(Symbol name) { return rt_.start(name); }
  Status stop_instance(Symbol name) { return rt_.stop(name); }
  [[nodiscard]] RuntimeView runtime_view() const { return rt_.view(); }
  [[nodiscard]] Runtime& runtime() { return rt_; }

  // --- observability ------------------------------------------------------
  // Pattern bodies and app services emit through these without touching
  // Runtime internals; both return null when the corresponding sink is
  // disabled.
  [[nodiscard]] obs::Metrics* metrics() const { return rt_.metrics(); }
  [[nodiscard]] obs::TraceSink* trace_sink() const { return rt_.trace_sink(); }
  // Emits one app-defined `custom` event stamped with this junction's
  // identity and the enclosing run's trace context; no-op when tracing is
  // disabled.
  void trace(Symbol label, std::uint64_t value = 0) {
    if (rt_.trace_sink() == nullptr) return;
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::kCustom;
    e.instance = self_.instance;
    e.junction = self_.junction;
    e.label = label;
    e.value_ns = value;
    const auto ctx = Runtime::current_context();
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    rt_.record_event(std::move(e));
  }

 private:
  Runtime& rt_;
  JunctionAddr self_;
  KvTable& table_;
  const std::atomic<bool>& abort_;
};

}  // namespace csaw
