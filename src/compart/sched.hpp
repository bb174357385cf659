// Event-driven junction scheduler (ROADMAP item 1).
//
// The original runtime gave every junction its own thread that re-checked
// its guard every `idle_poll` (2 ms). That burns a timeslice per junction
// even when nothing changed and caps deployments at a few hundred
// junctions. This scheduler inverts the model:
//
//   * Each junction becomes an Entity with a 4-state wakeup machine
//     (idle / queued / running / running+rearm). A wake on an idle entity
//     pushes it onto a global ready queue; a wake during its eval sets the
//     rearm bit so the worker requeues it once -- wakes coalesce, evals
//     never get lost.
//   * A fixed pool of workers (SchedulerOptions::workers, default
//     max(2, min(8, hw))) drains the ready queue. Producers (KV change
//     listeners, delivery threads, schedule()) push lock-free (Vyukov
//     intrusive MPSC); only consumers serialize on a pop mutex. Idle
//     workers park on a semaphore: an idle deployment costs zero CPU.
//   * Wakes are driven by static guard analysis (core/deps.cpp): a key
//     write wakes only the junctions whose guards read that key. Guards
//     the analyzer cannot see through (hand-written GuardFns, remote
//     `@`-props on non-hosted instances, detector-fed liveness) fall back
//     to a hashed timer wheel that re-polls them at `timer_resolution`,
//     but only while they are parked wanting to run.
//   * Workers that block inside a body (`wait [t] F`, push ack, stop
//     drain) announce it through support/blocking.hpp; the pool spawns a
//     spare so runnable junctions never starve behind a parked one.
//     Spares persist until shutdown, so growth is bounded by the peak
//     number of concurrently blocked bodies.
//   * A thread that would only wait for an eval (a host thread in
//     Runtime::call) may run it itself through run_here when the entity
//     is idle: no pool handoff at either end. It is not a pool worker, so
//     its blocking attributes blocked time but never spawns a spare.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <semaphore.h>

#include "compart/message.hpp"
#include "obs/metrics.hpp"
#include "support/clock.hpp"
#include "support/symbol.hpp"

namespace csaw::obs {
struct JunctionProfile;  // obs/profile.hpp
}  // namespace csaw::obs

namespace csaw {

struct SchedulerOptions {
  // Worker pool size; 0 picks max(2, min(8, hardware_concurrency)).
  int workers = 0;
  // Timer-wheel tick for re-polling volatile guards (unanalyzed GuardFns,
  // non-hosted remote deps, liveness tests).
  std::chrono::milliseconds timer_resolution{1};
  // After this many consecutive timer re-polls of one volatile guard with
  // no verdict change, the runtime traces a `wildcard_repoll_stuck` anomaly
  // event (once per stuck stretch): the junction is burning its re-poll
  // budget on a guard nothing is flipping. 0 disables.
  std::uint64_t wildcard_anomaly_repolls = 64;
};

// What a junction's guard can observe, extracted from its compiled formula
// (core/deps.cpp). The runtime resolves this into wake subscriptions at
// start: `keys` against the junction's own table listener, `remote`
// against the named junction's table (when hosted here), `liveness`
// against instance lifecycle transitions. Anything it cannot resolve
// locally makes the junction "volatile" -- timer-wheel re-polled.
struct WakePlan {
  // Local table keys (mangled names) the guard reads.
  std::vector<Symbol> keys;
  struct RemoteDep {
    JunctionAddr at;            // whose table the guard peeks into
    std::vector<Symbol> keys;   // which of its keys
  };
  std::vector<RemoteDep> remote;
  // Instances whose S(i) liveness the guard tests.
  std::vector<Symbol> liveness;
  // Any local change may flip the guard (e.g. indexed props over a subset
  // variable whose binding the analyzer cannot enumerate).
  bool wildcard = false;
  // False for hand-written GuardFns the analyzer never saw: the runtime
  // must assume wildcard + volatile.
  bool analyzed = false;
};

// What one eval accomplished, reported by the runtime's eval callback.
enum class EvalResult {
  kIdle,      // ran (or nothing to do); park until the next wake
  kRearm,     // ran and may be runnable again immediately (auto guard)
  kSpurious,  // woke but the guard was false; park
};

class Scheduler {
 public:
  // One junction's seat in the scheduler. Lives for the scheduler's
  // lifetime; pointers handed out by add_entity stay valid until the
  // Scheduler is destroyed.
  struct Entity {
    explicit Entity(std::string name_, std::function<EvalResult()> eval_)
        : name(std::move(name_)), eval(std::move(eval_)) {}
    Entity() = default;

    std::string name;
    std::function<EvalResult()> eval;

    // Intrusive ready-queue hook (Vyukov MPSC).
    std::atomic<Entity*> next{nullptr};
    // kIdle / kQueued / kRunning / kRunningRearm.
    std::atomic<std::uint32_t> state{0};
    // steady_now() at the idle->queued transition; 0 when unset. Feeds the
    // profile slot's queue-delay histogram.
    std::atomic<std::int64_t> wake_ns{0};
    // Total evals, readable by tests asserting wake-set precision.
    std::atomic<std::uint64_t> eval_count{0};
    // Cost-profile slot (obs/profile.hpp), set once at wiring time when a
    // Profiler is attached; null means no per-junction attribution.
    obs::JunctionProfile* prof = nullptr;
    // Guarded by the scheduler's timer mutex: one pending wheel entry max.
    bool timer_armed = false;
  };

  Scheduler(SchedulerOptions options, obs::Metrics* metrics);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // The effective pool size for a requested `workers` value.
  static int resolve_workers(int requested);

  // Registers a junction. Safe before or after start() (instances may be
  // registered while others already run, e.g. the chaos harness); the
  // returned pointer is stable for the scheduler's lifetime.
  Entity* add_entity(std::string name, std::function<EvalResult()> eval);

  void start();
  // Idempotent. Callers must first ensure blocked evals have been
  // interrupted (runtime stops instances before stopping the scheduler);
  // queued entities are still drained -- their evals see the stopped
  // instance and bail.
  void stop();

  // Requests an eval. Safe from any thread, including under the caller's
  // own locks (the wake path takes only scheduler-internal leaf mutexes).
  // Coalesces: an entity is queued at most once, and a wake racing a
  // running eval sets the rearm bit instead of double-queueing.
  void wake(Entity* entity);

  // Runs one eval of an idle entity on the calling thread (kIdle ->
  // kRunning by CAS) and returns true. Returns false, running nothing, when
  // the scheduler is not started or is stopping, or the entity is already
  // queued or running. A rearm requeues the entity for the pool as a
  // worker's eval would. The caller must not be inside an eval (a nested
  // run could wait on the eval it interrupts) and must hold no lock the
  // eval takes.
  bool run_here(Entity* entity);

  // Arms a one-shot timer-wheel wake, rounded up to the wheel tick.
  // Coalesces with an already-armed timer for the same entity.
  void poll_after(Entity* entity, Nanos delay);

 private:
  static constexpr std::uint32_t kIdle = 0;
  static constexpr std::uint32_t kQueued = 1;
  static constexpr std::uint32_t kRunning = 2;
  static constexpr std::uint32_t kRunningRearm = 3;

  static constexpr std::size_t kWheelSlots = 256;

  void queue_push(Entity* entity);
  Entity* queue_pop_locked();
  void enqueue_ready(Entity* entity);
  void maybe_unpark();
  void idle_park();
  void run_entity(Entity* entity);
  void worker_main();
  void timer_main();
  void spawn_worker_locked();
  void on_worker_block();
  void on_worker_unblock();

  SchedulerOptions options_;
  int base_workers_ = 0;
  Nanos tick_{};

  std::mutex entities_mu_;
  std::vector<std::unique_ptr<Entity>> entities_;  // under entities_mu_
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  // --- ready queue (Vyukov intrusive MPSC; multi-consumer via pop_mu_) ---
  Entity stub_;
  std::atomic<Entity*> queue_head_;  // most recently pushed
  Entity* queue_tail_;               // oldest; consumers only, under pop_mu_
  std::mutex pop_mu_;
  // seq_cst mirror of the queue's logical size: the Dekker-style handshake
  // with sleepers_ that makes parking lose no wakeups.
  std::atomic<std::int64_t> ready_count_{0};

  // --- worker parking ----------------------------------------------------
  // One post per unpark, one wait per park. A POSIX semaphore, not a
  // condvar: glibc 2.36's pthread_cond_signal lost a wakeup here with
  // several workers parked (every worker asleep with one signal and one
  // ready entity pending, until the process was killed); a posted count
  // cannot be missed.
  sem_t park_sem_;
  std::atomic<int> sleepers_{0};

  // --- pool --------------------------------------------------------------
  std::mutex spawn_mu_;
  std::vector<std::thread> worker_threads_;  // under spawn_mu_ until stop
  int total_spawned_ = 0;                    // under spawn_mu_
  std::atomic<int> blocked_{0};

  // --- timer wheel -------------------------------------------------------
  struct TimerEntry {
    Entity* entity;
    std::uint64_t rounds;  // full wheel revolutions still to go
  };
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::vector<TimerEntry> wheel_[kWheelSlots];  // under timer_mu_
  std::size_t wheel_cursor_ = 0;                // under timer_mu_
  std::size_t pending_timers_ = 0;              // under timer_mu_
  std::thread timer_thread_;

  // --- observability (all may be null when metrics is null) --------------
  obs::Counter* wakeups_ = nullptr;         // idle->queued transitions
  obs::Counter* coalesced_ = nullptr;       // wakes folded into a pending one
  obs::Counter* caller_runs_ = nullptr;     // of those, run_here evals
  obs::Counter* spurious_ = nullptr;        // evals whose guard was false
  obs::Counter* timer_fires_ = nullptr;     // wheel-driven wakes
  obs::Gauge* ready_depth_ = nullptr;       // current ready-queue depth
  obs::Gauge* workers_gauge_ = nullptr;     // pool size incl. spares
  obs::Gauge* workers_blocked_ = nullptr;   // workers inside blocking waits
  obs::Gauge* workers_busy_ = nullptr;      // workers currently in an eval
};

}  // namespace csaw
