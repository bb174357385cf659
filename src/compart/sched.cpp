#include "compart/sched.hpp"

#include <algorithm>
#include <cerrno>

#include "obs/profile.hpp"
#include "support/blocking.hpp"
#include "support/check.hpp"

namespace csaw {
namespace {

// Blocked-time attribution: the entity whose eval is running on this thread
// (a worker, or a run_here caller) and the steady timestamp of the outermost
// blocking-region entry. Written only by the owning thread.
thread_local Scheduler::Entity* t_running_entity = nullptr;
thread_local std::uint64_t t_block_started_ns = 0;
// Set for the lifetime of worker_main: this thread pops the ready queue.
thread_local bool t_pool_worker = false;

void attribute_block_enter() {
  if (t_running_entity != nullptr && t_running_entity->prof != nullptr) {
    t_block_started_ns = steady_ns();
  }
}

void attribute_block_exit() {
  if (t_block_started_ns == 0) return;
  if (t_running_entity != nullptr && t_running_entity->prof != nullptr) {
    t_running_entity->prof->blocked_ns.fetch_add(
        steady_ns() - t_block_started_ns, std::memory_order_relaxed);
  }
  t_block_started_ns = 0;
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions options, obs::Metrics* metrics)
    : options_(options),
      tick_(std::chrono::duration_cast<Nanos>(options.timer_resolution)),
      queue_head_(&stub_),
      queue_tail_(&stub_) {
  if (tick_ <= Nanos::zero()) tick_ = Millis{1};
  CSAW_CHECK(sem_init(&park_sem_, 0, 0) == 0) << "sem_init failed";
  if (metrics != nullptr) {
    wakeups_ = &metrics->counter("sched_wakeups");
    coalesced_ = &metrics->counter("sched_wake_coalesced");
    caller_runs_ = &metrics->counter("sched_caller_runs");
    spurious_ = &metrics->counter("sched_evals_spurious");
    timer_fires_ = &metrics->counter("sched_timer_fires");
    ready_depth_ = &metrics->gauge("sched_ready_depth");
    workers_gauge_ = &metrics->gauge("sched_workers");
    workers_blocked_ = &metrics->gauge("sched_workers_blocked");
    workers_busy_ = &metrics->gauge("sched_workers_busy");
  }
}

Scheduler::~Scheduler() {
  stop();
  sem_destroy(&park_sem_);
}

int Scheduler::resolve_workers(int requested) {
  if (requested > 0) return requested;
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(2, std::min(8, hw));
}

Scheduler::Entity* Scheduler::add_entity(std::string name,
                                         std::function<EvalResult()> eval) {
  std::scoped_lock lock(entities_mu_);
  entities_.push_back(
      std::make_unique<Entity>(std::move(name), std::move(eval)));
  return entities_.back().get();
}

void Scheduler::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  base_workers_ = resolve_workers(options_.workers);
  {
    std::scoped_lock lock(spawn_mu_);
    for (int i = 0; i < base_workers_; ++i) spawn_worker_locked();
  }
  timer_thread_ = std::thread([this] { timer_main(); });
}

void Scheduler::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // A second stop() must still not return while threads run; the first
    // caller joins them, and joining twice would be UB. stop() is only
    // called from the runtime's stop path and the destructor, which the
    // runtime serializes, so just bail.
    return;
  }
  if (!started_.load()) return;
  {
    std::scoped_lock lock(timer_mu_);
    timer_cv_.notify_all();
  }
  {
    // Barrier: any in-flight spare spawn holds spawn_mu_; once we acquire
    // it no further spawns can start (on_worker_block re-checks stopping_
    // under the lock), so the thread vector below is stable. One post per
    // worker frees every parked one; a worker not yet parked sees
    // stopping_ instead.
    std::scoped_lock lock(spawn_mu_);
    for (int i = 0; i < total_spawned_; ++i) sem_post(&park_sem_);
  }
  for (auto& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
}

// --- ready queue ----------------------------------------------------------
// Vyukov intrusive MPSC: producers exchange the head pointer (wait-free),
// then link the previous head to the new node. A consumer that observes
// tail != head with a null next link has caught a producer between those
// two stores; the link is imminent, so it spins (bounded by the producer's
// two instructions).

void Scheduler::queue_push(Entity* entity) {
  entity->next.store(nullptr, std::memory_order_relaxed);
  Entity* prev = queue_head_.exchange(entity, std::memory_order_acq_rel);
  prev->next.store(entity, std::memory_order_release);
}

Scheduler::Entity* Scheduler::queue_pop_locked() {
  Entity* tail = queue_tail_;
  Entity* next = tail->next.load(std::memory_order_acquire);
  if (tail == &stub_) {
    if (next == nullptr) return nullptr;  // empty (or push still in flight)
    queue_tail_ = next;
    tail = next;
    next = tail->next.load(std::memory_order_acquire);
  }
  if (next != nullptr) {
    queue_tail_ = next;
    return tail;
  }
  if (tail != queue_head_.load(std::memory_order_acquire)) {
    do {  // producer mid-push; the link store is imminent
      next = tail->next.load(std::memory_order_acquire);
    } while (next == nullptr);
    queue_tail_ = next;
    return tail;
  }
  // Single element: re-push the stub behind it so the list stays closed.
  queue_push(&stub_);
  do {
    next = tail->next.load(std::memory_order_acquire);
  } while (next == nullptr);
  queue_tail_ = next;
  return tail;
}

void Scheduler::enqueue_ready(Entity* entity) {
  queue_push(entity);
  // seq_cst: pairs with the seq_cst sleepers_ increment in idle_park so
  // either the producer sees the sleeper or the sleeper sees the entry.
  ready_count_.fetch_add(1, std::memory_order_seq_cst);
  if (ready_depth_ != nullptr) ready_depth_->add();
}

void Scheduler::maybe_unpark() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  sem_post(&park_sem_);
}

void Scheduler::idle_park() {
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  if (ready_count_.load(std::memory_order_seq_cst) > 0 || stopping_.load()) {
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  // A post that found no sleeper, or was meant for another, only makes a
  // later park return at once: the worker loops and finds the queue empty.
  while (sem_wait(&park_sem_) != 0 && errno == EINTR) {
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

// --- wakeups --------------------------------------------------------------

void Scheduler::wake(Entity* entity) {
  std::uint32_t s = entity->state.load(std::memory_order_acquire);
  while (true) {
    switch (s) {
      case kIdle:
        if (entity->state.compare_exchange_weak(s, kQueued,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
          entity->wake_ns.store(
              steady_now().time_since_epoch().count(),
              std::memory_order_relaxed);
          if (wakeups_ != nullptr) wakeups_->add();
          enqueue_ready(entity);
          maybe_unpark();
          return;
        }
        break;  // s reloaded; retry
      case kRunning:
        if (entity->state.compare_exchange_weak(s, kRunningRearm,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
          if (coalesced_ != nullptr) coalesced_->add();
          return;
        }
        break;
      default:  // kQueued, kRunningRearm: an eval is already owed
        if (coalesced_ != nullptr) coalesced_->add();
        return;
    }
  }
}

bool Scheduler::run_here(Entity* entity) {
  if (!started_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    return false;
  }
  std::uint32_t expected = kIdle;
  if (!entity->state.compare_exchange_strong(expected, kRunning,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
    return false;
  }
  if (caller_runs_ != nullptr) caller_runs_->add();
  // The caller's blocking is attributed to the entity but spawns no spare:
  // a blocked caller holds no pool worker.
  BlockingHooks& hooks = thread_blocking_hooks();
  const BlockingHooks saved = hooks;
  hooks.enter = [](void*) { attribute_block_enter(); };
  hooks.exit = [](void*) { attribute_block_exit(); };
  hooks.ctx = nullptr;
  run_entity(entity);
  hooks = saved;
  return true;
}

void Scheduler::run_entity(Entity* entity) {
  // A run_here eval was never queued: it records no queue delay and
  // occupies no pool worker.
  const bool queued = t_pool_worker;
  obs::JunctionProfile* prof = entity->prof;
  const auto woke = entity->wake_ns.exchange(0, std::memory_order_relaxed);
  if (queued && woke != 0 && prof != nullptr) {
    const auto now = steady_now().time_since_epoch().count();
    if (now > woke) {
      prof->queue_delay_ns.record(static_cast<std::uint64_t>(now - woke));
    }
  }
  if (queued && workers_busy_ != nullptr) workers_busy_->add();
  entity->eval_count.fetch_add(1, std::memory_order_relaxed);
  // Thread-CPU delta around the eval: pure compute, since the CPU clock
  // does not advance while the body blocks (blocked time is attributed
  // separately via the blocking hooks below).
  const std::uint64_t cpu0 = prof != nullptr ? thread_cpu_ns() : 0;
  t_running_entity = entity;
  const EvalResult result = entity->eval();
  t_running_entity = nullptr;
  if (prof != nullptr) {
    const std::uint64_t cpu = thread_cpu_ns() - cpu0;
    prof->evals.fetch_add(1, std::memory_order_relaxed);
    prof->body_cpu_ns.fetch_add(cpu, std::memory_order_relaxed);
    prof->body_cpu_hist_ns.record(cpu);
  }
  if (queued && workers_busy_ != nullptr) workers_busy_->sub();
  if (result == EvalResult::kSpurious && spurious_ != nullptr) {
    spurious_->add();
  }
  std::uint32_t expected = kRunning;
  const bool rearm = result == EvalResult::kRearm && !stopping_.load();
  if (!rearm && entity->state.compare_exchange_strong(
                    expected, kIdle, std::memory_order_acq_rel)) {
    return;
  }
  // Either the eval asked to run again or a wake landed mid-eval
  // (kRunningRearm). Only the running thread leaves the running states, so
  // a plain store is safe; requeue at the back for fairness.
  entity->state.store(kQueued, std::memory_order_release);
  enqueue_ready(entity);
  maybe_unpark();
}

// --- workers ---------------------------------------------------------------

void Scheduler::spawn_worker_locked() {
  worker_threads_.emplace_back([this] { worker_main(); });
  ++total_spawned_;
  if (workers_gauge_ != nullptr) workers_gauge_->set(total_spawned_);
}

void Scheduler::worker_main() {
  BlockingHooks& hooks = thread_blocking_hooks();
  hooks.enter = [](void* ctx) {
    static_cast<Scheduler*>(ctx)->on_worker_block();
  };
  hooks.exit = [](void* ctx) {
    static_cast<Scheduler*>(ctx)->on_worker_unblock();
  };
  hooks.ctx = this;
  t_pool_worker = true;
  while (true) {
    Entity* entity = nullptr;
    {
      std::scoped_lock lock(pop_mu_);
      entity = queue_pop_locked();
    }
    if (entity == nullptr) {
      if (stopping_.load(std::memory_order_acquire)) break;
      idle_park();
      continue;
    }
    ready_count_.fetch_sub(1, std::memory_order_seq_cst);
    if (ready_depth_ != nullptr) ready_depth_->sub();
    entity->state.store(kRunning, std::memory_order_release);
    run_entity(entity);
  }
  t_pool_worker = false;
  hooks = BlockingHooks{};
}

void Scheduler::on_worker_block() {
  blocked_.fetch_add(1, std::memory_order_seq_cst);
  if (workers_blocked_ != nullptr) workers_blocked_->add();
  attribute_block_enter();
  std::scoped_lock lock(spawn_mu_);
  if (stopping_.load()) return;
  // Keep the pool's *unblocked* head-count at the configured size: a body
  // parked in `wait` must not eat a worker that runnable junctions need.
  const int active = total_spawned_ - blocked_.load(std::memory_order_relaxed);
  if (active < base_workers_) spawn_worker_locked();
}

void Scheduler::on_worker_unblock() {
  blocked_.fetch_sub(1, std::memory_order_seq_cst);
  if (workers_blocked_ != nullptr) workers_blocked_->sub();
  attribute_block_exit();
}

// --- timer wheel ------------------------------------------------------------

void Scheduler::poll_after(Entity* entity, Nanos delay) {
  std::scoped_lock lock(timer_mu_);
  if (stopping_.load()) return;
  if (entity->timer_armed) return;  // coalesce with the pending entry
  entity->timer_armed = true;
  const std::uint64_t ticks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>((delay.count() + tick_.count() - 1) /
                                    tick_.count()));
  const std::size_t slot =
      (wheel_cursor_ + static_cast<std::size_t>(ticks)) % kWheelSlots;
  wheel_[slot].push_back(TimerEntry{entity, (ticks - 1) / kWheelSlots});
  if (pending_timers_++ == 0) timer_cv_.notify_one();
}

void Scheduler::timer_main() {
  std::unique_lock lock(timer_mu_);
  SteadyTime next_tick = steady_now() + tick_;
  while (!stopping_.load()) {
    if (pending_timers_ == 0) {
      // Nothing armed: sleep indefinitely; costs zero CPU while every
      // junction is purely event-driven.
      timer_cv_.wait(lock,
                     [&] { return stopping_.load() || pending_timers_ > 0; });
      next_tick = steady_now() + tick_;
      continue;
    }
    if (timer_cv_.wait_until(lock, next_tick,
                             [&] { return stopping_.load(); })) {
      break;
    }
    next_tick += tick_;
    wheel_cursor_ = (wheel_cursor_ + 1) % kWheelSlots;
    auto& slot = wheel_[wheel_cursor_];
    std::vector<Entity*> due;
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->rounds == 0) {
        it->entity->timer_armed = false;
        due.push_back(it->entity);
        it = slot.erase(it);
        --pending_timers_;
      } else {
        --it->rounds;
        ++it;
      }
    }
    if (!due.empty()) {
      lock.unlock();  // keep timer_mu_ a leaf: wake() enqueues and posts
      for (Entity* e : due) {
        if (timer_fires_ != nullptr) timer_fires_->add();
        wake(e);
      }
      lock.lock();
    }
  }
}

}  // namespace csaw
