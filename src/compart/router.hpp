// The message router: applies each (from,to) link's model -- partition,
// drop, delay -- and hands surviving envelopes to the runtime's DeliverFn.
//
// Delivery path. An envelope that would wait for nothing is delivered
// inline, on the sender's thread, once `mu_` is released: its link's
// transfer time is zero, nothing is queued, and the delivery thread is not
// in the middle of a delivery. Every other envelope is queued, ordered by
// due time and then by send order, for one delivery thread. That thread is
// started on the first envelope that has to be queued, so a runtime whose
// links are all zero-delay never starts it.
//
// Channel ordering. Sends on one (from,to) link that are ordered by
// happens-before are delivered in that order when the link has no jitter
// and no bandwidth cap, also across a change of its latency (a chaos delay
// episode that ends while its envelopes are still queued): a queued
// envelope is never due before one queued earlier on its link, and the
// inline path is taken only when nothing is queued or in flight. Jitter or
// a bandwidth cap may reorder a link; that is the modelled behaviour. The
// TCP transport behind a DeliverFn never reorders (compart/tcp.hpp).
//
// Deadlock freedom. `mu_` is a leaf: it guards only the router's own state
// and is never held across DeliverFn, inline or on the delivery thread.
// Runtime::deliver takes the target's InstanceRt::mu, then that junction's
// table mutex, then the scheduler's ready-queue lock, each briefly and in
// that order, and releases them all before it sends the ack -- which
// re-enters send() once (depth 2, no lock held). No caller of send holds an
// InstanceRt::mu or a table mutex: junction bodies and the host blocks they
// run push with neither held (run_junction_body takes InstanceRt::mu only
// before and after the body, and KvTable::wait releases the table mutex
// before it returns, never pushing from its predicate); the app locks some
// hosts push under (the rebalanced service's req_mu_, the replicated
// service's mu_) are never taken on the delivery path. A host thread that
// call()s a junction runs its body itself (Scheduler::run_here) and pushes
// like any body; Runtime::call releases InstanceRt::mu before running it.
// So the only blocking edge is still sender -> ack, and it carries a
// deadline. A call() caller must also hold no lock that the body's host
// blocks take: it would now block its own thread (DESIGN.md "Scheduler").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "compart/link.hpp"
#include "compart/message.hpp"
#include "support/rng.hpp"

namespace csaw {

class Router {
 public:
  using DeliverFn = std::function<void(Envelope&&)>;

  Router(LinkModel default_link, std::uint64_t seed, DeliverFn deliver);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Stops and joins the delivery thread (idempotent; the destructor calls
  // it). Queued envelopes are dropped; a DeliverFn still running on the
  // thread may send again while this waits.
  void stop();

  // Delivers `env` after the (from,to)-link's delay -- inline when that is
  // zero and nothing is queued or in flight -- or drops it.
  void send(Envelope env, std::size_t payload_bytes);

  // Per-instance-pair link override; (a,b) is directional.
  void set_link(Symbol from, Symbol to, LinkModel model);
  // Removes the (from,to) override so the pair falls back to default_link.
  void clear_link(Symbol from, Symbol to);
  // Blocks/unblocks both directions between a and b (network partition).
  void set_partition(Symbol a, Symbol b, bool blocked);

  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;      // by drop_prob
    std::uint64_t partitioned = 0;  // by partitions
  };
  [[nodiscard]] Counters counters() const;
  // Whether the delivery thread exists (it starts with the first queued
  // envelope).
  [[nodiscard]] bool thread_started() const;

 private:
  using Link = std::pair<Symbol, Symbol>;
  struct Queued {
    SteadyTime at;
    std::uint64_t order;  // send order: ties on `at` stay FIFO
    Envelope env;
  };
  struct Later {
    bool operator()(const Queued& a, const Queued& b) const {
      return a.at != b.at ? a.at > b.at : a.order > b.order;
    }
  };

  void run();
  [[nodiscard]] LinkModel link_for(Symbol from, Symbol to) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  LinkModel default_link_;
  std::map<Link, LinkModel> overrides_;
  std::map<Link, bool> partitions_;
  Rng rng_;
  DeliverFn deliver_;
  Counters counters_;

  std::priority_queue<Queued, std::vector<Queued>, Later> queue_;
  std::uint64_t next_order_ = 0;
  // Latest due time queued on each link: an envelope on an unjittered,
  // uncapped link is never due before it.
  std::map<Link, SteadyTime> last_due_;
  bool delivering_ = false;  // the thread is inside deliver_, unlocked
  bool stop_ = false;
  std::thread thread_;  // started by the first queued envelope
};

}  // namespace csaw
