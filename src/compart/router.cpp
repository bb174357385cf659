#include "compart/router.hpp"

#include <algorithm>

namespace csaw {

Router::Router(LinkModel default_link, std::uint64_t seed, DeliverFn deliver)
    : default_link_(default_link), rng_(seed), deliver_(std::move(deliver)) {}

Router::~Router() { stop(); }

void Router::stop() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Router::send(Envelope env, std::size_t payload_bytes) {
  {
    std::scoped_lock lock(mu_);
    ++counters_.sent;
    const Link link{env.from_instance, env.to.instance};
    auto part = partitions_.find(
        link.first < link.second ? link : Link{link.second, link.first});
    if (part != partitions_.end() && part->second) {
      ++counters_.partitioned;
      return;  // vanish, like a cable pull
    }
    const LinkModel model = link_for(link.first, link.second);
    if (model.drop_prob > 0.0 && rng_.uniform() < model.drop_prob) {
      ++counters_.dropped;
      return;
    }
    const Nanos delay = model.transfer_time(payload_bytes, rng_.uniform());
    if (delay.count() != 0 || !queue_.empty() || delivering_) {
      SteadyTime at = steady_now() + delay;
      SteadyTime& last = last_due_[link];
      if (model.jitter_frac == 0.0 && model.bytes_per_sec == 0) {
        at = std::max(at, last);
      }
      last = std::max(last, at);
      queue_.push(Queued{at, next_order_++, std::move(env)});
      if (!stop_ && !thread_.joinable()) {
        thread_ = std::thread([this] { run(); });
      }
      cv_.notify_all();
      return;
    }
    ++counters_.delivered;
  }
  deliver_(std::move(env));  // inline: nothing queued or in flight
}

void Router::set_link(Symbol from, Symbol to, LinkModel model) {
  std::scoped_lock lock(mu_);
  overrides_[{from, to}] = model;
}

void Router::clear_link(Symbol from, Symbol to) {
  std::scoped_lock lock(mu_);
  overrides_.erase({from, to});
}

void Router::set_partition(Symbol a, Symbol b, bool blocked) {
  std::scoped_lock lock(mu_);
  partitions_[a < b ? Link{a, b} : Link{b, a}] = blocked;
}

Router::Counters Router::counters() const {
  std::scoped_lock lock(mu_);
  return counters_;
}

bool Router::thread_started() const {
  std::scoped_lock lock(mu_);
  return thread_.joinable();
}

LinkModel Router::link_for(Symbol from, Symbol to) const {
  auto it = overrides_.find({from, to});
  return it != overrides_.end() ? it->second : default_link_;
}

void Router::run() {
  std::unique_lock lock(mu_);
  while (true) {
    if (stop_) return;
    if (queue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    const auto next_at = queue_.top().at;
    if (steady_now() < next_at) {
      cv_.wait_until(lock, next_at);
      continue;
    }
    Envelope env = queue_.top().env;
    queue_.pop();
    ++counters_.delivered;
    delivering_ = true;
    lock.unlock();
    deliver_(std::move(env));
    lock.lock();
    delivering_ = false;
  }
}

}  // namespace csaw
