// Minimal HTTP exposition of live metrics: GET /metrics returns the
// Prometheus text format (counters, histogram summaries with p50/p90/p99
// quantiles, tracer buffer gauges, and -- when a cost-profile source is
// installed -- the labelled per-junction, per-link and per-table families
// rendered from one CostProfile snapshot), GET /healthz returns "ok", and
// GET /profile returns that same snapshot as CostProfile JSON
// (obs/profile.hpp). Both endpoints render whatever snapshot the source
// returns, so they agree by construction.
//
// The listener binds 127.0.0.1 only and follows the same socket idiom as the
// loopback transport (compart/tcp.cpp): a blocking accept thread, one
// request per connection, length-bounded reads. It is deliberately not a web
// server -- just enough HTTP/1.1 for `curl localhost:<port>/metrics` and a
// Prometheus scraper.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csaw::obs {

class HttpExposer {
 public:
  // Binds 127.0.0.1:<port> (0 = ephemeral; read the outcome back with
  // port()). `metrics` and `tracer` are borrowed, may be null, and must
  // outlive this object; null sections are simply absent from /metrics.
  // CHECK-fails if the socket cannot be bound (no listener, no endpoint).
  explicit HttpExposer(const Metrics* metrics, Tracer* tracer = nullptr,
                       int port = 0);
  ~HttpExposer();

  HttpExposer(const HttpExposer&) = delete;
  HttpExposer& operator=(const HttpExposer&) = delete;

  [[nodiscard]] int port() const { return port_; }

  // The /metrics body (exposed for tests and one-shot dumps).
  [[nodiscard]] std::string render_metrics() const;

  using ProfileSource = std::function<CostProfile()>;
  // Installs (or clears, with nullptr) the CostProfile producer behind
  // /profile and the labelled /metrics families. Safe to call while the
  // server runs; the callback must be thread-safe (it is invoked from the
  // accept thread) and is typically the runtime's live snapshot.
  void set_profile_source(ProfileSource source);

 private:
  void serve_loop();
  [[nodiscard]] ProfileSource profile_source() const;

  const Metrics* metrics_;
  Tracer* tracer_;
  mutable std::mutex profile_mu_;
  ProfileSource profile_source_;  // under profile_mu_
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread server_;
};

// Renders `metrics` (and optionally `tracer` occupancy/drop gauges and the
// rows of `profile`) in the Prometheus text exposition format. Counter names
// gain the conventional "csaw_" prefix and "_total" suffix; histograms
// export as summaries. Profile rows become labelled families:
//   csaw_junction_{evals,fires,body_cpu_ns,body_wall_ns,blocked_ns}_total
//   csaw_junction_{queue_delay_ns,body_cpu_per_eval_ns}  (summaries)
//     {node, instance, junction}
//   csaw_link_{frames_sent,bytes_sent,queue_drops,reconnects}_total
//   csaw_link_{rtt_ns,send_queue_depth}  (summaries)
//     {node, peer}
//   csaw_table_keys, csaw_table_{writes,wal_bytes}_total  {node, instance}
// Label values are escaped per the text format (\\, \", \n).
std::string render_prometheus(const Metrics* metrics, const Tracer* tracer,
                              const CostProfile* profile = nullptr);

}  // namespace csaw::obs
