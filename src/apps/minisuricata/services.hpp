// minisuricata deployments behind C-Saw architectures (paper S2's Suricata
// scenarios): checkpointing of the flow table via the Fig 4 snapshot
// architecture, and 5-tuple packet steering via the Fig 5 sharding
// architecture ("the key-based sharding logic was adapted to implement
// packet-steering in Suricata", S10.1).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "apps/minisuricata/packet.hpp"
#include "apps/minisuricata/pipeline.hpp"
#include "apps/service_options.hpp"
#include "core/interp.hpp"

namespace csaw::minisuricata {

constexpr std::uint64_t kDefaultPacketCostNs = 600;

// Unmodified pipeline.
class PlainService {
 public:
  explicit PlainService(std::uint64_t cost_ns = kDefaultPacketCostNs)
      : pipeline_(cost_ns) {}

  void process(const Packet& p) { pipeline_.process(p); }
  Pipeline& pipeline() { return pipeline_; }

 private:
  Pipeline pipeline_;
};

// Flow-table checkpointing through the snapshot architecture.
class CheckpointedService {
 public:
  struct Options : ServiceOptions {
    std::uint64_t cost_ns = kDefaultPacketCostNs;
  };

  CheckpointedService() : CheckpointedService(make_default_options()) {}
  explicit CheckpointedService(Options options);

  Status process(const Packet& p);
  Status checkpoint();
  Status crash_and_resume();
  [[nodiscard]] std::size_t flow_count() const;
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

// 5-tuple steering to N back-end pipelines. Packets are steered in batches
// (real deployments steer bursts; per-packet control-plane hops would drown
// the data plane) -- batch_size = 1 gives the worst case.
class SteeredService {
 public:
  struct Options : ServiceOptions {
    std::size_t shards = 4;
    std::size_t batch_size = 1024;
    std::uint64_t cost_ns = kDefaultPacketCostNs;
  };

  SteeredService() : SteeredService(make_default_options()) {}
  explicit SteeredService(Options options);

  // Buffers the packet; flushes a batch through the architecture when full.
  Status process(const Packet& p);
  Status flush();

  [[nodiscard]] std::vector<std::uint64_t> shard_packet_counts() const;
  // Bound /metrics port, or -1 when the HTTP endpoint is disabled.
  [[nodiscard]] int metrics_http_port() const;
  [[nodiscard]] std::size_t shard_of(const Packet& p) const {
    return p.tuple.hash() % options_.shards;
  }

 private:
  static Options make_default_options();
  struct FrontState;
  struct BackState;
  Options options_;
  std::shared_ptr<FrontState> front_;
  std::vector<std::shared_ptr<BackState>> backs_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace csaw::minisuricata
