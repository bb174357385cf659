// Messages routed between instances.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "kv/update.hpp"
#include "obs/trace.hpp"
#include "support/symbol.hpp"

namespace csaw {

// Fully-qualified junction address ("instance::junction").
struct JunctionAddr {
  Symbol instance;
  Symbol junction;

  [[nodiscard]] std::string qualified() const {
    return instance.str() + "::" + junction.str();
  }
  friend auto operator<=>(const JunctionAddr&, const JunctionAddr&) = default;
};

struct Envelope {
  // kHeartbeat frames carry liveness gossip for the failure detector
  // (compart/detector.hpp): from_instance names the sending node, epoch is
  // its authority epoch, and update.value.bytes encodes the list of
  // instances it currently runs. They are never acked.
  enum class Kind { kUpdate, kAck, kHeartbeat };

  Kind kind = Kind::kUpdate;
  std::uint64_t seq = 0;       // correlates acks with updates
  Symbol from_instance;
  JunctionAddr to;             // for kUpdate; for kAck `to.instance` is the
                               // original sender awaiting the ack
  Update update;               // kUpdate payload
  bool nack = false;           // kAck: true if delivery failed
  std::string nack_reason;
  // Sender's authority epoch (runtime.hpp "Split-brain prevention"): 0 on
  // frames from runtimes without durable epochs. A receiver whose epoch is
  // higher rejects non-zero stale updates; a receiver whose epoch is lower
  // adopts the frame's.
  std::uint64_t epoch = 0;
  // Distributed-trace context: the sending push's span plus the sender's
  // hybrid-logical-clock reading at send time. Acks echo the original
  // push's context so the sender's clock merges the receiver's time.
  // Absent when the sender traces nothing (and on frames from builds that
  // predate the field -- see wire.cpp for the compatibility rule).
  std::optional<obs::TraceContext> ctx;
};

}  // namespace csaw
