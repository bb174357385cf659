// Quorum replication as a C-Saw pattern (ROADMAP item 3).
//
// S7.1's parallel-sharding fan-out (Fig 6) generalized from "have at least
// one" to "have at least W": the front-end fans a write to a host-chosen
// subset of replicas in parallel, each handoff is the synced Work[r]
// handshake bounded by otherwise[t], and a host-side tally (`CountAck`, the
// same kind of choice block as Fig 5's |_Choose_|) asserts HaveQuorum once
// the configured write quorum W acknowledged. If the fan-out joins without
// quorum -- W replicas crashed, partitioned, or timed out -- the front-end
// complains and the write is NOT acknowledged: a client ack always means at
// least W replicas applied the command.
//
// Reads are the same fan-out with a read subset R (tunable per table /
// per session, compart/consistency.hpp): replicas return HLC-stamped values
// host-side and the service keeps the newest (last-writer-wins by HLC,
// obs/hlc.hpp), repairing any replica that returned an older stamp. The
// epoch leader (lowest live replica of the current epoch) is pinned into
// every write set, so linearizable reads can be served as R={leader} and
// read-your-writes falls through to the leader when no read replica covers
// the client's HLC token.
//
// Required host bindings:
//   block "ChooseSet"{tgt}    -- pops a command, stamps its HLC, picks the
//                                W- or R-subset, resets the ack tally
//   saver "pack_request"      -- serializes the stamped command into n
//   restorer "unpack_request" -- replica intake of n
//   block "H_replica"         -- applies the command at the replica
//   block "CountAck"{HaveQuorum} -- tallies one replica ack; asserts
//                                HaveQuorum at/after the quorum threshold
//   block "complain"          -- quorum failure (the write is rejected)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"

namespace csaw::patterns {

struct QuorumOptions {
  std::string front_instance = "Fnt";
  std::string replica_prefix = "Rep";  // replicas are Rep1..RepN
  std::size_t replicas = 3;
  std::string junction = "j";
  std::int64_t timeout_ms = 500;

  std::string choose_set = "ChooseSet";
  std::string pack_request = "pack_request";
  std::string h_replica = "H_replica";
  std::string unpack_request = "unpack_request";
  std::string count_ack = "CountAck";
  std::string complain = "complain";
};

ProgramSpec quorum(const QuorumOptions& options = {});

// Names of the replica instances for the given options.
std::vector<std::string> quorum_replica_names(const QuorumOptions& options);

}  // namespace csaw::patterns
