// Chain replication as a C-Saw pattern (ROADMAP item 3).
//
// The architecture is a relay pipeline built from junctions + synced tables,
// composed out of the same request/ack shapes as Fig 5's sharding front-end:
//
//   Fnt --n--> Rep1 --n--> Rep2 --n--> ... --n--> RepN   (head .. tail)
//
// Every command enters at the front-end, is applied at the head, and is
// relayed hop by hop to the tail. Each hop is the sharding handshake: the
// sender writes the request datum n, asserts the synced Work[succ] prop at
// the successor, and waits on its *local* mirror of that prop; the successor
// retracts the prop (synced) only after its own downstream relay completed.
// The acknowledgement therefore cascades tail -> head -> front: a client ack
// implies the write is applied at EVERY live chain node, which is what makes
// any-replica reads safe for acknowledged data (head-write/tail-read).
//
// Reconfiguration is epoch-fenced and lives in the control plane (the
// service layer): the compiled program is one chain *incarnation*. On
// detector suspicion or a relay timeout (surfaced through `complain`), the
// control plane bumps the runtime's authority epoch and compiles the
// surviving chain as the next incarnation; the epoch fence rejects stale
// writers from the old one. Keeping each incarnation static is what lets
// csaw-lint verify the pattern with zero suppressions: every table key has
// exactly one writer (its upstream neighbor), and every blocking push is
// bounded by otherwise[t].
//
// Required host bindings:
//   block "Ingest"            -- pops a client command, stamps its HLC
//   saver "pack_request"      -- serializes the stamped command into n
//   restorer "unpack_request" -- chain-node intake of n
//   block "H_apply"           -- applies the command at this node's store
//   block "complain"          -- relay failure (control-plane reconfigure)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"

namespace csaw::patterns {

struct ChainOptions {
  std::string front_instance = "Fnt";
  std::string replica_prefix = "Rep";  // chain nodes are Rep1 (head) .. RepN (tail)
  std::size_t replicas = 3;
  std::string junction = "j";
  std::int64_t timeout_ms = 500;

  std::string ingest = "Ingest";
  std::string pack_request = "pack_request";
  std::string h_apply = "H_apply";
  std::string unpack_request = "unpack_request";
  std::string complain = "complain";
};

ProgramSpec chain(const ChainOptions& options = {});

// Names of the chain-node instances (head first) for the given options.
std::vector<std::string> chain_replica_names(const ChainOptions& options);

}  // namespace csaw::patterns
