// Per-table durability: a CRC-framed append-only write-ahead log plus
// atomic on-disk snapshots.
//
// The paper's fail-over patterns (S7.3-S7.4) assume instances can die and
// come back; this layer makes "come back" mean something stronger than
// "re-initialize from declarations": a KvTable attached to a Wal logs every
// state transition -- applied updates, queued (acked-but-pending) updates,
// queue removals, and wholesale restores -- before the transition is
// acknowledged, so a kill -9 at any instant loses at most the unsynced
// suffix, never an acknowledged write.
//
// On-disk layout, per table, inside RuntimeOptions::durability_dir:
//   <instance>__<junction>.wal    append-only record log
//   <instance>__<junction>.snap   atomic snapshot (write-temp, fsync, rename)
//
// Each WAL record is framed [u32le len][u32le crc32(payload)][payload].
// Replay stops at the first frame whose length or CRC does not check out:
// a torn tail (the process died mid-append) silently ends the log; the
// damage is reported, counted, and compacted away on reopen. Records carry
// a monotone LSN so that a snapshot written by compaction names exactly the
// prefix it covers -- a crash between snapshot rename and log truncation
// replays the log's surviving records at most once (lsn <= snapshot lsn are
// skipped), never twice.
//
// Threading: a Wal instance is driven by its owning KvTable under the
// table's mutex; it performs no locking of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kv/update.hpp"
#include "obs/metrics.hpp"
#include "support/result.hpp"

namespace csaw {

// Full applied state of a table, in declaration-independent form.
struct TableImage {
  std::vector<std::pair<std::string, bool>> props;
  struct Datum {
    std::string key;
    bool defined = false;
    std::string type;
    Bytes bytes;
  };
  std::vector<Datum> data;
};

// One acked-but-not-yet-applied update, with its arrival stamp (the table's
// pending-queue ordering key).
struct PendingUpdate {
  std::uint64_t stamp = 0;
  Update update;
};

struct WalRecord {
  enum class Kind : std::uint8_t {
    kApply = 0,    // update mutated applied state
    kQueue = 1,    // update entered the pending queue (stamp identifies it)
    kUnqueue = 2,  // pending entry `stamp` left the queue (applied/dropped)
    kReset = 3,    // applied state wholesale replaced (transaction rollback)
  };

  Kind kind = Kind::kApply;
  std::uint64_t lsn = 0;    // assigned by Wal::append
  Update update;            // kApply, kQueue
  std::uint64_t stamp = 0;  // kQueue, kUnqueue
  TableImage image;         // kReset
};

// Everything recovery learns from <name>.snap + <name>.wal. Missing files
// recover as empty state; a torn or corrupt log tail truncates the replay
// and sets `tail_torn`.
struct RecoveredState {
  TableImage image;
  std::vector<PendingUpdate> pending;  // stamp order
  std::uint64_t max_stamp = 0;
  std::uint64_t last_lsn = 0;
  std::uint64_t records_replayed = 0;
  bool had_snapshot = false;
  bool tail_torn = false;
};

// Reads the snapshot and replays the log; never writes. Hard I/O errors
// (unreadable existing file) are reported; absence is not an error.
Result<RecoveredState> wal_recover(const std::string& dir,
                                   const std::string& name);

class Wal {
 public:
  struct Options {
    // Compact (snapshot + truncate) when the log exceeds this; 0 disables.
    std::size_t compact_bytes = std::size_t{1} << 20;
  };

  // Opens (creating if absent) the log for appending. `next_lsn` continues
  // the LSN sequence recovery observed. When `metrics` is non-null the
  // wal_* / snapshot_* counters documented in DESIGN.md are registered.
  static Result<std::unique_ptr<Wal>> open(std::string dir, std::string name,
                                           Options options,
                                           obs::Metrics* metrics,
                                           std::uint64_t next_lsn);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends one record (assigning its LSN) and fsyncs it, unless the
  // caller batches with sync_now=false + a trailing sync() at the
  // transition boundary.
  Status append(WalRecord rec, bool sync_now = true);
  Status sync();

  // Writes an atomic snapshot covering every record appended so far, then
  // truncates the log. Recovery after this sees the snapshot plus nothing.
  Status compact(const TableImage& image,
                 const std::vector<PendingUpdate>& pending,
                 std::uint64_t max_stamp);

  // True when the log has outgrown Options::compact_bytes; the owning table
  // should call compact() with its current state.
  [[nodiscard]] bool wants_compaction() const;

  [[nodiscard]] std::size_t log_bytes() const { return log_bytes_; }
  // Cumulative bytes appended over the log's lifetime -- unlike log_bytes()
  // it is never reset by compaction, and it is readable from any thread
  // (the cost profiler samples it outside the table mutex).
  [[nodiscard]] std::uint64_t total_appended_bytes() const {
    return total_appended_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t next_lsn() const { return next_lsn_; }

 private:
  Wal(std::string dir, std::string name, Options options, int fd,
      std::size_t log_bytes, std::uint64_t next_lsn);

  std::string dir_;
  std::string name_;
  Options options_;
  int fd_ = -1;
  std::size_t log_bytes_ = 0;
  std::atomic<std::uint64_t> total_appended_{0};
  std::uint64_t next_lsn_ = 1;
  bool dirty_ = false;  // appended since last sync

  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_syncs_ = nullptr;
  obs::Counter* m_compactions_ = nullptr;
  obs::Counter* m_snapshot_writes_ = nullptr;
  obs::Counter* m_snapshot_bytes_ = nullptr;
};

// CRC-32 (IEEE 802.3, reflected) over `data`; exposed for tests that
// hand-corrupt log frames.
std::uint32_t wal_crc32(const void* data, std::size_t n);

}  // namespace csaw
