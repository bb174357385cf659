// TCP leg for the router (libcompart's "channels wrap OS-provided IPC,
// including TCP sockets").
//
// TcpTransport is a real multi-peer transport: a listener accepting inbound
// connections from peers, plus one outbound connection per configured peer,
// all driven by a single poll()-based event loop thread. Outbound
// connections are established eagerly and re-established under exponential
// backoff with jitter when they drop; envelopes queue (bounded) per peer
// while the link is down. Frames are length-prefixed encoded envelopes with
// a hard size bound enforced on both ends.
//
// Two runtime configurations use it:
//   Transport::kTcpLoopback -- one "self" peer connected to our own
//     listener; every envelope crosses the kernel's loopback stack
//     (syscalls, socket buffers, scheduling) instead of a mutex-guarded
//     queue. The realistic-IPC single-process configuration and an
//     ablation axis for the microbenchmarks.
//   Transport::kTcpMesh -- peers are other OS processes; envelopes for
//     instances hosted remotely ride the matching peer connection. The
//     multi-process configuration (examples/two_process_shard,
//     bench/xproc_shard).
//
// Failure semantics (DESIGN.md "Transport"):
//   - the transport is at-most-once: a frame fully written before a
//     connection died may or may not have arrived; the push layer's
//     ack/deadline machinery owns retries.
//   - a frame partially written when the connection dies is retransmitted
//     from its first byte on the next connection (the receiver discarded
//     the partial tail at EOF), so framing never desyncs.
//   - send-queue overflow and oversize frames are nacked back to the local
//     sender; corrupt and oversize inbound frames are counted and traced.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compart/message.hpp"
#include "compart/tcp_options.hpp"
#include "compart/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/result.hpp"
#include "support/rng.hpp"

namespace csaw::obs {
class Profiler;  // obs/profile.hpp
}  // namespace csaw::obs

namespace csaw {

// Blocking socket I/O helpers shared by the transport's handshake-free
// protocol, the tests' socketpair harness, and the two-process drivers.
// All of them retry EINTR (a stray signal must not kill a reader thread or
// poison a stream) and EAGAIN/EWOULDBLOCK (by polling for readiness, so
// they also work on nonblocking fds), and all writes use send(MSG_NOSIGNAL)
// so a closed peer surfaces as EPIPE instead of a process-killing SIGPIPE.
// Socket fds only (MSG_NOSIGNAL requires a socket).
namespace tcpio {

// Reads exactly n bytes; false on EOF or hard error.
bool read_exact(int fd, void* buf, std::size_t n);
// Writes exactly n bytes; false on hard error (including EPIPE).
bool write_exact(int fd, const void* buf, std::size_t n);

enum class FrameStatus {
  kOk,
  kEof,       // clean end of stream before a new frame began
  kError,     // hard error, or EOF mid-frame (truncated)
  kOversize,  // frame length exceeds max_frame (nothing was allocated/sent)
};

// One length-prefixed frame (4-byte big-endian length + payload), bounded
// by max_frame on both directions. read_frame checks the bound *before*
// allocating the payload buffer.
FrameStatus write_frame(int fd, const Bytes& payload, std::size_t max_frame);
FrameStatus read_frame(int fd, Bytes* payload, std::size_t max_frame);

}  // namespace tcpio

class TcpTransport {
 public:
  using DeliverFn = std::function<void(Envelope&&)>;

  // Binds the listener and starts the event loop; CHECK-fails only if the
  // listener itself cannot be created (the environment cannot provide the
  // transport at all). Peer connections are established asynchronously and
  // retried forever under backoff. When `metrics` is non-null the counters
  // documented in DESIGN.md "Transport" are registered there; when
  // `trace_sink` is non-null, corrupt/oversize/dropped frames emit custom
  // trace events. When `profiler` is non-null, each send samples the peer's
  // queue depth into the cost profile's per-link percentiles. All three are
  // borrowed and must outlive this object.
  TcpTransport(DeliverFn deliver, TcpOptions options,
               obs::Metrics* metrics = nullptr,
               obs::TraceSink* trace_sink = nullptr,
               obs::Profiler* profiler = nullptr);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Bound listener port (0 when the listener is disabled).
  [[nodiscard]] std::uint16_t port() const { return listen_port_; }

  // Stops and joins the event loop (idempotent; the destructor calls it).
  // Nothing is delivered afterwards; route() still queues frames.
  void stop();

  // Installs the heartbeat frame factory (thread-safe). When
  // TcpOptions::heartbeat_interval > 0, the event loop calls it once per
  // interval (without holding transport locks) and sends the returned
  // envelope to every registered peer. Typically set by the Runtime to a
  // kHeartbeat builder; unset means no heartbeats are emitted.
  void set_heartbeat_source(std::function<Envelope()> source);

  // Dynamic peer registration (thread-safe): used when peer addresses are
  // only known after construction (e.g. two ephemeral-port runtimes in one
  // test binding in sequence).
  void add_peer(const std::string& name, TcpPeerAddr addr);
  void map_instance(Symbol instance, const std::string& peer);

  // Dynamic peer removal (thread-safe): the peer leaves the routing maps
  // immediately (send_to/route start failing fast), instance mappings
  // pointing at it are dropped, queued frames are discarded (counted as
  // queue drops; the push layer's ack/deadline machinery surfaces the loss),
  // the peer's final totals are folded into the profiler (if any), and the
  // connection fd is closed by the event loop, which owns all peer fds.
  // Returns whether the peer was known. Callers that also run a
  // failure detector must purge it separately (Runtime::remove_peer does
  // both).
  bool remove_peer(const std::string& name);
  // Removes one instance->peer mapping (no-op when absent).
  void unmap_instance(Symbol instance);

  // Fault injection for the chaos harness (thread-safe): drops the peer's
  // current connection without forgetting the peer, so the normal
  // backoff/reconnect machinery runs -- what a mid-handoff network blip
  // looks like at the socket level. Queued frames are kept and go out whole
  // on the next connection. Returns whether the peer was known.
  bool kill_peer_connection(const std::string& name);
  // kill_peer_connection for every registered peer: a reconnect storm, with
  // each peer retrying under its own jittered backoff.
  void kill_all_connections();

  // Queues `env` for `peer`. Returns false only if the peer is unknown;
  // a true return means the transport took responsibility for the envelope
  // -- including dropping it with a synthesized local nack when the queue
  // is full or the frame exceeds max_frame_bytes.
  bool send_to(const std::string& peer, const Envelope& env);

  // Routes by destination instance (remote_instances map; everything goes
  // to "self" in loopback mode). False = no route, caller should deliver
  // locally.
  bool route(const Envelope& env);

  // Whether some peer is configured to host `instance`.
  [[nodiscard]] bool routes_instance(Symbol instance) const;

  struct PeerStats {
    bool connected = false;
    std::size_t queued = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t queue_drops = 0;
  };
  [[nodiscard]] std::map<std::string, PeerStats> peer_stats() const;

 private:
  struct Peer {
    std::string name;
    TcpPeerAddr addr;
    enum class State { kIdle, kConnecting, kConnected };
    State state = State::kIdle;
    int fd = -1;
    SteadyTime retry_at{};  // earliest next connect attempt while kIdle
    Nanos backoff{0};       // current (pre-jitter) retry delay
    bool ever_connected = false;
    std::deque<Bytes> queue;     // framed (header+payload) buffers, FIFO
    std::size_t write_off = 0;   // bytes of queue.front() already written
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t queue_drops = 0;
    bool kill = false;  // chaos: event loop drops the connection, keeps peer
    // Cost-profile send-queue-depth histogram; null without a profiler.
    obs::Histogram* prof_depth = nullptr;
  };

  // One accepted inbound connection with its incremental frame parser.
  // Owned exclusively by the event-loop thread (no locking).
  struct InConn {
    int fd = -1;
    std::uint8_t hdr[4] = {0, 0, 0, 0};
    std::size_t hdr_got = 0;
    bool in_payload = false;
    Bytes payload;
    std::size_t payload_got = 0;
  };

  void loop();
  void wake();
  // All *_locked helpers require mu_ held.
  Peer& ensure_peer_locked(const std::string& name, TcpPeerAddr addr);
  void start_connect_locked(Peer& p);
  void on_connected_locked(Peer& p, int fd);
  void schedule_retry_locked(Peer& p);
  void poison_locked(Peer& p, bool count_send_failure);
  void flush_locked(Peer& p);
  void handle_peer_event(const std::string& name, short revents);
  // Returns false when the connection must be closed.
  bool handle_inbound_readable(InConn& c);
  void complete_inbound_frame(InConn& c);
  void nack_back(const Envelope& env, const std::string& reason);
  void trace_anomaly(const char* label, std::uint64_t value);

  DeliverFn deliver_;
  TcpOptions options_;
  obs::TraceSink* trace_sink_ = nullptr;
  obs::Profiler* profiler_ = nullptr;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  int wake_r_ = -1;
  int wake_w_ = -1;

  mutable std::mutex mu_;  // guards peers_, instance_peers_, stop_,
                           // heartbeat_source_
  std::map<std::string, std::unique_ptr<Peer>> peers_;
  // Peers removed via remove_peer, awaiting their fd close on the event
  // loop thread (which may be polling the fd right now). Guarded by mu_.
  std::vector<std::unique_ptr<Peer>> doomed_;
  std::map<Symbol, std::string> instance_peers_;
  bool stop_ = false;
  std::function<Envelope()> heartbeat_source_;
  Rng jitter_;  // event-loop thread only (after construction)

  std::vector<InConn> conns_;       // event-loop thread only
  SteadyTime next_heartbeat_{};     // event-loop thread only

  // Borrowed aggregate counter handles; all null when metrics are disabled.
  obs::Counter* frames_sent_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* frames_received_ = nullptr;
  obs::Counter* bytes_received_ = nullptr;
  obs::Counter* frames_corrupt_ = nullptr;
  obs::Counter* frames_oversize_ = nullptr;
  obs::Counter* send_failures_ = nullptr;
  obs::Counter* reconnects_ = nullptr;
  obs::Counter* queue_drops_ = nullptr;

  std::thread thread_;  // started last, joined in destructor
};

}  // namespace csaw
