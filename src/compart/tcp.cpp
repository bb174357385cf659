#include "compart/tcp.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "obs/profile.hpp"
#include "support/check.hpp"

namespace csaw {

namespace tcpio {
namespace {

// Blocks until `fd` is ready for `events`, retrying EINTR.
bool wait_ready(int fd, short events) {
  pollfd p{fd, events, 0};
  while (true) {
    const int r = ::poll(&p, 1, -1);
    if (r >= 0) return true;
    if (errno != EINTR) return false;
  }
}

}  // namespace

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    const auto got = ::read(fd, p, n);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return false;  // EOF
    // A signal landing on the reader thread must not drop the stream.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!wait_ready(fd, POLLIN)) return false;
      continue;
    }
    return false;
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    // MSG_NOSIGNAL: a closed peer yields EPIPE here instead of a SIGPIPE
    // that would kill the whole process.
    const auto put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put > 0) {
      p += put;
      n -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait_ready(fd, POLLOUT)) return false;
      continue;
    }
    return false;
  }
  return true;
}

FrameStatus write_frame(int fd, const Bytes& payload, std::size_t max_frame) {
  if (payload.size() > max_frame) return FrameStatus::kOversize;
  std::uint32_t len = htonl(static_cast<std::uint32_t>(payload.size()));
  if (!write_exact(fd, &len, sizeof(len))) return FrameStatus::kError;
  if (!payload.empty() && !write_exact(fd, payload.data(), payload.size())) {
    return FrameStatus::kError;
  }
  return FrameStatus::kOk;
}

FrameStatus read_frame(int fd, Bytes* payload, std::size_t max_frame) {
  std::uint32_t len_be = 0;
  if (!read_exact(fd, &len_be, sizeof(len_be))) return FrameStatus::kEof;
  const std::size_t len = ntohl(len_be);
  // Bound check BEFORE the allocation: a corrupt header must not be able to
  // demand a multi-GiB buffer.
  if (len > max_frame) return FrameStatus::kOversize;
  payload->resize(len);
  if (len > 0 && !read_exact(fd, payload->data(), len)) {
    return FrameStatus::kError;  // truncated mid-frame
  }
  return FrameStatus::kOk;
}

}  // namespace tcpio

namespace {

constexpr int kMaxCoalescedFrames = 64;  // iovecs per sendmsg

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd, bool on) {
  int v = on ? 1 : 0;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v));
}

bool make_addr(const std::string& host, std::uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

}  // namespace

TcpTransport::TcpTransport(DeliverFn deliver, TcpOptions options,
                           obs::Metrics* metrics, obs::TraceSink* trace_sink,
                           obs::Profiler* profiler)
    : deliver_(std::move(deliver)),
      options_(std::move(options)),
      trace_sink_(trace_sink),
      profiler_(profiler),
      jitter_([] {
        std::random_device rd;
        return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
      }()) {
  if (metrics != nullptr) {
    frames_sent_ = &metrics->counter("tcp_frames_sent");
    bytes_sent_ = &metrics->counter("tcp_bytes_sent");
    frames_received_ = &metrics->counter("tcp_frames_received");
    bytes_received_ = &metrics->counter("tcp_bytes_received");
    frames_corrupt_ = &metrics->counter("tcp_frames_corrupt");
    frames_oversize_ = &metrics->counter("tcp_frames_oversize");
    send_failures_ = &metrics->counter("tcp_send_failures");
    reconnects_ = &metrics->counter("tcp_reconnects");
    queue_drops_ = &metrics->counter("tcp_queue_drops");
  }

  if (options_.listen_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    CSAW_CHECK(listen_fd_ >= 0) << "socket() failed";
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    CSAW_CHECK(make_addr(options_.listen_host,
                         static_cast<std::uint16_t>(options_.listen_port),
                         &addr))
        << "bad listen host '" << options_.listen_host << "'";
    CSAW_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0)
        << "bind(" << options_.listen_host << ":" << options_.listen_port
        << ") failed: " << std::strerror(errno);
    CSAW_CHECK(::listen(listen_fd_, 16) == 0) << "listen() failed";
    socklen_t len = sizeof(addr);
    CSAW_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0)
        << "getsockname() failed";
    listen_port_ = ntohs(addr.sin_port);
    set_nonblocking(listen_fd_);
  }

  int pipefd[2];
  CSAW_CHECK(::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) == 0) << "pipe2() failed";
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];

  {
    std::scoped_lock lock(mu_);
    instance_peers_ = options_.remote_instances;
    for (const auto& [name, addr] : options_.peers) {
      ensure_peer_locked(name, addr);
    }
    if (options_.loopback_self) {
      CSAW_CHECK(listen_fd_ >= 0) << "loopback transport needs a listener";
      ensure_peer_locked("self", TcpPeerAddr{options_.listen_host,
                                             listen_port_});
    }
  }

  thread_ = std::thread([this] { loop(); });
}

TcpTransport::~TcpTransport() {
  stop();
  for (auto& [name, p] : peers_) {
    if (p->fd >= 0) ::close(p->fd);
  }
  for (auto& p : doomed_) {
    if (p->fd >= 0) ::close(p->fd);
  }
  for (auto& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

void TcpTransport::stop() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void TcpTransport::wake() {
  const std::uint8_t b = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] auto n = ::write(wake_w_, &b, 1);
}

TcpTransport::Peer& TcpTransport::ensure_peer_locked(const std::string& name,
                                                     TcpPeerAddr addr) {
  auto it = peers_.find(name);
  if (it != peers_.end()) {
    it->second->addr = std::move(addr);
    return *it->second;
  }
  auto p = std::make_unique<Peer>();
  p->name = name;
  p->addr = std::move(addr);
  p->retry_at = steady_now();  // connect eagerly
  if (profiler_ != nullptr) {
    p->prof_depth = profiler_->link_queue_depth(name);
  }
  auto& ref = *p;
  peers_.emplace(name, std::move(p));
  return ref;
}

void TcpTransport::set_heartbeat_source(std::function<Envelope()> source) {
  {
    std::scoped_lock lock(mu_);
    heartbeat_source_ = std::move(source);
  }
  wake();
}

void TcpTransport::add_peer(const std::string& name, TcpPeerAddr addr) {
  {
    std::scoped_lock lock(mu_);
    ensure_peer_locked(name, std::move(addr));
  }
  wake();
}

void TcpTransport::map_instance(Symbol instance, const std::string& peer) {
  std::scoped_lock lock(mu_);
  instance_peers_[instance] = peer;
}

bool TcpTransport::remove_peer(const std::string& name) {
  bool known = false;
  std::size_t dropped = 0;
  {
    std::scoped_lock lock(mu_);
    auto it = peers_.find(name);
    if (it != peers_.end()) {
      known = true;
      Peer& p = *it->second;
      dropped = p.queue.size();
      if (dropped > 0) {
        p.queue_drops += dropped;
        if (queue_drops_ != nullptr) queue_drops_->add(dropped);
      }
      p.queue.clear();
      p.write_off = 0;
      // The peer's totals leave with it; the profile keeps them.
      if (profiler_ != nullptr) {
        profiler_->fold_link({.node = profiler_->node(),
                              .peer = name,
                              .frames_sent = p.frames_sent,
                              .bytes_sent = p.bytes_sent,
                              .queue_drops = p.queue_drops,
                              .reconnects = p.reconnects});
      }
      // The fd stays open until the event loop (its owner) closes it; the
      // peer is unreachable by name from this point on.
      doomed_.push_back(std::move(it->second));
      peers_.erase(it);
    }
    for (auto mit = instance_peers_.begin(); mit != instance_peers_.end();) {
      if (mit->second == name) {
        mit = instance_peers_.erase(mit);
      } else {
        ++mit;
      }
    }
  }
  wake();
  if (known) trace_anomaly("tcp_peer_removed", dropped);
  return known;
}

void TcpTransport::unmap_instance(Symbol instance) {
  std::scoped_lock lock(mu_);
  instance_peers_.erase(instance);
}

bool TcpTransport::kill_peer_connection(const std::string& name) {
  bool known = false;
  {
    std::scoped_lock lock(mu_);
    auto it = peers_.find(name);
    if (it != peers_.end()) {
      known = true;
      it->second->kill = true;
    }
  }
  wake();
  if (known) trace_anomaly("tcp_conn_killed", 0);
  return known;
}

void TcpTransport::kill_all_connections() {
  std::size_t n = 0;
  {
    std::scoped_lock lock(mu_);
    for (auto& [name, p] : peers_) {
      p->kill = true;
      ++n;
    }
  }
  wake();
  trace_anomaly("tcp_reconnect_storm", n);
}

bool TcpTransport::routes_instance(Symbol instance) const {
  std::scoped_lock lock(mu_);
  return instance_peers_.contains(instance);
}

bool TcpTransport::route(const Envelope& env) {
  std::string peer;
  {
    std::scoped_lock lock(mu_);
    if (options_.loopback_self) {
      peer = "self";
    } else {
      auto it = instance_peers_.find(env.to.instance);
      if (it == instance_peers_.end()) return false;
      peer = it->second;
    }
  }
  return send_to(peer, env);
}

bool TcpTransport::send_to(const std::string& peer, const Envelope& env) {
  const Bytes payload = encode_envelope(env);
  const char* drop_reason = nullptr;
  {
    std::scoped_lock lock(mu_);
    auto it = peers_.find(peer);
    if (it == peers_.end()) return false;
    Peer& p = *it->second;
    if (payload.size() > options_.max_frame_bytes) {
      // Encode-side bound: the frame would be rejected (and the connection
      // killed) at the receiver anyway; refuse it here where the sender can
      // still be told.
      if (frames_oversize_ != nullptr) frames_oversize_->add();
      if (send_failures_ != nullptr) send_failures_->add();
      drop_reason = "frame exceeds max_frame_bytes";
    } else if (p.queue.size() >= options_.send_queue_cap) {
      ++p.queue_drops;
      if (queue_drops_ != nullptr) queue_drops_->add();
      drop_reason = "send queue overflow";
    } else {
      Bytes frame(sizeof(std::uint32_t) + payload.size());
      const std::uint32_t len =
          htonl(static_cast<std::uint32_t>(payload.size()));
      std::memcpy(frame.data(), &len, sizeof(len));
      std::memcpy(frame.data() + sizeof(len), payload.data(), payload.size());
      p.queue.push_back(std::move(frame));
      // Depth *after* the push: the backlog this frame joins.
      if (p.prof_depth != nullptr) p.prof_depth->record(p.queue.size());
    }
  }
  if (drop_reason == nullptr) {
    wake();
    return true;
  }
  trace_anomaly("tcp_frame_dropped", payload.size());
  // Surface the loss to the local sender: failover/watched-failover see a
  // prompt kUnreachable instead of waiting out the push deadline.
  nack_back(env, std::string(drop_reason) + " to peer '" + peer + "'");
  return true;
}

void TcpTransport::nack_back(const Envelope& env, const std::string& reason) {
  if (env.kind != Envelope::Kind::kUpdate || env.seq == 0) return;
  Envelope ack;
  ack.kind = Envelope::Kind::kAck;
  ack.seq = env.seq;
  ack.from_instance = env.to.instance;
  ack.to = JunctionAddr{env.from_instance, Symbol()};
  ack.nack = true;
  ack.nack_reason = "tcp: " + reason;
  deliver_(std::move(ack));
}

void TcpTransport::trace_anomaly(const char* label, std::uint64_t value) {
  if (trace_sink_ == nullptr) return;
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kCustom;
  e.instance = Symbol("tcp");
  e.label = Symbol(label);
  e.value_ns = value;
  trace_sink_->record(e);
}

void TcpTransport::start_connect_locked(Peer& p) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    schedule_retry_locked(p);
    return;
  }
  sockaddr_in addr{};
  if (!make_addr(p.addr.host, p.addr.port, &addr)) {
    ::close(fd);
    schedule_retry_locked(p);
    return;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc == 0) {
    on_connected_locked(p, fd);
  } else if (errno == EINPROGRESS) {
    p.fd = fd;
    p.state = Peer::State::kConnecting;
  } else {
    ::close(fd);
    schedule_retry_locked(p);
  }
}

void TcpTransport::on_connected_locked(Peer& p, int fd) {
  p.fd = fd;
  p.state = Peer::State::kConnected;
  p.backoff = Nanos{0};
  p.write_off = 0;  // a partial frame from the old connection restarts whole
  set_nodelay(fd, options_.nodelay);
  if (p.ever_connected) {
    ++p.reconnects;
    if (reconnects_ != nullptr) reconnects_->add();
  }
  p.ever_connected = true;
}

void TcpTransport::schedule_retry_locked(Peer& p) {
  if (p.fd >= 0) ::close(p.fd);
  p.fd = -1;
  p.state = Peer::State::kIdle;
  const Nanos initial = options_.backoff_initial;
  const Nanos cap = options_.backoff_max;
  p.backoff = p.backoff.count() == 0
                  ? initial
                  : std::min<Nanos>(p.backoff * 2, cap);
  // Jitter uniformly in [backoff/2, backoff] so a restarted peer is not hit
  // by every sender in lockstep.
  const auto half = static_cast<std::uint64_t>(p.backoff.count() / 2);
  const Nanos delay{half + jitter_.below(half + 1)};
  p.retry_at = steady_now() + delay;
}

void TcpTransport::poison_locked(Peer& p, bool count_send_failure) {
  // A connection dying with frames still queued (or a partially-written
  // front frame) is a send failure however the death was observed (sendmsg
  // error, EOF, POLLERR): sends pending on this connection will never
  // complete on it. An idle connection dropping is just a reconnect.
  if ((count_send_failure || p.write_off > 0 || !p.queue.empty()) &&
      send_failures_ != nullptr) {
    send_failures_->add();
  }
  // Keep the queue: everything unsent (including the partially-written
  // front frame, restarted from byte 0) goes out on the next connection.
  schedule_retry_locked(p);
}

void TcpTransport::flush_locked(Peer& p) {
  while (p.state == Peer::State::kConnected && !p.queue.empty()) {
    iovec iov[kMaxCoalescedFrames];
    int cnt = 0;
    iov[cnt].iov_base = p.queue.front().data() + p.write_off;
    iov[cnt].iov_len = p.queue.front().size() - p.write_off;
    ++cnt;
    if (options_.coalesce) {
      for (std::size_t i = 1;
           i < p.queue.size() && cnt < kMaxCoalescedFrames; ++i, ++cnt) {
        iov[cnt].iov_base = p.queue[i].data();
        iov[cnt].iov_len = p.queue[i].size();
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    ssize_t n;
    do {
      n = ::sendmsg(p.fd, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // wait for POLLOUT
      // Hard failure (EPIPE, ECONNRESET, ...): this connection is poisoned
      // -- a partial header/payload write on it would desync the framing,
      // so it is never reused. Counted as a send failure, NOT as sent.
      poison_locked(p, /*count_send_failure=*/true);
      return;
    }
    // Success counters only cover frames that went out whole.
    auto remaining = static_cast<std::size_t>(n);
    while (remaining > 0 && !p.queue.empty()) {
      const std::size_t left = p.queue.front().size() - p.write_off;
      if (remaining >= left) {
        remaining -= left;
        const std::size_t frame_bytes = p.queue.front().size();
        ++p.frames_sent;
        p.bytes_sent += frame_bytes;
        if (frames_sent_ != nullptr) frames_sent_->add();
        if (bytes_sent_ != nullptr) bytes_sent_->add(frame_bytes);
        p.queue.pop_front();
        p.write_off = 0;
      } else {
        p.write_off += remaining;
        remaining = 0;
      }
    }
  }
}

void TcpTransport::handle_peer_event(const std::string& name, short revents) {
  std::scoped_lock lock(mu_);
  auto it = peers_.find(name);
  if (it == peers_.end()) return;
  Peer& p = *it->second;
  if (p.state == Peer::State::kConnecting) {
    if ((revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        schedule_retry_locked(p);
        return;
      }
      const int fd = p.fd;
      on_connected_locked(p, fd);
      flush_locked(p);
    }
    return;
  }
  if (p.state != Peer::State::kConnected) return;
  if ((revents & POLLIN) != 0) {
    // Peers never send application data on our outbound connections; any
    // readability is either an EOF/RST (connection gone) or stray bytes we
    // discard.
    std::uint8_t scratch[256];
    while (true) {
      const auto got = ::read(p.fd, scratch, sizeof(scratch));
      if (got > 0) continue;
      if (got == 0) {
        poison_locked(p, /*count_send_failure=*/false);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      poison_locked(p, /*count_send_failure=*/false);
      return;
    }
  }
  if ((revents & (POLLERR | POLLHUP)) != 0) {
    poison_locked(p, /*count_send_failure=*/false);
    return;
  }
  flush_locked(p);
}

void TcpTransport::complete_inbound_frame(InConn& c) {
  if (frames_received_ != nullptr) frames_received_->add();
  if (bytes_received_ != nullptr) {
    bytes_received_->add(c.payload.size() + sizeof(c.hdr));
  }
  auto env = decode_envelope(c.payload);
  if (!env.ok()) {
    // Corrupt frame: the framing itself is intact (the length was valid),
    // so the connection survives -- but the loss must be visible to the
    // collector, not silent.
    if (frames_corrupt_ != nullptr) frames_corrupt_->add();
    trace_anomaly("tcp_frame_corrupt", c.payload.size());
  } else {
    deliver_(std::move(*env));
  }
  c.hdr_got = 0;
  c.in_payload = false;
  c.payload.clear();
  c.payload_got = 0;
}

bool TcpTransport::handle_inbound_readable(InConn& c) {
  while (true) {
    if (!c.in_payload) {
      const auto got = ::read(c.fd, c.hdr + c.hdr_got, sizeof(c.hdr) - c.hdr_got);
      if (got == 0) return false;  // clean close (mid-header = truncated tail)
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      c.hdr_got += static_cast<std::size_t>(got);
      if (c.hdr_got < sizeof(c.hdr)) continue;
      std::uint32_t len_be;
      std::memcpy(&len_be, c.hdr, sizeof(len_be));
      const std::size_t len = ntohl(len_be);
      if (len > options_.max_frame_bytes) {
        // Oversize header: likely corruption. Reject BEFORE allocating the
        // payload (a bad header must not cost gigabytes) and drop the
        // connection -- after a bogus length the stream can't be resynced.
        if (frames_oversize_ != nullptr) frames_oversize_->add();
        trace_anomaly("tcp_frame_oversize", len);
        return false;
      }
      c.payload.resize(len);
      c.payload_got = 0;
      c.in_payload = true;
      if (len == 0) complete_inbound_frame(c);
      continue;
    }
    const auto got = ::read(c.fd, c.payload.data() + c.payload_got,
                            c.payload.size() - c.payload_got);
    if (got == 0) return false;  // truncated mid-frame
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    c.payload_got += static_cast<std::size_t>(got);
    if (c.payload_got == c.payload.size()) complete_inbound_frame(c);
  }
}

void TcpTransport::loop() {
  enum class Slot { kWake, kListen, kPeer, kConn };
  struct Meta {
    Slot slot;
    std::string peer;       // kPeer
    std::size_t conn = 0;   // kConn
  };
  std::vector<pollfd> pfds;
  std::vector<Meta> meta;

  const Nanos hb_interval = options_.heartbeat_interval;

  while (true) {
    // Heartbeats: fire outside mu_ -- the source callback reads runtime
    // state whose locks are taken while calling back into send_to (which
    // locks mu_), so holding mu_ here would invert that order.
    if (hb_interval.count() > 0) {
      const SteadyTime now = steady_now();
      if (now >= next_heartbeat_) {
        std::function<Envelope()> source;
        std::vector<std::string> names;
        {
          std::scoped_lock lock(mu_);
          source = heartbeat_source_;
          names.reserve(peers_.size());
          for (const auto& [name, p] : peers_) names.push_back(name);
        }
        if (source) {
          const Envelope hb = source();
          for (const auto& name : names) (void)send_to(name, hb);
        }
        next_heartbeat_ = now + hb_interval;
      }
    }

    pfds.clear();
    meta.clear();
    pfds.push_back({wake_r_, POLLIN, 0});
    meta.push_back({Slot::kWake, {}, 0});
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      meta.push_back({Slot::kListen, {}, 0});
    }

    Nanos timeout{-1};
    if (hb_interval.count() > 0) timeout = next_heartbeat_ - steady_now();
    {
      std::scoped_lock lock(mu_);
      if (stop_) return;
      // Deferred work owned by this thread: close fds of removed peers (no
      // other thread may close an fd this loop could be polling) and drop
      // chaos-killed connections so backoff/reconnect takes over.
      for (auto& p : doomed_) {
        if (p->fd >= 0) ::close(p->fd);
      }
      doomed_.clear();
      for (auto& [name, p] : peers_) {
        if (p->kill) {
          p->kill = false;
          if (p->state != Peer::State::kIdle) {
            poison_locked(*p, /*count_send_failure=*/false);
          }
        }
      }
      const SteadyTime now = steady_now();
      for (auto& [name, p] : peers_) {
        if (p->state == Peer::State::kIdle && now >= p->retry_at) {
          start_connect_locked(*p);
          if (p->state == Peer::State::kConnected) flush_locked(*p);
        }
        switch (p->state) {
          case Peer::State::kIdle: {
            const Nanos until = p->retry_at - now;
            if (timeout.count() < 0 || until < timeout) timeout = until;
            break;
          }
          case Peer::State::kConnecting:
            pfds.push_back({p->fd, POLLOUT, 0});
            meta.push_back({Slot::kPeer, name, 0});
            break;
          case Peer::State::kConnected: {
            short ev = POLLIN;
            if (!p->queue.empty()) ev |= POLLOUT;
            pfds.push_back({p->fd, ev, 0});
            meta.push_back({Slot::kPeer, name, 0});
            break;
          }
        }
      }
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds.push_back({conns_[i].fd, POLLIN, 0});
      meta.push_back({Slot::kConn, {}, i});
    }

    int timeout_ms = -1;
    if (timeout.count() >= 0) {
      timeout_ms = static_cast<int>(
          std::chrono::ceil<Millis>(std::max(timeout, Nanos{0})).count());
      timeout_ms = std::max(timeout_ms, 1);
    }
    const int r = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;  // poll itself failed; nothing sane left to do
    }

    bool sweep_conns = false;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      switch (meta[i].slot) {
        case Slot::kWake: {
          std::uint8_t buf[64];
          while (::read(wake_r_, buf, sizeof(buf)) > 0) {
          }
          break;
        }
        case Slot::kListen: {
          while (true) {
            const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
              if (errno == EINTR) continue;
              break;  // EAGAIN or transient accept failure
            }
            InConn c;
            c.fd = fd;
            conns_.push_back(std::move(c));
          }
          break;
        }
        case Slot::kPeer:
          handle_peer_event(meta[i].peer, pfds[i].revents);
          break;
        case Slot::kConn: {
          InConn& c = conns_[meta[i].conn];
          if (!handle_inbound_readable(c)) {
            ::close(c.fd);
            c.fd = -1;
            sweep_conns = true;
          }
          break;
        }
      }
    }
    if (sweep_conns) {
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const InConn& c) { return c.fd < 0; }),
                   conns_.end());
    }
  }
}

std::map<std::string, TcpTransport::PeerStats> TcpTransport::peer_stats()
    const {
  std::scoped_lock lock(mu_);
  std::map<std::string, PeerStats> out;
  for (const auto& [name, p] : peers_) {
    PeerStats s;
    s.connected = p->state == Peer::State::kConnected;
    s.queued = p->queue.size();
    s.frames_sent = p->frames_sent;
    s.bytes_sent = p->bytes_sent;
    s.reconnects = p->reconnects;
    s.queue_drops = p->queue_drops;
    out.emplace(name, s);
  }
  return out;
}

}  // namespace csaw
