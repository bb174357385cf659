// Tests for the multi-peer TCP transport: syscall-level robustness of the
// I/O helpers (EINTR retry, SIGPIPE suppression, frame-size bounds), the
// transport's failure semantics (corrupt/oversize frames, queue overflow,
// partial-write poisoning), and runtime-to-runtime meshes including a
// kill-and-restart reconnect under backoff.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "compart/runtime.hpp"
#include "compart/tcp.hpp"
#include "compart/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csaw {
namespace {

using namespace std::chrono_literals;

void install_noop_sigusr1() {
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: syscalls DO get interrupted
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);
}

Bytes pattern_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return b;
}

// Polls `cond` until it holds or `limit` elapses.
template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds limit = 10s) {
  const auto deadline = steady_now() + limit;
  while (steady_now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// A port guaranteed to refuse connections for the holder's lifetime: bound
// (so no parallel test can take it) but never listen()ed on, so connect
// attempts fail with ECONNREFUSED just like a dead peer.
class DeadPort {
 public:
  DeadPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~DeadPort() { ::close(fd_); }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

int listen_on(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  return fd;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Collects envelopes a transport delivers, for assertions.
class Collector {
 public:
  TcpTransport::DeliverFn fn() {
    return [this](Envelope&& env) {
      std::scoped_lock lock(mu_);
      got_.push_back(std::move(env));
    };
  }
  std::size_t count() const {
    std::scoped_lock lock(mu_);
    return got_.size();
  }
  std::vector<Envelope> take() {
    std::scoped_lock lock(mu_);
    return std::move(got_);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Envelope> got_;
};

Envelope test_envelope(std::uint64_t seq, std::size_t payload = 16) {
  Envelope env;
  env.kind = Envelope::Kind::kUpdate;
  env.seq = seq;
  env.from_instance = Symbol("f");
  env.to = JunctionAddr{Symbol("g"), Symbol("j")};
  env.update = Update::write_data(
      Symbol("n"), SerializedValue{Symbol("t"), pattern_bytes(payload)},
      "f::j");
  return env;
}

// --- tcpio: the syscall-level bugfixes -------------------------------------

// Runs `body` on a helper thread and peppers that thread with SIGUSR1 while
// it is still inside `body`, so blocking syscalls keep returning EINTR. The
// handshake (done -> stop signaling -> may_exit -> join) guarantees signals
// never target an exited thread.
class InterruptedWorker {
 public:
  explicit InterruptedWorker(std::function<void()> body) {
    thread_ = std::thread([this, body = std::move(body)] {
      body();
      done_.store(true);
      while (!may_exit_.load()) std::this_thread::sleep_for(1ms);
    });
  }
  ~InterruptedWorker() {
    may_exit_.store(true);
    thread_.join();
  }
  // Sends a burst of signals if the body is still running.
  void pepper() {
    for (int i = 0; i < 3; ++i) {
      if (done_.load()) return;
      ::pthread_kill(thread_.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(1ms);
    }
  }

 private:
  std::atomic<bool> done_{false};
  std::atomic<bool> may_exit_{false};
  std::thread thread_;
};

TEST(TcpIo, ReadExactRetriesEintr) {
  install_noop_sigusr1();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const Bytes sent = pattern_bytes(1 << 20);
  Bytes received(sent.size());
  std::atomic<bool> ok{false};
  {
    // Under the pre-fix helper, the first signal landing while the reader
    // is blocked in read() returned -1/EINTR and silently killed the read.
    InterruptedWorker reader([&] {
      ok.store(tcpio::read_exact(sv[1], received.data(), received.size()));
    });
    // Slow drip so the reader blocks -- and gets signaled -- repeatedly.
    std::size_t off = 0;
    while (off < sent.size()) {
      reader.pepper();
      const std::size_t chunk =
          std::min<std::size_t>(64 * 1024, sent.size() - off);
      ASSERT_TRUE(tcpio::write_exact(sv[0], sent.data() + off, chunk));
      off += chunk;
    }
  }
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(received, sent);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(TcpIo, WriteExactRetriesEintr) {
  install_noop_sigusr1();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Small buffers so the writer blocks (and eats signals) mid-transfer.
  int sz = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
  const Bytes sent = pattern_bytes(4 << 20);
  std::atomic<bool> ok{false};
  Bytes received(sent.size());
  {
    InterruptedWorker writer([&] {
      ok.store(tcpio::write_exact(sv[0], sent.data(), sent.size()));
    });
    std::size_t off = 0;
    while (off < received.size()) {
      writer.pepper();
      const auto got =
          ::read(sv[1], received.data() + off,
                 std::min<std::size_t>(64 * 1024, received.size() - off));
      ASSERT_GT(got, 0);
      off += static_cast<std::size_t>(got);
    }
  }
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(received, sent);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(TcpIo, ClosedPeerYieldsErrorNotSigpipe) {
  // SIGPIPE keeps its default (process-killing) disposition: the write must
  // suppress it via MSG_NOSIGNAL, not rely on a global signal handler.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  const Bytes junk = pattern_bytes(1 << 20);
  // Pre-fix (plain write()) this raised SIGPIPE and killed the test binary.
  EXPECT_FALSE(tcpio::write_exact(sv[0], junk.data(), junk.size()));
  ::close(sv[0]);
}

TEST(TcpIo, FrameBoundsEnforcedOnWriteAndRead) {
  constexpr std::size_t kMax = 1024;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  // Encode-side: an oversize payload is refused without touching the fd.
  EXPECT_EQ(tcpio::write_frame(sv[0], pattern_bytes(kMax + 1), kMax),
            tcpio::FrameStatus::kOversize);

  // In-bounds roundtrip still works.
  const Bytes payload = pattern_bytes(kMax);
  EXPECT_EQ(tcpio::write_frame(sv[0], payload, kMax), tcpio::FrameStatus::kOk);
  Bytes back;
  EXPECT_EQ(tcpio::read_frame(sv[1], &back, kMax), tcpio::FrameStatus::kOk);
  EXPECT_EQ(back, payload);

  // Decode-side: a corrupt header claiming a huge frame is rejected before
  // any allocation (pre-fix: Bytes payload(ntohl(len)) tried to allocate).
  const std::uint32_t huge = htonl(0x7fffffff);
  ASSERT_TRUE(tcpio::write_exact(sv[0], &huge, sizeof(huge)));
  EXPECT_EQ(tcpio::read_frame(sv[1], &back, kMax),
            tcpio::FrameStatus::kOversize);

  // Truncation mid-frame is an error, not a silent short read.
  const std::uint32_t hundred = htonl(100);
  ASSERT_TRUE(tcpio::write_exact(sv[0], &hundred, sizeof(hundred)));
  ASSERT_TRUE(tcpio::write_exact(sv[0], payload.data(), 10));
  ::close(sv[0]);
  EXPECT_EQ(tcpio::read_frame(sv[1], &back, kMax), tcpio::FrameStatus::kError);
  ::close(sv[1]);
}

// --- TcpTransport: routing, frame hygiene, failure accounting --------------

TEST(TcpTransportMesh, DeliversBetweenTwoTransports) {
  obs::Metrics ma, mb;
  Collector got_b;
  TcpTransport b(got_b.fn(), TcpOptions{}, &mb);
  ASSERT_GT(b.port(), 0);

  TcpOptions oa;
  oa.peers["b"] = TcpPeerAddr{"127.0.0.1", b.port()};
  oa.remote_instances[Symbol("g")] = "b";
  Collector got_a;
  TcpTransport a(got_a.fn(), oa, &ma);

  EXPECT_TRUE(a.routes_instance(Symbol("g")));
  EXPECT_FALSE(a.routes_instance(Symbol("elsewhere")));
  EXPECT_TRUE(a.route(test_envelope(1)));
  Envelope unroutable = test_envelope(2);
  unroutable.to.instance = Symbol("elsewhere");
  EXPECT_FALSE(a.route(unroutable));

  ASSERT_TRUE(eventually([&] { return got_b.count() >= 1; }));
  const auto envs = got_b.take();
  ASSERT_EQ(envs.size(), 1u);
  EXPECT_EQ(envs[0].seq, 1u);
  EXPECT_EQ(envs[0].to.instance, Symbol("g"));
  EXPECT_EQ(ma.counter("tcp_frames_sent").value(), 1u);
  EXPECT_EQ(a.peer_stats().at("b").frames_sent, 1u);
  EXPECT_EQ(mb.counter("tcp_frames_received").value(), 1u);
  EXPECT_EQ(mb.counter("tcp_frames_corrupt").value(), 0u);
}

TEST(TcpTransportMesh, CorruptFrameCountedTracedAndStreamSurvives) {
  obs::Metrics metrics;
  obs::Tracer tracer;
  Collector got;
  TcpTransport b(got.fn(), TcpOptions{}, &metrics, &tracer);

  const int fd = connect_loopback(b.port());
  // A well-framed but undecodable payload: counted, traced, NOT fatal to
  // the connection (pre-fix it was dropped with no signal at all).
  const Bytes garbage{0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(tcpio::write_frame(fd, garbage, 4 << 20), tcpio::FrameStatus::kOk);
  const Bytes good = encode_envelope(test_envelope(7));
  ASSERT_EQ(tcpio::write_frame(fd, good, 4 << 20), tcpio::FrameStatus::kOk);

  ASSERT_TRUE(eventually([&] { return got.count() >= 1; }));
  EXPECT_EQ(got.take()[0].seq, 7u);
  EXPECT_EQ(metrics.counter("tcp_frames_corrupt").value(), 1u);
  EXPECT_EQ(metrics.counter("tcp_frames_received").value(), 2u);
  bool traced = false;
  for (const auto& e : tracer.drain()) {
    if (e.kind == obs::TraceEvent::Kind::kCustom &&
        e.label == Symbol("tcp_frame_corrupt")) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced) << "corrupt frame must emit a trace event";
  ::close(fd);
}

TEST(TcpTransportMesh, OversizeHeaderRejectedAndConnectionClosed) {
  obs::Metrics metrics;
  Collector got;
  TcpOptions opts;
  opts.max_frame_bytes = 64 * 1024;
  TcpTransport b(got.fn(), opts, &metrics);

  const int fd = connect_loopback(b.port());
  const std::uint32_t huge = htonl(0x40000000);  // claims a 1 GiB frame
  ASSERT_TRUE(tcpio::write_exact(fd, &huge, sizeof(huge)));
  // The transport must reject the frame (without attempting the 1 GiB
  // allocation) and close the unrecoverable stream: we observe EOF.
  std::uint8_t byte;
  ASSERT_TRUE(eventually([&] {
    return ::recv(fd, &byte, 1, MSG_DONTWAIT) == 0;
  })) << "transport should close the connection after an oversize header";
  EXPECT_EQ(metrics.counter("tcp_frames_oversize").value(), 1u);
  EXPECT_EQ(got.count(), 0u);
  ::close(fd);
}

TEST(TcpTransportMesh, QueueOverflowDropsCountsAndNacksLocally) {
  // Peer address points at a port with no listener: the connection retries
  // under backoff while sends pile into the bounded queue.
  obs::Metrics metrics;
  Collector got;
  DeadPort dead;
  TcpOptions opts;
  opts.listen_port = -1;  // send-only node
  opts.peers["b"] = TcpPeerAddr{"127.0.0.1", dead.port()};
  opts.remote_instances[Symbol("g")] = "b";
  opts.send_queue_cap = 2;
  opts.backoff_initial = Millis(50);
  TcpTransport a(got.fn(), opts, &metrics);

  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_TRUE(a.route(test_envelope(seq)));
  }
  // First two queued; three dropped, each surfacing as a local nack so the
  // sender's push fails fast instead of timing out.
  ASSERT_TRUE(eventually([&] { return got.count() >= 3; }));
  const auto nacks = got.take();
  ASSERT_EQ(nacks.size(), 3u);
  for (const auto& n : nacks) {
    EXPECT_EQ(n.kind, Envelope::Kind::kAck);
    EXPECT_TRUE(n.nack);
    EXPECT_NE(n.nack_reason.find("overflow"), std::string::npos)
        << n.nack_reason;
    EXPECT_EQ(n.to.instance, Symbol("f"));
  }
  EXPECT_EQ(metrics.counter("tcp_queue_drops").value(), 3u);
  EXPECT_EQ(a.peer_stats().at("b").queue_drops, 3u);
}

TEST(TcpTransportMesh, OversizeSendRefusedAndNackedLocally) {
  obs::Metrics metrics;
  Collector got;
  DeadPort dead;
  TcpOptions opts;
  opts.listen_port = -1;
  opts.peers["b"] = TcpPeerAddr{"127.0.0.1", dead.port()};
  opts.remote_instances[Symbol("g")] = "b";
  opts.max_frame_bytes = 1024;
  TcpTransport a(got.fn(), opts, &metrics);

  ASSERT_TRUE(a.route(test_envelope(1, 4096)));  // encodes past the bound
  ASSERT_TRUE(eventually([&] { return got.count() >= 1; }));
  const auto nacks = got.take();
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_TRUE(nacks[0].nack);
  EXPECT_NE(nacks[0].nack_reason.find("max_frame_bytes"), std::string::npos);
  EXPECT_EQ(metrics.counter("tcp_frames_oversize").value(), 1u);
  EXPECT_EQ(metrics.counter("tcp_send_failures").value(), 1u);
}

TEST(TcpTransportMesh, PartialWriteOnDeadPeerPoisonsAndFramingSurvives) {
  // A raw accept-then-stall listener: the transport's flush fills the
  // socket buffers and stalls mid-frame, then the peer dies without
  // reading. Pre-fix, the partially-written frame was counted as sent and
  // the retransmit continued from the middle of the frame, desyncing the
  // receiver's framing forever. Post-fix: the death is counted as a send
  // failure, the connection is poisoned, and after the reconnect every
  // frame decodes cleanly because the partial frame restarts from byte 0.
  const std::uint16_t port = pick_free_port();
  const int lfd = listen_on(port);

  obs::Metrics metrics;
  Collector got;
  TcpOptions opts;
  opts.listen_port = -1;
  opts.peers["b"] = TcpPeerAddr{"127.0.0.1", port};
  opts.remote_instances[Symbol("g")] = "b";
  opts.backoff_initial = Millis(10);
  auto a = std::make_unique<TcpTransport>(got.fn(), opts, &metrics);

  const int stalled = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(stalled, 0);
  int tiny = 4096;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));

  // Queue far more than the kernel's socket buffers can hold (sender-side
  // autotuning can grow past 4 MiB): the flush must stall mid-frame.
  constexpr std::uint64_t kFrames = 96;
  for (std::uint64_t seq = 1; seq <= kFrames; ++seq) {
    ASSERT_TRUE(a->route(test_envelope(seq, 256 * 1024)));
  }
  ASSERT_TRUE(eventually([&] { return a->peer_stats().at("b").connected; }));
  std::this_thread::sleep_for(100ms);  // let the flush fill the buffers
  // Kill the stalled receiver without reading: RST lands mid-frame.
  ::close(stalled);
  ASSERT_TRUE(eventually([&] {
    return metrics.counter("tcp_send_failures").value() >= 1;
  })) << "a connection dying mid-frame must count as a send failure";

  // Accept the reconnect and read until the transport has drained its
  // queue; then tear the transport down so the stream ends cleanly. Every
  // frame received on this second connection must decode.
  const int fd2 = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(fd2, 0);
  std::atomic<std::size_t> decoded{0};
  std::atomic<bool> all_ok{true};
  std::thread drainer([&] {
    while (true) {
      Bytes payload;
      const auto st = tcpio::read_frame(fd2, &payload, 4 << 20);
      if (st != tcpio::FrameStatus::kOk) {
        if (st != tcpio::FrameStatus::kEof) all_ok.store(false);
        return;
      }
      if (!decode_envelope(payload).ok()) all_ok.store(false);
      decoded.fetch_add(1);
    }
  });
  ASSERT_TRUE(eventually([&] { return a->peer_stats().at("b").queued == 0; }));
  const auto stats = a->peer_stats().at("b");
  a.reset();  // closes the connection at a frame boundary (queue was empty)
  drainer.join();
  EXPECT_TRUE(all_ok.load())
      << "a frame failed to decode: framing desynced after the reconnect";
  EXPECT_GE(decoded.load(), 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(metrics.counter("tcp_reconnects").value(), 1u);
  // Fully-sent frame count never exceeds what actually left the socket.
  EXPECT_LE(stats.frames_sent, kFrames);
  ::close(fd2);
  ::close(lfd);
}

TEST(TcpTransportMesh, RemovePeerPurgesRoutesAndDropsQueue) {
  // Dynamic membership leave: the peer disappears from the routing maps
  // immediately, its queued frames are discarded as counted queue drops,
  // and subsequent routes fail fast instead of queueing for a ghost.
  obs::Metrics metrics;
  obs::Tracer tracer;
  Collector got;
  DeadPort dead;  // never connects: frames stay queued until removal
  TcpOptions opts;
  opts.listen_port = -1;
  opts.peers["b"] = TcpPeerAddr{"127.0.0.1", dead.port()};
  opts.remote_instances[Symbol("g")] = "b";
  opts.backoff_initial = Millis(50);
  TcpTransport a(got.fn(), opts, &metrics, &tracer);

  ASSERT_TRUE(a.route(test_envelope(1)));
  ASSERT_TRUE(a.route(test_envelope(2)));
  EXPECT_FALSE(a.remove_peer("nobody"));
  EXPECT_TRUE(a.remove_peer("b"));

  EXPECT_FALSE(a.routes_instance(Symbol("g")));
  EXPECT_FALSE(a.route(test_envelope(3)));
  EXPECT_FALSE(a.send_to("b", test_envelope(4)));
  EXPECT_EQ(a.peer_stats().count("b"), 0u);
  EXPECT_EQ(metrics.counter("tcp_queue_drops").value(), 2u);
  bool traced = false;
  for (const auto& e : tracer.drain()) {
    if (e.label == Symbol("tcp_peer_removed")) {
      traced = true;
      EXPECT_EQ(e.value_ns, 2u) << "the event carries the dropped count";
    }
  }
  EXPECT_TRUE(traced) << "peer removal must emit a trace event";

  // Re-join under the same name works (membership is dynamic both ways).
  Collector got_b;
  TcpTransport b(got_b.fn(), TcpOptions{}, nullptr);
  a.add_peer("b", TcpPeerAddr{"127.0.0.1", b.port()});
  a.map_instance(Symbol("g"), "b");
  ASSERT_TRUE(a.route(test_envelope(5)));
  ASSERT_TRUE(eventually([&] { return got_b.count() >= 1; }));
  EXPECT_EQ(got_b.take()[0].seq, 5u);
}

TEST(TcpTransportMesh, KilledConnectionReconnectsAndRetransmitsWhole) {
  // Chaos kKillConn: the connection drops but the peer stays registered, so
  // the jittered-backoff reconnect machinery heals the link and queued
  // frames go out whole on the new connection.
  obs::Metrics metrics;
  obs::Tracer tracer;
  Collector got_b;
  TcpTransport b(got_b.fn(), TcpOptions{}, nullptr);
  TcpOptions opts;
  opts.listen_port = -1;
  opts.peers["b"] = TcpPeerAddr{"127.0.0.1", b.port()};
  opts.remote_instances[Symbol("g")] = "b";
  opts.backoff_initial = Millis(10);
  Collector got_a;
  TcpTransport a(got_a.fn(), opts, &metrics, &tracer);

  ASSERT_TRUE(a.route(test_envelope(1)));
  ASSERT_TRUE(eventually([&] { return got_b.count() >= 1; }));
  (void)got_b.take();

  EXPECT_FALSE(a.kill_peer_connection("nobody"));
  EXPECT_TRUE(a.kill_peer_connection("b"));
  ASSERT_TRUE(a.route(test_envelope(2)));
  ASSERT_TRUE(eventually([&] { return got_b.count() >= 1; }))
      << "traffic must resume after the killed connection reconnects";
  EXPECT_EQ(got_b.take()[0].seq, 2u);
  EXPECT_GE(metrics.counter("tcp_reconnects").value(), 1u);

  // Reconnect storm: every peer's connection drops and heals the same way.
  a.kill_all_connections();
  ASSERT_TRUE(a.route(test_envelope(3)));
  ASSERT_TRUE(eventually([&] { return got_b.count() >= 1; }));
  EXPECT_EQ(got_b.take()[0].seq, 3u);
  bool killed = false, storm = false;
  for (const auto& e : tracer.drain()) {
    if (e.label == Symbol("tcp_conn_killed")) killed = true;
    if (e.label == Symbol("tcp_reconnect_storm")) storm = true;
  }
  EXPECT_TRUE(killed);
  EXPECT_TRUE(storm);
}

// --- runtime-level mesh: push/ack across two runtimes ----------------------

InstanceDesc noop_instance(const char* name, Symbol prop) {
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{prop, false}};
  j.body = [](JunctionEnv&) {};
  InstanceDesc desc;
  desc.name = Symbol(name);
  desc.type = Symbol("tau");
  desc.junctions.push_back(std::move(j));
  return desc;
}

bool prop_is_true(Runtime& rt, Symbol instance, Symbol prop) {
  auto r = rt.table(instance, Symbol("j")).prop(prop);
  return r.ok() && *r;
}

TEST(TcpMeshRuntime, PushAckRoundtripAcrossRuntimes) {
  const Symbol kProp("P");
  obs::Metrics ma, mb;

  RuntimeOptions ob;
  ob.transport = Transport::kTcpMesh;
  ob.metrics = &mb;
  Runtime rb(ob);
  rb.add_instance(noop_instance("g", kProp));
  ASSERT_TRUE(rb.start(Symbol("g")).ok());

  RuntimeOptions oa;
  oa.transport = Transport::kTcpMesh;
  oa.metrics = &ma;
  oa.tcp.peers["b"] = TcpPeerAddr{"127.0.0.1", rb.tcp_transport()->port()};
  oa.tcp.remote_instances[Symbol("g")] = "b";
  Runtime ra(oa);

  // B needs the reverse route so acks reach A's sender.
  rb.tcp_transport()->add_peer(
      "a", TcpPeerAddr{"127.0.0.1", ra.tcp_transport()->port()});
  rb.tcp_transport()->map_instance(Symbol("f"), "a");

  auto st = ra.push({.to = JunctionAddr{Symbol("g"), Symbol("j")},
                     .update = Update::assert_prop(kProp),
                     .deadline = Deadline::after(10s),
                     .from = Symbol("f")});
  ASSERT_TRUE(st.ok()) << st.error().to_string();
  EXPECT_TRUE(
      eventually([&] { return prop_is_true(rb, Symbol("g"), kProp); }));
  EXPECT_GE(ma.counter("tcp_frames_sent").value(), 1u);
  EXPECT_GE(mb.counter("tcp_frames_received").value(), 1u);

  // A push to an instance neither hosted locally nor mapped to a peer nacks
  // as unknown instead of hanging.
  auto bad = ra.push({.to = JunctionAddr{Symbol("nowhere"), Symbol("j")},
                      .update = Update::assert_prop(kProp),
                      .deadline = Deadline::after(5s),
                      .from = Symbol("f")});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kUnreachable);
}

TEST(TcpMeshRuntime, ReconnectAfterPeerRestartRecoversPushes) {
  const Symbol kProp("P");
  const std::uint16_t b_port = pick_free_port();

  obs::Metrics ma;
  RuntimeOptions oa;
  oa.transport = Transport::kTcpMesh;
  oa.metrics = &ma;
  oa.tcp.peers["b"] = TcpPeerAddr{"127.0.0.1", b_port};
  oa.tcp.remote_instances[Symbol("g")] = "b";
  oa.tcp.backoff_initial = Millis(10);
  oa.tcp.backoff_max = Millis(200);
  Runtime ra(oa);

  obs::Metrics mb;
  auto make_b = [&] {
    RuntimeOptions ob;
    ob.transport = Transport::kTcpMesh;
    ob.metrics = &mb;
    ob.tcp.listen_port = b_port;
    ob.tcp.peers["a"] = TcpPeerAddr{"127.0.0.1", ra.tcp_transport()->port()};
    ob.tcp.remote_instances[Symbol("f")] = "a";
    auto rb = std::make_unique<Runtime>(ob);
    rb->add_instance(noop_instance("g", kProp));
    EXPECT_TRUE(rb->start(Symbol("g")).ok());
    return rb;
  };
  auto push_once = [&](Nanos deadline) {
    return ra.push({.to = JunctionAddr{Symbol("g"), Symbol("j")},
                    .update = Update::assert_prop(kProp),
                    .deadline = Deadline::after(deadline),
                    .from = Symbol("f")});
  };

  auto rb = make_b();
  // The first pushes may race the initial connect + backoff; retry.
  ASSERT_TRUE(eventually([&] { return push_once(2s).ok(); }, 20s));

  // Kill the peer: pushes must fail (timeout or prompt nack), not wedge.
  rb.reset();
  auto st = push_once(300ms);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.error().code == Errc::kTimeout ||
              st.error().code == Errc::kUnreachable)
      << st.error().to_string();

  // Restart it on the same port: the transport reconnects under backoff and
  // the failover-style retry loop recovers without rebuilding `ra`.
  rb = make_b();
  ASSERT_TRUE(eventually([&] { return push_once(2s).ok(); }, 30s))
      << "pushes never recovered after peer restart";
  EXPECT_GE(ma.counter("tcp_reconnects").value(), 1u);
  EXPECT_TRUE(
      eventually([&] { return prop_is_true(*rb, Symbol("g"), kProp); }));
}

TEST(TcpMeshRuntime, RemovedPeerKeepsItsLinkTotalsInTheProfile) {
  // Frames queued for a peer that never connects are dropped when the peer
  // is removed; the cost profile must still count them on that link.
  constexpr std::uint64_t kPushes = 4;
  obs::Profiler profiler;
  DeadPort dead;
  RuntimeOptions opts;
  opts.transport = Transport::kTcpMesh;
  opts.acks_enabled = false;  // fire-and-forget: nothing waits on the peer
  opts.profiler = &profiler;
  opts.tcp.listen_port = -1;
  opts.tcp.peers["b"] = TcpPeerAddr{"127.0.0.1", dead.port()};
  opts.tcp.remote_instances[Symbol("g")] = "b";
  opts.tcp.backoff_initial = Millis(50);
  Runtime rt(opts);
  for (std::uint64_t i = 0; i < kPushes; ++i) {
    ASSERT_TRUE(rt.push({.to = JunctionAddr{Symbol("g"), Symbol("j")},
                         .update = Update::assert_prop(Symbol("P")),
                         .from = Symbol("f")})
                    .ok());
  }
  ASSERT_EQ(rt.tcp_transport()->peer_stats().at("b").queued, kPushes);
  ASSERT_TRUE(rt.remove_peer("b"));

  const auto profile = rt.cost_profile();
  const obs::LinkCost* link = nullptr;
  for (const auto& l : profile.links) {
    if (l.peer == "b") link = &l;
  }
  ASSERT_NE(link, nullptr) << "the removed peer's row is missing";
  EXPECT_EQ(link->queue_drops, kPushes);
  EXPECT_EQ(link->frames_sent, 0u);
}

}  // namespace
}  // namespace csaw
