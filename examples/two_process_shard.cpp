// Two OS processes, one C-Saw mesh: a front-end process pushes sharded
// writes to a shard-host process over TcpTransport (Transport::kTcpMesh),
// then kills the shard host mid-stream and restarts it, demonstrating that
// the transport's reconnect-under-backoff recovers the mesh without
// rebuilding the front-end runtime.
//
//   ./two_process_shard              # parent: front-end + orchestration
//   ./two_process_shard --shard-host <listen_port> <parent_port>
//                                    # child role, spawned by the parent
//
// Output ends with "two_process_shard: OK" when all three phases behaved:
//   1. sharded writes (key -> shard0/shard1, both hosted by the child) all
//      ack across the process boundary;
//   2. after SIGKILL of the child, pushes fail promptly (timeout/nack), not
//      silently or by wedging;
//   3. after respawning the child on the same port, pushes recover via the
//      transport's exponential-backoff reconnect (tcp_reconnects >= 1).
//
// With CSAW_PROFILE_DIR=<dir> in the environment, both processes run the
// continuous cost profiler and write per-process CostProfile documents
// (<dir>/profile_parent.json, <dir>/profile_shard.json) at clean shutdown --
// the final child teardown switches from SIGKILL to SIGTERM so its runtime
// destructor gets to write the file. Merge them with:
//   csaw-profile merge <dir>/profile_parent.json <dir>/profile_shard.json
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "compart/runtime.hpp"
#include "compart/tcp.hpp"
#include "obs/metrics.hpp"

using namespace csaw;
using namespace std::chrono_literals;

namespace {

constexpr int kShards = 2;
const char* kShardNames[kShards] = {"shard0", "shard1"};

// CSAW_PROFILE_DIR=<dir> -> "<dir>/profile_<role>.json", else "".
std::string profile_path(const char* role) {
  const char* dir = std::getenv("CSAW_PROFILE_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  return std::string(dir) + "/profile_" + role + ".json";
}

volatile sig_atomic_t g_stop = 0;

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("pick_free_port");
    std::exit(2);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

InstanceDesc shard_instance(const char* name) {
  JunctionDesc j;
  j.name = Symbol("kv");
  j.table_spec.props = {{Symbol("Dirty"), false}};
  j.table_spec.data = {Symbol("v")};
  j.body = [](JunctionEnv&) {};
  InstanceDesc desc;
  desc.name = Symbol(name);
  desc.type = Symbol("shard");
  desc.junctions.push_back(std::move(j));
  return desc;
}

// Child role: host both shards, serve until killed.
int run_shard_host(std::uint16_t listen_port, std::uint16_t parent_port) {
  RuntimeOptions opts;
  opts.transport = Transport::kTcpMesh;
  opts.tcp.listen_port = listen_port;
  // Names align with the parent's peer map so merged link rows pair up
  // ("parent" -> "shard" with "shard" -> "parent").
  opts.tcp.node_name = "shard";
  opts.profile_out = profile_path("shard");
  // Heartbeats carry the RTT echo the profiler's per-link rtt_ns feeds on;
  // only worth the traffic when a profile was requested.
  if (!opts.profile_out.empty()) opts.tcp.heartbeat_interval = Millis(50);
  // Reverse route: acks for the front-end's pushes (from = "front").
  opts.tcp.peers["parent"] = TcpPeerAddr{"127.0.0.1", parent_port};
  opts.tcp.remote_instances[Symbol("front")] = "parent";
  Runtime rt(opts);
  for (const char* name : kShardNames) {
    rt.add_instance(shard_instance(name));
    if (!rt.start(Symbol(name)).ok()) return 2;
  }
  // Serve until the parent kills (SIGKILL: crash phases) or terminates
  // (SIGTERM: clean shutdown, lets ~Runtime write profile_out) us.
  ::signal(SIGTERM, [](int) { g_stop = 1; });
  while (g_stop == 0) std::this_thread::sleep_for(50ms);
  return 0;
}

pid_t spawn_shard_host(const char* self, std::uint16_t listen_port,
                       std::uint16_t parent_port) {
  char listen_arg[16], parent_arg[16];
  std::snprintf(listen_arg, sizeof(listen_arg), "%u", listen_port);
  std::snprintf(parent_arg, sizeof(parent_arg), "%u", parent_port);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    // Child: only async-signal-safe work between fork and exec.
    char* const argv[] = {const_cast<char*>(self),
                          const_cast<char*>("--shard-host"), listen_arg,
                          parent_arg, nullptr};
    ::execv(self, argv);
    _exit(127);
  }
  return pid;
}

// Owns the spawned shard host: every exit path, early failures included,
// kills and reaps it, so a failed run leaves no orphan serving forever.
class ShardHost {
 public:
  ShardHost() = default;
  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;
  ~ShardHost() { stop(SIGKILL); }

  void spawn(const char* self, std::uint16_t listen_port,
             std::uint16_t parent_port) {
    stop(SIGKILL);
    pid_ = spawn_shard_host(self, listen_port, parent_port);
  }
  void stop(int sig) {
    if (pid_ <= 0) return;
    ::kill(pid_, sig);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

Status push_key(Runtime& rt, int key, Nanos deadline) {
  const char* shard = kShardNames[key % kShards];  // key -> shard routing
  const std::string val = "value-" + std::to_string(key);
  return rt.push(
      {.to = JunctionAddr{Symbol(shard), Symbol("kv")},
       .update = Update::write_data(
           Symbol("v"),
           SerializedValue{Symbol("str"), Bytes(val.begin(), val.end())},
           "front"),
       .deadline = Deadline::after(deadline),
       .from = Symbol("front")});
}

// Retries `push_key(0, ...)` until the mesh carries it (bounded); used right
// after (re)spawning the child, while the connection may still be backing
// off.
bool await_mesh(Runtime& rt, std::chrono::seconds limit) {
  const auto deadline = steady_now() + limit;
  while (steady_now() < deadline) {
    if (push_key(rt, 0, 1s).ok()) return true;
    std::this_thread::sleep_for(50ms);
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--shard-host") == 0) {
    return run_shard_host(static_cast<std::uint16_t>(std::atoi(argv[2])),
                          static_cast<std::uint16_t>(std::atoi(argv[3])));
  }

  const std::uint16_t shard_port = pick_free_port();
  obs::Metrics metrics;
  RuntimeOptions opts;
  opts.transport = Transport::kTcpMesh;
  opts.metrics = &metrics;
  opts.tcp.node_name = "parent";
  opts.profile_out = profile_path("parent");
  if (!opts.profile_out.empty()) opts.tcp.heartbeat_interval = Millis(50);
  opts.tcp.peers["shard"] = TcpPeerAddr{"127.0.0.1", shard_port};
  for (const char* name : kShardNames) {
    opts.tcp.remote_instances[Symbol(name)] = "shard";
  }
  opts.tcp.backoff_initial = Millis(10);
  opts.tcp.backoff_max = Millis(500);
  Runtime rt(opts);

  std::printf("[front] listener on port %u, shard host expected on %u\n",
              rt.tcp_transport()->port(), shard_port);
  ShardHost child;
  child.spawn(argv[0], shard_port, rt.tcp_transport()->port());
  std::printf("[front] spawned shard host pid %d\n", child.pid());

  // Phase 1: sharded writes across the process boundary.
  if (!await_mesh(rt, 20s)) {
    std::fprintf(stderr, "FAIL: mesh never came up\n");
    return 1;
  }
  int per_shard[kShards] = {0, 0};
  for (int key = 0; key < 200; ++key) {
    auto st = push_key(rt, key, 5s);
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: push of key %d: %s\n", key,
                   st.error().to_string().c_str());
      return 1;
    }
    ++per_shard[key % kShards];
  }
  std::printf("[front] phase 1: 200 sharded writes acked (shard0=%d shard1=%d)\n",
              per_shard[0], per_shard[1]);

  // Phase 2: kill the shard host; pushes must fail promptly, not wedge.
  child.stop(SIGKILL);
  auto down = push_key(rt, 1, 500ms);
  if (down.ok()) {
    std::fprintf(stderr, "FAIL: push succeeded against a dead peer\n");
    return 1;
  }
  std::printf("[front] phase 2: shard host killed, push failed as expected (%s)\n",
              down.error().to_string().c_str());

  // Phase 3: respawn on the same port; reconnect-under-backoff recovers.
  child.spawn(argv[0], shard_port, rt.tcp_transport()->port());
  std::printf("[front] respawned shard host pid %d\n", child.pid());
  if (!await_mesh(rt, 30s)) {
    std::fprintf(stderr, "FAIL: pushes never recovered after restart\n");
    return 1;
  }
  for (int key = 0; key < 200; ++key) {
    auto st = push_key(rt, key, 5s);
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: post-restart push of key %d: %s\n", key,
                   st.error().to_string().c_str());
      return 1;
    }
  }
  const auto reconnects = metrics.counter("tcp_reconnects").value();
  std::printf("[front] phase 3: 200 writes acked after restart, tcp_reconnects=%llu\n",
              static_cast<unsigned long long>(reconnects));
  // Final teardown: clean SIGTERM when profiling (the child's runtime
  // destructor writes its profile_out), SIGKILL otherwise.
  const bool profiling = !profile_path("shard").empty();
  child.stop(profiling ? SIGTERM : SIGKILL);
  if (profiling) {
    std::printf("[front] shard profile written to %s\n",
                profile_path("shard").c_str());
  }
  if (reconnects < 1) {
    std::fprintf(stderr, "FAIL: expected at least one recorded reconnect\n");
    return 1;
  }
  std::printf("two_process_shard: OK\n");
  return 0;
}
