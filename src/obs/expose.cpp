#include "obs/expose.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace csaw::obs {
namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const auto put =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (put <= 0) return;
    off += static_cast<std::size_t>(put);
  }
}

void respond(int fd, int code, const char* status, const std::string& body,
             const char* content_type) {
  std::ostringstream os;
  os << "HTTP/1.1 " << code << ' ' << status << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  send_all(fd, os.str());
}

// Reads until the end of the request headers; returns the request line's
// path, or an empty string on malformed/oversized input.
std::string read_request_path(int fd) {
  std::string req;
  char buf[1024];
  while (req.find("\r\n\r\n") == std::string::npos) {
    if (req.size() > kMaxRequestBytes) return {};
    const auto got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) return {};
    req.append(buf, static_cast<std::size_t>(got));
  }
  // "GET /path HTTP/1.1"
  const auto sp1 = req.find(' ');
  if (sp1 == std::string::npos) return {};
  const auto sp2 = req.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return {};
  if (req.substr(0, sp1) != "GET") return {};
  return req.substr(sp1 + 1, sp2 - sp1 - 1);
}

// One row's label set, values escaped per the text format.
std::string label_set(
    std::initializer_list<std::pair<const char*, std::string_view>> labels) {
  std::string out;
  for (const auto& [name, value] : labels) {
    if (!out.empty()) out += ',';
    out += name;
    out += "=\"";
    for (const char c : value) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  return out;
}

// One labelled family: each row's `field` under that row's label set.
template <typename Row>
void render_family(std::ostream& os, const std::string& name,
                   const char* type, const std::vector<Row>& rows,
                   const std::vector<std::string>& labels,
                   std::uint64_t Row::*field) {
  if (rows.empty()) return;
  os << "# TYPE " << name << ' ' << type << "\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << name << '{' << labels[i] << "} " << rows[i].*field << "\n";
  }
}

// One summary's samples; `labels` may be empty.
void write_summary(std::ostream& os, const std::string& name,
                   const std::string& labels, const HistSummary& h) {
  const std::string sep = labels.empty() ? "" : ",";
  for (const auto& [q, v] : {std::pair{0.5, h.p50}, std::pair{0.9, h.p90},
                             std::pair{0.99, h.p99}}) {
    os << name << '{' << labels << sep << "quantile=\"" << q << "\"} " << v
       << "\n";
  }
  const std::string set = labels.empty() ? "" : '{' + labels + '}';
  os << name << "_sum" << set << ' ' << h.sum << "\n"
     << name << "_count" << set << ' ' << h.count << "\n";
}

template <typename Row>
void render_summary(std::ostream& os, const std::string& name,
                    const std::vector<Row>& rows,
                    const std::vector<std::string>& labels,
                    HistSummary Row::*field) {
  if (rows.empty()) return;
  os << "# TYPE " << name << " summary\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    write_summary(os, name, labels[i], rows[i].*field);
  }
}

void render_profile(std::ostream& os, const CostProfile& p) {
  std::vector<std::string> jl;
  for (const auto& j : p.junctions) {
    jl.push_back(label_set(
        {{"node", j.node}, {"instance", j.instance}, {"junction", j.junction}}));
  }
  for (const auto& [name, field] :
       {std::pair{"evals", &JunctionCost::evals},
        std::pair{"fires", &JunctionCost::fires},
        std::pair{"body_cpu_ns", &JunctionCost::body_cpu_ns},
        std::pair{"body_wall_ns", &JunctionCost::body_wall_ns},
        std::pair{"blocked_ns", &JunctionCost::blocked_ns}}) {
    render_family(os, std::string("csaw_junction_") + name + "_total",
                  "counter", p.junctions, jl, field);
  }
  render_summary(os, "csaw_junction_queue_delay_ns", p.junctions, jl,
                 &JunctionCost::queue_delay_ns);
  render_summary(os, "csaw_junction_body_cpu_per_eval_ns", p.junctions, jl,
                 &JunctionCost::body_cpu_per_eval_ns);

  std::vector<std::string> ll;
  for (const auto& l : p.links) {
    ll.push_back(label_set({{"node", l.node}, {"peer", l.peer}}));
  }
  for (const auto& [name, field] :
       {std::pair{"frames_sent", &LinkCost::frames_sent},
        std::pair{"bytes_sent", &LinkCost::bytes_sent},
        std::pair{"queue_drops", &LinkCost::queue_drops},
        std::pair{"reconnects", &LinkCost::reconnects}}) {
    render_family(os, std::string("csaw_link_") + name + "_total", "counter",
                  p.links, ll, field);
  }
  render_summary(os, "csaw_link_rtt_ns", p.links, ll, &LinkCost::rtt_ns);
  render_summary(os, "csaw_link_send_queue_depth", p.links, ll,
                 &LinkCost::send_queue_depth);

  std::vector<std::string> tl;
  for (const auto& t : p.tables) {
    tl.push_back(label_set({{"node", t.node}, {"instance", t.instance}}));
  }
  render_family(os, "csaw_table_keys", "gauge", p.tables, tl,
                &TableCost::keys);
  render_family(os, "csaw_table_writes_total", "counter", p.tables, tl,
                &TableCost::writes);
  render_family(os, "csaw_table_wal_bytes_total", "counter", p.tables, tl,
                &TableCost::wal_bytes);
}

}  // namespace

std::string render_prometheus(const Metrics* metrics, const Tracer* tracer,
                              const CostProfile* profile) {
  std::ostringstream os;
  if (metrics != nullptr) {
    metrics->for_each_counter([&](const std::string& name, const Counter& c) {
      os << "# TYPE csaw_" << name << "_total counter\n"
         << "csaw_" << name << "_total " << c.value() << "\n";
    });
    metrics->for_each_gauge([&](const std::string& name, const Gauge& g) {
      os << "# TYPE csaw_" << name << " gauge\n"
         << "csaw_" << name << " " << g.value() << "\n";
    });
    metrics->for_each_histogram(
        [&](const std::string& name, const Histogram& h) {
          os << "# TYPE csaw_" << name << " summary\n";
          write_summary(os, "csaw_" + name, "", summarize(h));
        });
  }
  if (profile != nullptr) render_profile(os, *profile);
  if (tracer != nullptr) {
    const auto buffers = tracer->buffer_stats();
    std::uint64_t dropped = 0;
    std::size_t buffered = 0;
    std::size_t capacity = 0;
    for (const auto& b : buffers) {
      dropped += b.dropped;
      buffered += b.size;
      capacity += b.capacity;
    }
    os << "# TYPE csaw_trace_dropped_total counter\n"
       << "csaw_trace_dropped_total " << dropped << "\n"
       << "# TYPE csaw_trace_buffer_rings gauge\n"
       << "csaw_trace_buffer_rings " << buffers.size() << "\n"
       << "# TYPE csaw_trace_buffer_events gauge\n"
       << "csaw_trace_buffer_events " << buffered << "\n"
       << "# TYPE csaw_trace_buffer_capacity gauge\n"
       << "csaw_trace_buffer_capacity " << capacity << "\n";
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      os << "csaw_trace_ring_events{ring=\"" << i << "\"} " << buffers[i].size
         << "\n";
    }
  }
  return os.str();
}

HttpExposer::HttpExposer(const Metrics* metrics, Tracer* tracer, int port)
    : metrics_(metrics), tracer_(tracer) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  CSAW_CHECK(listen_fd_ >= 0) << "socket() failed";
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  CSAW_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0)
      << "bind(127.0.0.1:" << port << ") failed";
  CSAW_CHECK(::listen(listen_fd_, 8) == 0) << "listen() failed";
  socklen_t len = sizeof(addr);
  CSAW_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &len) == 0)
      << "getsockname() failed";
  port_ = ntohs(addr.sin_port);
  server_ = std::thread([this] { serve_loop(); });
}

HttpExposer::~HttpExposer() {
  stopping_.store(true);
  // shutdown() wakes the blocking accept; close() alone does not on Linux.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::string HttpExposer::render_metrics() const {
  if (auto source = profile_source()) {
    const CostProfile profile = source();
    return render_prometheus(metrics_, tracer_, &profile);
  }
  return render_prometheus(metrics_, tracer_);
}

void HttpExposer::set_profile_source(ProfileSource source) {
  std::scoped_lock lock(profile_mu_);
  profile_source_ = std::move(source);
}

HttpExposer::ProfileSource HttpExposer::profile_source() const {
  std::scoped_lock lock(profile_mu_);
  return profile_source_;
}

void HttpExposer::serve_loop() {
  while (!stopping_.load()) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) return;  // listener shut down
    const std::string path = read_request_path(conn);
    if (path == "/metrics") {
      respond(conn, 200, "OK", render_metrics(),
              "text/plain; version=0.0.4; charset=utf-8");
    } else if (path == "/healthz") {
      respond(conn, 200, "OK", "ok\n", "text/plain");
    } else if (path == "/profile") {
      if (auto source = profile_source()) {
        respond(conn, 200, "OK", cost_profile_json(source()),
                "application/json");
      } else {
        respond(conn, 404, "Not Found", "no profiler attached\n",
                "text/plain");
      }
    } else if (path.empty()) {
      respond(conn, 400, "Bad Request", "bad request\n", "text/plain");
    } else {
      respond(conn, 404, "Not Found", "not found\n", "text/plain");
    }
    ::close(conn);
  }
}

}  // namespace csaw::obs
