// /metrics HTTP endpoint: Prometheus text rendering (unlabelled registry and
// labelled cost-profile families), routing, /profile, and the
// RuntimeOptions::metrics_http_port plumbing.
#include "obs/expose.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "compart/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csaw {
namespace {

// Minimal HTTP client: one request, read to EOF (the server closes).
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return {};
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  for (ssize_t n = ::recv(fd, buf, sizeof(buf), 0); n > 0;
       n = ::recv(fd, buf, sizeof(buf), 0)) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(Exposer, ServesPrometheusMetricsAndHealth) {
  obs::Metrics metrics;
  metrics.counter("push_sent").add(3);
  for (std::uint64_t v = 1; v <= 100; ++v) {
    metrics.histogram("push_latency_ns").record(v * 1000);
  }
  obs::Tracer tracer;
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kCustom;
  tracer.record(e);

  obs::HttpExposer exposer(&metrics, &tracer, /*port=*/0);
  ASSERT_GT(exposer.port(), 0);

  const std::string metrics_resp = http_get(exposer.port(), "/metrics");
  EXPECT_NE(metrics_resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics_resp.find("text/plain; version=0.0.4"), std::string::npos);
  // Counters with the Prometheus _total convention.
  EXPECT_NE(metrics_resp.find("csaw_push_sent_total 3"), std::string::npos);
  // Histograms as summaries with quantile labels and _sum/_count.
  EXPECT_NE(metrics_resp.find("csaw_push_latency_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(metrics_resp.find("csaw_push_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(metrics_resp.find("csaw_push_latency_ns_count 100"),
            std::string::npos);
  // Tracer ring occupancy and drop gauges (satellite: exported drop counts).
  EXPECT_NE(metrics_resp.find("csaw_trace_dropped_total 0"),
            std::string::npos);
  EXPECT_NE(metrics_resp.find("csaw_trace_buffer_rings 1"), std::string::npos);
  EXPECT_NE(metrics_resp.find("csaw_trace_ring_events{ring=\"0\"} 1"),
            std::string::npos);

  const std::string health = http_get(exposer.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = http_get(exposer.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(http_get(exposer.port(), "/profile").find("HTTP/1.1 404"),
            std::string::npos);

  // Profile rows become labelled series; label values are escaped per the
  // text format. Peer names come from configuration, so any byte may appear.
  exposer.set_profile_source([] {
    obs::CostProfile p;
    obs::LinkCost link;
    link.node = "n";
    link.peer = "a\"b\\c";
    link.frames_sent = 7;
    p.links.push_back(link);
    return p;
  });
  const std::string labelled = http_get(exposer.port(), "/metrics");
  EXPECT_NE(labelled.find("# TYPE csaw_link_frames_sent_total counter\n"
                          "csaw_link_frames_sent_total"
                          "{node=\"n\",peer=\"a\\\"b\\\\c\"} 7\n"),
            std::string::npos)
      << labelled;
  EXPECT_NE(labelled.find("csaw_link_rtt_ns_count"
                          "{node=\"n\",peer=\"a\\\"b\\\\c\"} 0\n"),
            std::string::npos);
  EXPECT_NE(http_get(exposer.port(), "/profile").find("\"frames_sent\": 7"),
            std::string::npos);
}

TEST(Exposer, RendersWithoutTracer) {
  obs::Metrics metrics;
  metrics.counter("pings").add();
  const std::string text = obs::render_prometheus(&metrics, nullptr);
  EXPECT_NE(text.find("csaw_pings_total 1"), std::string::npos);
  EXPECT_EQ(text.find("csaw_trace_"), std::string::npos);
}

TEST(RuntimeExposer, MetricsPortOptionBindsEndToEnd) {
  obs::Tracer tracer;
  obs::Metrics metrics;
  RuntimeOptions opts;
  opts.trace_sink = &tracer;
  opts.metrics = &metrics;
  opts.metrics_http_port = 0;  // ephemeral
  Runtime rt(opts);
  const int port = rt.metrics_http_port();
  ASSERT_GT(port, 0);

  const Symbol kWork("Work");
  JunctionDesc j;
  j.name = Symbol("j");
  j.table_spec.props = {{kWork, false}};
  j.guard = [kWork](const KvTable& t, const RuntimeView&) {
    return *t.prop(kWork);
  };
  j.body = [kWork](JunctionEnv& env) {
    (void)env.table().set_prop_local(kWork, false);
  };
  j.auto_schedule = true;
  InstanceDesc d;
  d.name = Symbol("a");
  d.type = Symbol("echo");
  d.junctions.push_back(std::move(j));
  rt.add_instance(std::move(d));
  ASSERT_TRUE(rt.start(Symbol("a")).ok());
  ASSERT_TRUE(rt.push({.to = {Symbol("a"), Symbol("j")},
                       .update = Update::assert_prop(kWork),
                       .deadline = Deadline::after(std::chrono::seconds(5)),
                       .from = Symbol("test")})
                  .ok());

  const std::string resp = http_get(port, "/metrics");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("csaw_push_sent_total 1"), std::string::npos);
  EXPECT_NE(resp.find("csaw_push_acked_total 1"), std::string::npos);
  EXPECT_NE(resp.find("csaw_push_latency_ns{quantile="), std::string::npos);

  // A metrics registry alone gives the runtime a profiler, and /metrics
  // renders its rows.
  ASSERT_NE(rt.profiler(), nullptr);
  const auto profile_row = [&] {
    const std::string resp = http_get(port, "/profile");
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    const auto body = resp.find("\r\n\r\n");
    auto profile = obs::parse_cost_profile(
        body == std::string::npos ? std::string() : resp.substr(body + 4));
    EXPECT_TRUE(profile.ok() && profile->junctions.size() == 1u) << resp;
    return profile.ok() && !profile->junctions.empty() ? profile->junctions[0]
                                                       : obs::JunctionCost{};
  };
  const auto deadline = steady_now() + std::chrono::seconds(10);
  while (profile_row().fires < 1 && steady_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(rt.stop(Symbol("a")).ok());

  // The counters only grow, so a /metrics read between two identical
  // /profile reads must show exactly their values. (Evals already queued
  // for the stopped instance may still drain for a moment.)
  const auto key = [](const obs::JunctionCost& r) {
    return std::tuple{r.evals, r.fires, r.queue_delay_ns.count};
  };
  obs::JunctionCost row = profile_row();
  std::string metrics_text;
  for (int i = 0; i < 100; ++i) {
    metrics_text = http_get(port, "/metrics");
    const obs::JunctionCost after = profile_row();
    if (key(after) == key(row)) break;
    row = after;
  }
  ASSERT_GE(row.fires, 1u);
  EXPECT_GE(row.evals, row.fires);
  const std::string labels =
      "{node=\"local\",instance=\"a\",junction=\"j\"}";
  for (const auto& [series, value] :
       {std::pair{"csaw_junction_evals_total", row.evals},
        std::pair{"csaw_junction_fires_total", row.fires},
        std::pair{"csaw_junction_queue_delay_ns_count",
                  row.queue_delay_ns.count}}) {
    EXPECT_NE(metrics_text.find(std::string(series) + labels + " " +
                                std::to_string(value) + "\n"),
              std::string::npos)
        << series << " != " << value << " in\n"
        << metrics_text;
  }
}

TEST(RuntimeExposer, DisabledWithoutMetricsOrByDefault) {
  Runtime plain;
  EXPECT_EQ(plain.metrics_http_port(), -1);

  // Port requested but no metrics registry: stays disabled (documented
  // requirement) rather than serving an empty page.
  RuntimeOptions opts;
  opts.metrics_http_port = 0;
  Runtime rt(opts);
  EXPECT_EQ(rt.metrics_http_port(), -1);
}

}  // namespace
}  // namespace csaw
