// Distributed trace collection: JSON parse/merge round trips and the
// Perfetto writer + checker (causal order across a 3-instance push chain).
#include "obs/collect.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compart/runtime.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace csaw {
namespace {

using obs::TraceDoc;
using obs::TraceEvent;

const Symbol kWork("Work");
const Symbol kJ("j");

// a --push--> b --push--> c. b and c are auto junctions guarded on Work;
// each body lowers its own flag, and b forwards the work to c.
InstanceDesc relay_instance(std::string_view name, Symbol next) {
  JunctionDesc j;
  j.name = kJ;
  j.table_spec.props = {{kWork, false}};
  j.guard = [](const KvTable& t, const RuntimeView&) { return *t.prop(kWork); };
  j.body = [next](JunctionEnv& env) {
    (void)env.table().set_prop_local(kWork, false);
    if (next.valid()) {
      (void)env.push({.to = {next, kJ},
                      .update = Update::assert_prop(kWork),
                      .deadline = Deadline::after(std::chrono::seconds(5))});
    }
  };
  j.auto_schedule = true;
  InstanceDesc d;
  d.name = Symbol(name);
  d.type = Symbol("relay");
  d.junctions.push_back(std::move(j));
  return d;
}

// Runs the 3-instance chain once and returns the drained trace.
std::vector<TraceEvent> run_chain(obs::Tracer& tracer) {
  RuntimeOptions opts;
  opts.trace_sink = &tracer;
  Runtime rt(opts);
  rt.add_instance(relay_instance("a", Symbol("b")));
  rt.add_instance(relay_instance("b", Symbol("c")));
  rt.add_instance(relay_instance("c", Symbol()));
  for (const char* n : {"a", "b", "c"}) {
    EXPECT_TRUE(rt.start(Symbol(n)).ok());
  }
  EXPECT_TRUE(rt.push({.to = {Symbol("a"), kJ},
                       .update = Update::assert_prop(kWork),
                       .deadline = Deadline::after(std::chrono::seconds(5)),
                       .from = Symbol("driver")})
                  .ok());
  // The chain is done once c has run; b's push blocks on c's ack, and a's
  // push on b's, so polling c is enough.
  const auto deadline = steady_now() + std::chrono::seconds(10);
  while (rt.runs_completed(Symbol("c"), kJ) < 1 && steady_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rt.runs_completed(Symbol("c"), kJ), 1u);
  rt.shutdown();
  return tracer.drain();
}

// Splits a drained trace into per-instance documents, round-tripping each
// through its JSON file form -- exactly what a multi-process deployment
// produces (one --trace-out file per process) and csaw-trace consumes.
std::vector<TraceDoc> per_instance_docs(const std::vector<TraceEvent>& events,
                                        SteadyTime epoch) {
  // The driver's own push events land in "a"'s file: the driver lives in
  // the same process as the instance it pokes.
  std::vector<Symbol> names = {Symbol("a"), Symbol("b"), Symbol("c")};
  auto doc_of = [&](Symbol instance) {
    return instance == Symbol("driver") ? Symbol("a") : instance;
  };
  std::vector<TraceDoc> docs;
  for (const Symbol name : names) {
    std::vector<TraceEvent> mine;
    for (const TraceEvent& e : events) {
      if (doc_of(e.instance) == name) mine.push_back(e);
    }
    std::ostringstream os;
    obs::write_trace_json(os, mine, epoch, 0, {}, nullptr);
    auto doc = obs::parse_trace_json(os.str());
    EXPECT_TRUE(doc.ok()) << doc.error().to_string();
    docs.push_back(*std::move(doc));
  }
  return docs;
}

TEST(TraceJson, ParseRejectsGarbage) {
  EXPECT_FALSE(obs::parse_trace_json("not json").ok());
  EXPECT_FALSE(obs::parse_trace_json("{\"events\": [").ok());
  EXPECT_FALSE(obs::parse_trace_json("[1,2,3]").ok());
  EXPECT_FALSE(obs::parse_trace_json("{\"events\": 7}").ok());
}

TEST(TraceJson, ParsePreservesFullPrecisionIds) {
  // 64-bit ids must not go through a double; check a value above 2^53.
  const std::string text =
      "{\"dropped\": 3, \"events\": [{\"t_us\": 1.5, \"kind\": \"push_sent\","
      " \"instance\": \"a\", \"junction\": \"j\", \"peer\": \"b\","
      " \"label\": \"\", \"seq\": 9, \"value_ns\": 100,"
      " \"trace_id\": 18446744073709551615, \"span_id\": 9007199254740995,"
      " \"parent_span\": 0, \"hlc_us\": 1700000000000001, \"hlc_lc\": 2}]}";
  auto doc = obs::parse_trace_json(text);
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc->dropped, 3u);
  ASSERT_EQ(doc->events.size(), 1u);
  const TraceEvent& e = doc->events[0];
  EXPECT_EQ(e.kind, TraceEvent::Kind::kPushSent);
  EXPECT_EQ(e.trace_id, 18446744073709551615ull);
  EXPECT_EQ(e.span_id, 9007199254740995ull);
  EXPECT_EQ(e.instance, Symbol("a"));
  EXPECT_EQ(e.peer, Symbol("b"));
  EXPECT_EQ(e.hlc.physical_us, 1700000000000001ull);
  EXPECT_EQ(e.hlc.logical, 2u);
}

TEST(TraceJson, ExportParseRoundTrip) {
  obs::Tracer tracer;
  const auto events = run_chain(tracer);
  ASSERT_FALSE(events.empty());

  std::ostringstream os;
  obs::write_trace_json(os, events, SteadyTime{}, 0, {}, nullptr);
  auto doc = obs::parse_trace_json(os.str());
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  ASSERT_EQ(doc->events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(doc->events[i].kind, events[i].kind) << i;
    EXPECT_EQ(doc->events[i].instance, events[i].instance) << i;
    EXPECT_EQ(doc->events[i].span_id, events[i].span_id) << i;
    EXPECT_EQ(doc->events[i].parent_span, events[i].parent_span) << i;
    EXPECT_EQ(doc->events[i].hlc, events[i].hlc) << i;
  }
}

TEST(TraceJson, MergeOrdersOldHlcFreeDocsAfterHlcDocs) {
  // An old-format file (no hlc_* fields) merges without error; its events
  // keep relative order and sort after the HLC-stamped ones.
  auto old_doc = obs::parse_trace_json(
      "{\"events\": ["
      "{\"t_us\": 2.0, \"kind\": \"custom\", \"instance\": \"old\"},"
      "{\"t_us\": 5.0, \"kind\": \"custom\", \"instance\": \"old\"}]}");
  ASSERT_TRUE(old_doc.ok()) << old_doc.error().to_string();
  auto new_doc = obs::parse_trace_json(
      "{\"events\": [{\"t_us\": 0.5, \"kind\": \"custom\","
      " \"instance\": \"new\", \"hlc_us\": 1000, \"hlc_lc\": 0}]}");
  ASSERT_TRUE(new_doc.ok());
  const auto merged = obs::merge_events({*old_doc, *new_doc});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].instance, Symbol("new"));
  EXPECT_EQ(merged[1].instance, Symbol("old"));
  EXPECT_LT(merged[1].at, merged[2].at);
}

TEST(TracePerfetto, ThreeInstanceChainMergesCausally) {
  obs::Tracer tracer;
  const SteadyTime epoch = tracer.epoch();
  const auto events = run_chain(tracer);

  // The causal chain must be present in the raw trace: b's run caused by
  // a's push, c's run caused by b's push, all in one trace.
  const TraceEvent* push_ab = nullptr;
  const TraceEvent* push_bc = nullptr;
  const TraceEvent* ran_b = nullptr;
  const TraceEvent* ran_c = nullptr;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::kPushSent) {
      if (e.instance == Symbol("a") && e.peer == Symbol("b")) push_ab = &e;
      if (e.instance == Symbol("b") && e.peer == Symbol("c")) push_bc = &e;
    }
    if (e.kind == TraceEvent::Kind::kJunctionRan) {
      // First run only: a later idle re-run would root a fresh trace.
      if (e.instance == Symbol("b") && ran_b == nullptr) ran_b = &e;
      if (e.instance == Symbol("c") && ran_c == nullptr) ran_c = &e;
    }
  }
  ASSERT_NE(push_ab, nullptr);
  ASSERT_NE(push_bc, nullptr);
  ASSERT_NE(ran_b, nullptr);
  ASSERT_NE(ran_c, nullptr);
  EXPECT_EQ(ran_b->parent_span, push_ab->span_id);
  EXPECT_EQ(ran_c->parent_span, push_bc->span_id);
  EXPECT_EQ(push_ab->trace_id, ran_c->trace_id) << "one trace end to end";
  EXPECT_EQ(push_bc->trace_id, push_ab->trace_id);
  // HLC causality: no effect timestamps before its cause.
  EXPECT_LT(push_ab->hlc, ran_b->hlc);
  EXPECT_LT(push_bc->hlc, ran_c->hlc);
  EXPECT_LT(ran_b->hlc, push_bc->hlc);

  // Now the offline path: 3 per-instance files -> merge -> Perfetto.
  const auto docs = per_instance_docs(events, epoch);
  const auto merged = obs::merge_events(docs);
  ASSERT_EQ(merged.size(), events.size());
  // Merged order is causal: a's push precedes b's run precedes b's push...
  auto index_of = [&](const TraceEvent& needle) -> std::size_t {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (merged[i].span_id == needle.span_id &&
          merged[i].kind == needle.kind) {
        return i;
      }
    }
    return merged.size();
  };
  EXPECT_LT(index_of(*push_ab), index_of(*ran_b));
  EXPECT_LT(index_of(*ran_b), index_of(*push_bc));
  EXPECT_LT(index_of(*push_bc), index_of(*ran_c));

  std::ostringstream perfetto;
  obs::write_perfetto_json(perfetto, merged);
  const std::string text = perfetto.str();
  // One track per instance, flow arrows present.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"f\""), std::string::npos);
  auto st = obs::check_perfetto_json(text);
  EXPECT_TRUE(st.ok()) << st.error().to_string();
}

TEST(TracePerfetto, CheckerRejectsAcausalDocuments) {
  // Flow finish with no start.
  EXPECT_FALSE(obs::check_perfetto_json(
                   "{\"traceEvents\": [{\"ph\": \"f\", \"id\": 1, \"pid\": 1,"
                   " \"tid\": 1, \"ts\": 5.0}]}")
                   .ok());
  // Flow finish before its start.
  EXPECT_FALSE(
      obs::check_perfetto_json(
          "{\"traceEvents\": ["
          "{\"ph\": \"s\", \"id\": 1, \"pid\": 1, \"tid\": 1, \"ts\": 9.0},"
          "{\"ph\": \"f\", \"id\": 1, \"pid\": 1, \"tid\": 1, \"ts\": 5.0}]}")
          .ok());
  // Child span HLC-timestamped before its parent.
  EXPECT_FALSE(
      obs::check_perfetto_json(
          "{\"traceEvents\": ["
          "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 1, \"ts\": 1,"
          " \"args\": {\"span_id\": 10, \"parent_span\": 0,"
          " \"hlc_us\": 2000, \"hlc_lc\": 0}},"
          "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 1, \"ts\": 2,"
          " \"args\": {\"span_id\": 11, \"parent_span\": 10,"
          " \"hlc_us\": 1000, \"hlc_lc\": 0}}]}")
          .ok());
  // Not JSON at all.
  EXPECT_FALSE(obs::check_perfetto_json("perfetto?").ok());
  // The same shapes, consistent, pass.
  EXPECT_TRUE(
      obs::check_perfetto_json(
          "{\"traceEvents\": ["
          "{\"ph\": \"s\", \"id\": 1, \"pid\": 1, \"tid\": 1, \"ts\": 5.0},"
          "{\"ph\": \"f\", \"id\": 1, \"pid\": 1, \"tid\": 1, \"ts\": 9.0}]}")
          .ok());
}

}  // namespace
}  // namespace csaw
