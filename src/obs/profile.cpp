#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "obs/json.hpp"
#include "support/io.hpp"

namespace csaw::obs {
namespace {

using minijson::Json;
using minijson::write_string;

void write_hist(std::ostream& os, const HistSummary& h) {
  os << "{\"count\": " << h.count << ", \"sum\": " << h.sum
     << ", \"max\": " << h.max << ", \"p50\": " << h.p50
     << ", \"p90\": " << h.p90 << ", \"p99\": " << h.p99 << "}";
}

HistSummary hist_from(const Json* v) {
  HistSummary h;
  if (v == nullptr || v->type != Json::Type::kObject) return h;
  h.count = v->u64_or("count", 0);
  h.sum = v->u64_or("sum", 0);
  h.max = v->u64_or("max", 0);
  h.p50 = v->num_or("p50", 0.0);
  h.p90 = v->num_or("p90", 0.0);
  h.p99 = v->num_or("p99", 0.0);
  return h;
}

void accumulate(JunctionCost& into, const JunctionCost& add) {
  into.evals += add.evals;
  into.fires += add.fires;
  into.body_cpu_ns += add.body_cpu_ns;
  into.body_wall_ns += add.body_wall_ns;
  into.blocked_ns += add.blocked_ns;
  into.queue_delay_ns = merge_summaries(into.queue_delay_ns, add.queue_delay_ns);
  into.body_cpu_per_eval_ns =
      merge_summaries(into.body_cpu_per_eval_ns, add.body_cpu_per_eval_ns);
}

void accumulate(LinkCost& into, const LinkCost& add) {
  into.frames_sent += add.frames_sent;
  into.bytes_sent += add.bytes_sent;
  into.queue_drops += add.queue_drops;
  into.reconnects += add.reconnects;
  into.send_queue_depth =
      merge_summaries(into.send_queue_depth, add.send_queue_depth);
  into.rtt_ns = merge_summaries(into.rtt_ns, add.rtt_ns);
}

void accumulate(TableCost& into, const TableCost& add) {
  // Live key count is a point-in-time level, not a rate: disjoint shards
  // add, successive snapshots of one table take the latest (larger-or-equal
  // writes total marks the later snapshot). Merged rows with one key are
  // always disjoint processes, where addition is the right semantics.
  into.keys += add.keys;
  into.writes += add.writes;
  into.wal_bytes += add.wal_bytes;
}

void sort_rows(CostProfile& p) {
  std::sort(p.junctions.begin(), p.junctions.end(),
            [](const JunctionCost& a, const JunctionCost& b) {
              return std::tie(a.node, a.instance, a.junction) <
                     std::tie(b.node, b.instance, b.junction);
            });
  std::sort(p.links.begin(), p.links.end(),
            [](const LinkCost& a, const LinkCost& b) {
              return std::tie(a.node, a.peer) < std::tie(b.node, b.peer);
            });
  std::sort(p.tables.begin(), p.tables.end(),
            [](const TableCost& a, const TableCost& b) {
              return std::tie(a.node, a.instance) <
                     std::tie(b.node, b.instance);
            });
  std::sort(p.nodes.begin(), p.nodes.end());
  p.nodes.erase(std::unique(p.nodes.begin(), p.nodes.end()), p.nodes.end());
}

}  // namespace

HistSummary summarize(const Histogram& h) {
  HistSummary s;
  s.count = h.count();
  s.sum = h.sum();
  s.max = h.max_seen();
  if (s.count > 0) {
    s.p50 = h.quantile(0.50);
    s.p90 = h.quantile(0.90);
    s.p99 = h.quantile(0.99);
  }
  return s;
}

HistSummary merge_summaries(const HistSummary& a, const HistSummary& b) {
  // Exact totals merge unconditionally; the count-weighted percentile
  // average only ever divides by the weight of inputs that actually carry
  // samples. A zero-count summary (idle junction, fresh link) contributes
  // nothing -- in particular two of them merge to count 0 with zero
  // percentiles, never 0/0 NaN poisoning the merged document and --diff.
  HistSummary m;
  m.count = a.count + b.count;
  m.sum = a.sum + b.sum;
  m.max = std::max(a.max, b.max);
  const double wa = static_cast<double>(a.count);
  const double wb = static_cast<double>(b.count);
  const double w = wa + wb;
  if (w > 0.0) {
    m.p50 = (a.p50 * wa + b.p50 * wb) / w;
    m.p90 = (a.p90 * wa + b.p90 * wb) / w;
    m.p99 = (a.p99 * wa + b.p99 * wb) / w;
  }
  return m;
}

std::string cost_profile_json(const CostProfile& profile) {
  CostProfile p = profile;
  sort_rows(p);
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\n  \"csaw_profile\": " << p.version << ",\n";
  os << "  \"nodes\": [";
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    if (i != 0) os << ", ";
    write_string(os, p.nodes[i]);
  }
  os << "],\n";
  os << "  \"duration_ns\": " << p.duration_ns << ",\n";
  os << "  \"junctions\": [";
  for (std::size_t i = 0; i < p.junctions.size(); ++i) {
    const JunctionCost& j = p.junctions[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"node\": ";
    write_string(os, j.node);
    os << ", \"instance\": ";
    write_string(os, j.instance);
    os << ", \"junction\": ";
    write_string(os, j.junction);
    os << ",\n     \"evals\": " << j.evals << ", \"fires\": " << j.fires
       << ", \"body_cpu_ns\": " << j.body_cpu_ns
       << ", \"body_wall_ns\": " << j.body_wall_ns
       << ", \"blocked_ns\": " << j.blocked_ns << ",\n     \"queue_delay_ns\": ";
    write_hist(os, j.queue_delay_ns);
    os << ",\n     \"body_cpu_per_eval_ns\": ";
    write_hist(os, j.body_cpu_per_eval_ns);
    os << "}";
  }
  if (!p.junctions.empty()) os << "\n  ";
  os << "],\n";
  os << "  \"links\": [";
  for (std::size_t i = 0; i < p.links.size(); ++i) {
    const LinkCost& l = p.links[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"node\": ";
    write_string(os, l.node);
    os << ", \"peer\": ";
    write_string(os, l.peer);
    os << ",\n     \"frames_sent\": " << l.frames_sent
       << ", \"bytes_sent\": " << l.bytes_sent
       << ", \"queue_drops\": " << l.queue_drops
       << ", \"reconnects\": " << l.reconnects
       << ",\n     \"send_queue_depth\": ";
    write_hist(os, l.send_queue_depth);
    os << ",\n     \"rtt_ns\": ";
    write_hist(os, l.rtt_ns);
    os << "}";
  }
  if (!p.links.empty()) os << "\n  ";
  os << "],\n";
  os << "  \"tables\": [";
  for (std::size_t i = 0; i < p.tables.size(); ++i) {
    const TableCost& t = p.tables[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"node\": ";
    write_string(os, t.node);
    os << ", \"instance\": ";
    write_string(os, t.instance);
    os << ", \"keys\": " << t.keys << ", \"writes\": " << t.writes
       << ", \"wal_bytes\": " << t.wal_bytes << "}";
  }
  if (!p.tables.empty()) os << "\n  ";
  os << "]\n}\n";
  return os.str();
}

Result<CostProfile> parse_cost_profile(std::string_view text) {
  auto parsed = minijson::parse(text);
  if (!parsed.ok()) return parsed.error();
  const Json& root = *parsed;
  if (root.type != Json::Type::kObject) {
    return make_error(Errc::kDecode, "cost profile root is not an object");
  }
  const Json* version = root.find("csaw_profile");
  if (version == nullptr || version->type != Json::Type::kNumber) {
    return make_error(Errc::kDecode,
                      "not a cost profile (missing \"csaw_profile\")");
  }
  CostProfile p;
  p.version = static_cast<int>(root.u64_or("csaw_profile", 1));
  if (p.version < 1 || p.version > 1) {
    return make_error(Errc::kDecode, "unsupported cost profile version " +
                                         std::to_string(p.version));
  }
  p.duration_ns = root.u64_or("duration_ns", 0);
  if (const Json* nodes = root.find("nodes");
      nodes != nullptr && nodes->type == Json::Type::kArray) {
    for (const Json& n : nodes->items) {
      if (n.type == Json::Type::kString) p.nodes.push_back(n.str);
    }
  }
  if (const Json* junctions = root.find("junctions");
      junctions != nullptr && junctions->type == Json::Type::kArray) {
    for (const Json& o : junctions->items) {
      if (o.type != Json::Type::kObject) continue;
      JunctionCost j;
      j.node = o.str_or("node", "");
      j.instance = o.str_or("instance", "");
      j.junction = o.str_or("junction", "");
      j.evals = o.u64_or("evals", 0);
      j.fires = o.u64_or("fires", 0);
      j.body_cpu_ns = o.u64_or("body_cpu_ns", 0);
      j.body_wall_ns = o.u64_or("body_wall_ns", 0);
      j.blocked_ns = o.u64_or("blocked_ns", 0);
      j.queue_delay_ns = hist_from(o.find("queue_delay_ns"));
      j.body_cpu_per_eval_ns = hist_from(o.find("body_cpu_per_eval_ns"));
      p.junctions.push_back(std::move(j));
    }
  }
  if (const Json* links = root.find("links");
      links != nullptr && links->type == Json::Type::kArray) {
    for (const Json& o : links->items) {
      if (o.type != Json::Type::kObject) continue;
      LinkCost l;
      l.node = o.str_or("node", "");
      l.peer = o.str_or("peer", "");
      l.frames_sent = o.u64_or("frames_sent", 0);
      l.bytes_sent = o.u64_or("bytes_sent", 0);
      l.queue_drops = o.u64_or("queue_drops", 0);
      l.reconnects = o.u64_or("reconnects", 0);
      l.send_queue_depth = hist_from(o.find("send_queue_depth"));
      l.rtt_ns = hist_from(o.find("rtt_ns"));
      p.links.push_back(std::move(l));
    }
  }
  if (const Json* tables = root.find("tables");
      tables != nullptr && tables->type == Json::Type::kArray) {
    for (const Json& o : tables->items) {
      if (o.type != Json::Type::kObject) continue;
      TableCost t;
      t.node = o.str_or("node", "");
      t.instance = o.str_or("instance", "");
      t.keys = o.u64_or("keys", 0);
      t.writes = o.u64_or("writes", 0);
      t.wal_bytes = o.u64_or("wal_bytes", 0);
      p.tables.push_back(std::move(t));
    }
  }
  return p;
}

Result<CostProfile> load_cost_profile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(Errc::kHostFailure, "cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_cost_profile(text.str());
}

Status write_cost_profile_file(const std::string& path,
                               const CostProfile& p) {
  return io::write_file_atomic(path, cost_profile_json(p));
}

CostProfile merge_profiles(const std::vector<CostProfile>& inputs) {
  CostProfile out;
  std::map<std::tuple<std::string, std::string, std::string>, JunctionCost>
      junctions;
  std::map<std::pair<std::string, std::string>, LinkCost> links;
  std::map<std::pair<std::string, std::string>, TableCost> tables;
  for (const CostProfile& p : inputs) {
    out.version = std::max(out.version, p.version);
    out.duration_ns = std::max(out.duration_ns, p.duration_ns);
    for (const std::string& n : p.nodes) out.nodes.push_back(n);
    for (const JunctionCost& j : p.junctions) {
      auto [it, fresh] =
          junctions.try_emplace({j.node, j.instance, j.junction}, j);
      if (!fresh) accumulate(it->second, j);
    }
    for (const LinkCost& l : p.links) {
      auto [it, fresh] = links.try_emplace({l.node, l.peer}, l);
      if (!fresh) accumulate(it->second, l);
    }
    for (const TableCost& t : p.tables) {
      auto [it, fresh] = tables.try_emplace({t.node, t.instance}, t);
      if (!fresh) accumulate(it->second, t);
    }
  }
  for (auto& [_, j] : junctions) out.junctions.push_back(std::move(j));
  for (auto& [_, l] : links) out.links.push_back(std::move(l));
  for (auto& [_, t] : tables) out.tables.push_back(std::move(t));
  sort_rows(out);
  return out;
}

// --- regression diffing ----------------------------------------------------

namespace {

// Collects `metric` as a candidate finding. `lower_better` states which
// direction is a regression.
void judge(std::vector<ProfileDiff::Finding>* regressions,
           std::vector<ProfileDiff::Finding>* improvements,
           const std::string& metric, double before, double after,
           bool lower_better, const DiffOptions& opt) {
  const double worse = lower_better ? after - before : before - after;
  ProfileDiff::Finding f{metric, before, after, 0.0};
  if (before > 0.0) {
    f.pct = worse / before * 100.0;
  } else {
    f.pct = worse > 0.0 ? 100.0 : 0.0;
  }
  if (worse > 0.0 && std::abs(worse) > opt.min_abs &&
      f.pct > opt.threshold_pct) {
    regressions->push_back(std::move(f));
  } else if (worse < 0.0 && std::abs(worse) > opt.min_abs &&
             -f.pct > opt.threshold_pct) {
    improvements->push_back(std::move(f));
  }
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}
bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

ProfileDiff diff_cost_profiles(const CostProfile& before,
                               const CostProfile& after,
                               const DiffOptions& opt) {
  ProfileDiff d;
  std::map<std::tuple<std::string, std::string, std::string>,
           const JunctionCost*>
      old_junctions;
  for (const JunctionCost& j : before.junctions) {
    old_junctions[{j.node, j.instance, j.junction}] = &j;
  }
  for (const JunctionCost& j : after.junctions) {
    auto it = old_junctions.find({j.node, j.instance, j.junction});
    if (it == old_junctions.end()) continue;
    const JunctionCost& o = *it->second;
    const std::string key = j.node + "/" + j.instance + "::" + j.junction;
    if (o.evals > 0 && j.evals > 0) {
      judge(&d.regressions, &d.improvements, key + " cpu_per_eval_ns",
            static_cast<double>(o.body_cpu_ns) / static_cast<double>(o.evals),
            static_cast<double>(j.body_cpu_ns) / static_cast<double>(j.evals),
            /*lower_better=*/true, opt);
    }
    if (o.queue_delay_ns.count > 0 && j.queue_delay_ns.count > 0) {
      judge(&d.regressions, &d.improvements, key + " queue_delay_p99_ns",
            o.queue_delay_ns.p99, j.queue_delay_ns.p99,
            /*lower_better=*/true, opt);
    }
  }
  std::map<std::pair<std::string, std::string>, const LinkCost*> old_links;
  for (const LinkCost& l : before.links) old_links[{l.node, l.peer}] = &l;
  for (const LinkCost& l : after.links) {
    auto it = old_links.find({l.node, l.peer});
    if (it == old_links.end()) continue;
    const LinkCost& o = *it->second;
    if (o.rtt_ns.count > 0 && l.rtt_ns.count > 0) {
      judge(&d.regressions, &d.improvements,
            l.node + "->" + l.peer + " rtt_p99_ns", o.rtt_ns.p99, l.rtt_ns.p99,
            /*lower_better=*/true, opt);
    }
  }
  return d;
}

// Bench snapshots (BENCH_*.json): p99 latencies must not rise, throughput
// must not fall.
ProfileDiff diff_bench_snapshots(const Json& before, const Json& after,
                                 const DiffOptions& opt) {
  ProfileDiff d;
  const Json* old_metrics = before.find("metrics");
  const Json* new_metrics = after.find("metrics");
  if (old_metrics == nullptr) old_metrics = &before;
  if (new_metrics == nullptr) new_metrics = &after;
  for (const auto& [name, v] : new_metrics->fields) {
    if (v.type != Json::Type::kNumber) continue;
    const Json* o = old_metrics->find(name);
    if (o == nullptr || o->type != Json::Type::kNumber) continue;
    const bool lower_better = starts_with(name, "p99_");
    const bool higher_better = starts_with(name, "ops_per_s") ||
                               ends_with(name, "_kqps") ||
                               ends_with(name, "_qps");
    if (!lower_better && !higher_better) continue;
    judge(&d.regressions, &d.improvements, name, o->number, v.number,
          lower_better, opt);
  }
  return d;
}

}  // namespace

Result<ProfileDiff> diff_documents(std::string_view before,
                                   std::string_view after,
                                   const DiffOptions& options) {
  auto old_doc = minijson::parse(before);
  if (!old_doc.ok()) return old_doc.error();
  auto new_doc = minijson::parse(after);
  if (!new_doc.ok()) return new_doc.error();
  if (old_doc->type != Json::Type::kObject ||
      new_doc->type != Json::Type::kObject) {
    return make_error(Errc::kDecode, "diff inputs must be JSON objects");
  }
  const bool old_profile = old_doc->find("csaw_profile") != nullptr;
  const bool new_profile = new_doc->find("csaw_profile") != nullptr;
  if (old_profile != new_profile) {
    return make_error(Errc::kDecode,
                      "cannot diff a cost profile against a bench snapshot");
  }
  if (old_profile) {
    auto parsed_before = parse_cost_profile(before);
    if (!parsed_before.ok()) return parsed_before.error();
    auto parsed_after = parse_cost_profile(after);
    if (!parsed_after.ok()) return parsed_after.error();
    return diff_cost_profiles(*parsed_before, *parsed_after, options);
  }
  return diff_bench_snapshots(*old_doc, *new_doc, options);
}

std::string render_diff(const ProfileDiff& d) {
  std::ostringstream os;
  os << std::setprecision(6);
  for (const auto& f : d.regressions) {
    os << "REGRESSION " << f.metric << ": " << f.before << " -> " << f.after
       << " (" << (f.pct >= 0 ? "+" : "") << f.pct << "%)\n";
  }
  for (const auto& f : d.improvements) {
    os << "improved   " << f.metric << ": " << f.before << " -> " << f.after
       << " (" << -f.pct << "% better)\n";
  }
  if (d.regressions.empty() && d.improvements.empty()) {
    os << "no significant changes\n";
  }
  return os.str();
}

// --- the live profiler -----------------------------------------------------

void Profiler::set_node(std::string_view node) {
  std::scoped_lock lock(mu_);
  if (!node.empty()) node_ = std::string(node);
}

std::string Profiler::node() const {
  std::scoped_lock lock(mu_);
  return node_;
}

JunctionProfile* Profiler::junction(std::string_view instance,
                                    std::string_view junction) {
  std::scoped_lock lock(mu_);
  auto& slot = junctions_[{std::string(instance), std::string(junction)}];
  if (!slot) slot = std::make_unique<JunctionProfile>();
  return slot.get();
}

Histogram* Profiler::link_queue_depth(std::string_view peer) {
  std::scoped_lock lock(mu_);
  auto it = links_.find(peer);
  if (it == links_.end()) {
    it = links_.emplace(std::string(peer), std::make_unique<LinkSlot>()).first;
  }
  return &it->second->depth;
}

void Profiler::record_rtt(std::string_view node, std::uint64_t rtt_ns) {
  Histogram* h = nullptr;
  {
    std::scoped_lock lock(mu_);
    auto it = links_.find(node);
    if (it == links_.end()) {
      it = links_.emplace(std::string(node), std::make_unique<LinkSlot>())
               .first;
    }
    h = &it->second->rtt;
  }
  h->record(rtt_ns);
}

void Profiler::fold_table(const TableCost& row) {
  std::scoped_lock lock(mu_);
  for (TableCost& t : frozen_tables_) {
    if (t.node == row.node && t.instance == row.instance) {
      accumulate(t, row);
      return;
    }
  }
  frozen_tables_.push_back(row);
}

void Profiler::fold_link(const LinkCost& row) {
  std::scoped_lock lock(mu_);
  for (LinkCost& l : frozen_links_) {
    if (l.node == row.node && l.peer == row.peer) {
      accumulate(l, row);
      return;
    }
  }
  frozen_links_.push_back(row);
}

CostProfile Profiler::snapshot(std::vector<TableCost> live_tables,
                               std::vector<LinkCost> live_links) const {
  std::scoped_lock lock(mu_);
  CostProfile p;
  p.duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<Nanos>(steady_now() - start_).count());
  p.nodes.push_back(node_);
  for (const auto& [key, slot] : junctions_) {
    JunctionCost j;
    j.node = node_;
    j.instance = key.first;
    j.junction = key.second;
    j.evals = slot->evals.load(std::memory_order_relaxed);
    j.fires = slot->fires.load(std::memory_order_relaxed);
    j.body_cpu_ns = slot->body_cpu_ns.load(std::memory_order_relaxed);
    j.body_wall_ns = slot->body_wall_ns.load(std::memory_order_relaxed);
    j.blocked_ns = slot->blocked_ns.load(std::memory_order_relaxed);
    j.queue_delay_ns = summarize(slot->queue_delay_ns);
    j.body_cpu_per_eval_ns = summarize(slot->body_cpu_hist_ns);
    p.junctions.push_back(std::move(j));
  }
  // Links: frozen totals + live totals, then this profiler's depth/RTT
  // histograms attached to the merged row (slots survive runtime restarts,
  // so they are recorded exactly once here and never folded).
  std::map<std::pair<std::string, std::string>, LinkCost> links;
  for (const LinkCost& l : frozen_links_) {
    auto [it, fresh] = links.try_emplace({l.node, l.peer}, l);
    if (!fresh) accumulate(it->second, l);
  }
  for (const LinkCost& l : live_links) {
    auto [it, fresh] = links.try_emplace({l.node, l.peer}, l);
    if (!fresh) accumulate(it->second, l);
  }
  for (const auto& [peer, slot] : links_) {
    auto [it, fresh] = links.try_emplace({node_, peer}, LinkCost{});
    if (fresh) {
      it->second.node = node_;
      it->second.peer = peer;
    }
    it->second.send_queue_depth =
        merge_summaries(it->second.send_queue_depth, summarize(slot->depth));
    it->second.rtt_ns =
        merge_summaries(it->second.rtt_ns, summarize(slot->rtt));
  }
  for (auto& [_, l] : links) p.links.push_back(std::move(l));
  std::map<std::pair<std::string, std::string>, TableCost> tables;
  for (const TableCost& t : frozen_tables_) {
    auto [it, fresh] = tables.try_emplace({t.node, t.instance}, t);
    if (!fresh) accumulate(it->second, t);
  }
  for (const TableCost& t : live_tables) {
    auto [it, fresh] = tables.try_emplace({t.node, t.instance}, t);
    if (!fresh) accumulate(it->second, t);
  }
  for (auto& [_, t] : tables) p.tables.push_back(std::move(t));
  sort_rows(p);
  return p;
}

}  // namespace csaw::obs
