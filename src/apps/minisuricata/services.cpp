#include "apps/minisuricata/services.hpp"

#include "apps/miniredis/command.hpp"  // Mailbox
#include "core/compile.hpp"
#include "patterns/sharding.hpp"
#include "patterns/snapshot.hpp"

namespace csaw::minisuricata {
namespace {

constexpr auto kCallDeadline = std::chrono::seconds(10);

using PacketBatch = std::vector<Packet>;

}  // namespace

// --- CheckpointedService ---------------------------------------------------------

CheckpointedService::Options CheckpointedService::make_default_options() {
  return Options{};
}

struct CheckpointedService::ActState {
  explicit ActState(std::uint64_t cost) : pipeline(cost) {}
  std::mutex mu;
  Pipeline pipeline;
};

struct CheckpointedService::AudState {
  std::mutex mu;
  Bytes last;
};

CheckpointedService::CheckpointedService(Options options) {
  patterns::SnapshotOptions popts;
  popts.timeout_ms = options.timeout_ms;
  aud_ = std::make_shared<AudState>();

  HostBindings b;
  b.block("complain", [](HostCtx&) { return Status::ok_status(); });
  b.block("H1", [](HostCtx&) { return Status::ok_status(); });
  b.block("H2", [](HostCtx&) { return Status::ok_status(); });
  b.saver("capture_state", [](HostCtx& ctx) -> Result<SerializedValue> {
    auto& act = ctx.state<ActState>();
    std::scoped_lock lock(act.mu);
    return SerializedValue{Symbol("flowtable"), act.pipeline.snapshot()};
  });
  b.restorer("ingest_state",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto& aud = ctx.state<AudState>();
               std::scoped_lock lock(aud.mu);
               aud.last = sv.bytes;
               return Status::ok_status();
             });

  auto compiled = compile(patterns::remote_snapshot(popts));
  CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
  engine_ = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                     options.engine_options());
  const auto cost = options.cost_ns;
  engine_->set_state_factory(Symbol("Act"), [this, cost] {
    act_ = std::make_shared<ActState>(cost);
    return std::static_pointer_cast<void>(act_);
  });
  engine_->set_state(Symbol("Aud"), aud_);
  auto st = engine_->run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
}

Status CheckpointedService::process(const Packet& p) {
  auto act = act_;
  std::scoped_lock lock(act->mu);
  act->pipeline.process(p);
  return Status::ok_status();
}

Status CheckpointedService::checkpoint() {
  return engine_->call("Act", "j", Deadline::after(kCallDeadline));
}

Status CheckpointedService::crash_and_resume() {
  engine_->crash("Act");
  CSAW_TRY(engine_->start_instance("Act"));
  Bytes image;
  {
    std::scoped_lock lock(aud_->mu);
    image = aud_->last;
  }
  if (image.empty()) return Status::ok_status();
  auto act = act_;
  std::scoped_lock lock(act->mu);
  return act->pipeline.restore(image);
}

int CheckpointedService::metrics_http_port() const {
  return engine_->runtime().metrics_http_port();
}

std::size_t CheckpointedService::flow_count() const {
  auto act = act_;
  std::scoped_lock lock(act->mu);
  return act->pipeline.flow_count();
}

// --- SteeredService -----------------------------------------------------------------

SteeredService::Options SteeredService::make_default_options() {
  return Options{};
}

struct SteeredService::FrontState {
  miniredis::Mailbox<std::pair<std::size_t, PacketBatch>> batches;
  std::pair<std::size_t, PacketBatch> current;
  std::vector<PacketBatch> buffers;  // per-shard accumulation
};

struct SteeredService::BackState {
  explicit BackState(std::uint64_t cost) : pipeline(cost) {}
  Pipeline pipeline;
  PacketBatch current;
};

SteeredService::SteeredService(Options options) : options_(options) {
  patterns::ShardingOptions popts;
  popts.backends = options_.shards;
  popts.timeout_ms = options_.timeout_ms;

  front_ = std::make_shared<FrontState>();
  front_->buffers.resize(options_.shards);

  HostBindings b;
  b.block("complain", [](HostCtx&) { return Status::ok_status(); });
  b.block("Choose", [](HostCtx& ctx) -> Status {
    auto& st = ctx.state<FrontState>();
    auto batch = st.batches.pop(Deadline::after(std::chrono::seconds(5)));
    if (!batch) return make_error(Errc::kHostFailure, "no batch");
    st.current = std::move(*batch);
    return ctx.set_idx("tgt", static_cast<std::int64_t>(st.current.first));
  });
  b.saver("pack_request", [](HostCtx& ctx) -> Result<SerializedValue> {
    return pack("suricata.PacketBatch", ctx.state<FrontState>().current.second);
  });
  b.restorer("unpack_request",
             [](HostCtx& ctx, const SerializedValue& sv) -> Status {
               auto batch = unpack<PacketBatch>("suricata.PacketBatch", sv);
               if (!batch) return batch.error();
               ctx.state<BackState>().current = std::move(*batch);
               return Status::ok_status();
             });
  b.block("H_back", [](HostCtx& ctx) {
    auto& st = ctx.state<BackState>();
    for (const auto& p : st.current) st.pipeline.process(p);
    return Status::ok_status();
  });
  b.saver("pack_response", [](HostCtx&) -> Result<SerializedValue> {
    return sv_dyn(DynValue(true));  // steering has no payload reply
  });
  b.restorer("deliver_response", [](HostCtx&, const SerializedValue&) {
    return Status::ok_status();
  });

  auto compiled = compile(patterns::sharding(popts));
  CSAW_CHECK(compiled.ok()) << compiled.error().to_string();
  engine_ = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                     options_.engine_options());
  engine_->set_state(Symbol(popts.front_instance), front_);
  for (const auto& name : patterns::shard_backend_names(popts)) {
    backs_.push_back(std::make_shared<BackState>(options_.cost_ns));
    engine_->set_state(Symbol(name), backs_.back());
  }
  auto st = engine_->run_main();
  CSAW_CHECK(st.ok()) << st.error().to_string();
}

Status SteeredService::process(const Packet& p) {
  auto& buffer = front_->buffers[shard_of(p)];
  buffer.push_back(p);
  if (buffer.size() >= options_.batch_size) {
    const auto shard = shard_of(p);
    front_->batches.push({shard, std::move(buffer)});
    buffer = PacketBatch{};
    return engine_->call("Fnt", "j", Deadline::after(kCallDeadline));
  }
  return Status::ok_status();
}

Status SteeredService::flush() {
  for (std::size_t s = 0; s < front_->buffers.size(); ++s) {
    if (front_->buffers[s].empty()) continue;
    front_->batches.push({s, std::move(front_->buffers[s])});
    front_->buffers[s] = PacketBatch{};
    CSAW_TRY(engine_->call("Fnt", "j", Deadline::after(kCallDeadline)));
  }
  return Status::ok_status();
}

int SteeredService::metrics_http_port() const {
  return engine_->runtime().metrics_http_port();
}

std::vector<std::uint64_t> SteeredService::shard_packet_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(backs_.size());
  for (const auto& back : backs_) out.push_back(back->pipeline.stats().packets);
  return out;
}

}  // namespace csaw::minisuricata
