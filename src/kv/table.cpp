#include "kv/table.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "support/blocking.hpp"
#include "support/check.hpp"

namespace csaw {

std::string Update::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kAssertProp: os << "assert " << key; break;
    case Kind::kRetractProp: os << "retract " << key; break;
    case Kind::kWriteData:
      os << "write " << key << " (" << value.size() << "B)";
      break;
  }
  if (!from.empty()) os << " from " << from;
  return os.str();
}

bool TableView::prop(Symbol name) const { return table_->prop_unlocked(name); }

bool TableView::has_prop(Symbol name) const {
  return table_->has_prop_unlocked(name);
}

bool TableView::data_defined(Symbol name) const {
  return table_->defined_.contains(name);
}

Result<SerializedValue> TableView::data(Symbol name) const {
  auto it = table_->data_.find(name);
  if (it == table_->data_.end()) {
    return make_error(Errc::kUndefinedName,
                      "data '" + name.str() + "' not declared in " + table_->owner_);
  }
  if (!table_->defined_.contains(name)) {
    return make_error(Errc::kUndefData,
                      "data '" + name.str() + "' is undef in " + table_->owner_);
  }
  return it->second;
}

KvTable::KvTable(Spec spec, std::string owner)
    : owner_(std::move(owner)), local_priority_(spec.local_priority) {
  for (const auto& [name, initial] : spec.props) props_[name] = initial;
  for (const auto& name : spec.data) data_[name] = SerializedValue{};
}

void KvTable::apply_pending() {
  std::scoped_lock lock(mu_);
  for (const auto& pending : pending_) {
    WalRecord unq;
    unq.kind = WalRecord::Kind::kUnqueue;
    unq.stamp = pending.stamp;
    wal_append(std::move(unq));
    // Declared-name failures were rejected at enqueue; apply cannot fail.
    (void)apply_unlocked(pending.update, /*in_wait=*/false);
  }
  pending_.clear();
  wal_commit();
}

void KvTable::begin_run() {
  std::scoped_lock lock(mu_);
  running_ = true;
  interrupted_ = false;
  locally_written_.clear();
}

void KvTable::end_run() {
  std::scoped_lock lock(mu_);
  running_ = false;
  // Local-priority rule: a queued remote update loses to a local write of
  // the same key made *after* it arrived ("local updates have priority");
  // updates that arrived after the local write survive.
  if (local_priority_) {
    std::erase_if(pending_, [&](const Pending& p) {
      auto it = locally_written_.find(p.update.key);
      const bool drop = it != locally_written_.end() && p.stamp < it->second;
      if (drop) {
        ++counters_.dropped_local_priority;
        WalRecord unq;
        unq.kind = WalRecord::Kind::kUnqueue;
        unq.stamp = p.stamp;
        wal_append(std::move(unq));
      }
      return drop;
    });
  }
  locally_written_.clear();
  wal_commit();
}

Result<bool> KvTable::prop(Symbol name) const {
  std::scoped_lock lock(mu_);
  auto it = props_.find(name);
  if (it == props_.end()) {
    return make_error(Errc::kUndefinedName,
                      "prop '" + name.str() + "' not declared in " + owner_);
  }
  return it->second;
}

Status KvTable::set_prop_local(Symbol name, bool value) {
  std::scoped_lock lock(mu_);
  auto it = props_.find(name);
  if (it == props_.end()) {
    return make_error(Errc::kUndefinedName,
                      "prop '" + name.str() + "' not declared in " + owner_);
  }
  it->second = value;
  if (running_) locally_written_[name] = ++epoch_;
  ++counters_.applied;
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kApply;
    rec.update = value ? Update::assert_prop(name) : Update::retract_prop(name);
    wal_append(std::move(rec));
    wal_commit();
  }
  notify_change(name, Change::kApplied);
  cv_.notify_all();
  return Status::ok_status();
}

bool KvTable::data_defined(Symbol name) const {
  std::scoped_lock lock(mu_);
  return defined_.contains(name);
}

Result<SerializedValue> KvTable::data(Symbol name) const {
  std::scoped_lock lock(mu_);
  return TableView(this).data(name);
}

Status KvTable::save_local(Symbol name, SerializedValue value) {
  std::scoped_lock lock(mu_);
  auto it = data_.find(name);
  if (it == data_.end()) {
    return make_error(Errc::kUndefinedName,
                      "data '" + name.str() + "' not declared in " + owner_);
  }
  it->second = std::move(value);
  defined_.insert(name);
  if (running_) locally_written_[name] = ++epoch_;
  ++counters_.applied;
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kApply;
    rec.update = Update::write_data(name, it->second);
    wal_append(std::move(rec));
    wal_commit();
  }
  notify_change(name, Change::kApplied);
  cv_.notify_all();
  return Status::ok_status();
}

void KvTable::keep(std::span<const Symbol> keys) {
  std::scoped_lock lock(mu_);
  std::erase_if(pending_, [&](const Pending& p) {
    const bool drop =
        std::find(keys.begin(), keys.end(), p.update.key) != keys.end();
    if (drop) {
      ++counters_.dropped_keep;
      WalRecord unq;
      unq.kind = WalRecord::Kind::kUnqueue;
      unq.stamp = p.stamp;
      wal_append(std::move(unq));
    }
    return drop;
  });
  wal_commit();
}

KvTable::Snapshot KvTable::snapshot() const {
  std::scoped_lock lock(mu_);
  return Snapshot{props_, data_, defined_};
}

void KvTable::restore_snapshot(const Snapshot& snap) {
  std::scoped_lock lock(mu_);
  props_ = snap.props;
  data_ = snap.data;
  defined_ = snap.defined;
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kReset;
    rec.image = durable_state_unlocked().image;
    wal_append(std::move(rec));
    wal_commit();
  }
  notify_change(Symbol(), Change::kApplied);  // bulk: any key may have moved
  cv_.notify_all();
}

Status KvTable::wait(const std::function<bool(const TableView&)>& pred,
                     std::span<const Symbol> admit, Deadline deadline) {
  std::unique_lock lock(mu_);
  const std::unordered_set<Symbol> admit_set(admit.begin(), admit.end());

  // Flush queued updates to admitted keys: a retraction that raced in just
  // before the wait must not deadlock it. Admission overrides local
  // priority -- the paper's wait "allows the junction's table to reflect
  // changes to propositions in that formula", and Fig 3's protocol (assert
  // Work locally, then wait for its remote retraction) depends on it.
  std::erase_if(pending_, [&](const Pending& p) {
    if (!admit_set.contains(p.update.key)) return false;
    WalRecord unq;
    unq.kind = WalRecord::Kind::kUnqueue;
    unq.stamp = p.stamp;
    wal_append(std::move(unq));
    (void)apply_unlocked(p.update, /*in_wait=*/true);
    return true;
  });
  wal_commit();

  admits_.push_back(&admit_set);
  auto cleanup = [&] {
    std::erase(admits_, &admit_set);
  };

  const TableView view(this);
  // Announced lazily: only a wait that actually parks counts as blocking
  // (a pred that already holds must not spawn a spare scheduler worker).
  std::optional<ScopedBlockingRegion> blocking;
  while (true) {
    if (interrupted_) {
      cleanup();
      return make_error(Errc::kUnreachable, owner_ + ": wait interrupted");
    }
    if (pred(view)) {
      cleanup();
      return Status::ok_status();
    }
    if (!blocking.has_value()) blocking.emplace();
    if (deadline.is_infinite()) {
      cv_.wait(lock);
    } else {
      if (cv_.wait_until(lock, deadline.when()) == std::cv_status::timeout &&
          !pred(view) && !interrupted_) {
        cleanup();
        return make_error(Errc::kTimeout, owner_ + ": wait timed out");
      }
    }
  }
}

void KvTable::interrupt() {
  std::scoped_lock lock(mu_);
  interrupted_ = true;
  cv_.notify_all();
}

Status KvTable::enqueue(const Update& update) {
  std::scoped_lock lock(mu_);
  const bool is_prop = update.kind != Update::Kind::kWriteData;
  if (is_prop ? !props_.contains(update.key) : !data_.contains(update.key)) {
    return make_error(Errc::kUndefinedName, "push of undeclared '" +
                                                update.key.str() + "' to " +
                                                owner_);
  }
  for (const auto* admit : admits_) {
    if (admit->contains(update.key)) {
      auto st = apply_unlocked(update, /*in_wait=*/true);
      wal_commit();
      cv_.notify_all();
      return st;
    }
  }
  pending_.push_back(Pending{update, ++epoch_});
  // Log-then-ack: the kQueue record is on disk (synced by wal_commit)
  // before enqueue returns, so the caller's ack never outruns durability.
  WalRecord rec;
  rec.kind = WalRecord::Kind::kQueue;
  rec.update = update;
  rec.stamp = epoch_;
  wal_append(std::move(rec));
  wal_commit();
  notify_change(update.key, Change::kEnqueued);
  return Status::ok_status();
}

bool KvTable::prop_unlocked(Symbol name) const {
  auto it = props_.find(name);
  CSAW_CHECK(it != props_.end())
      << "prop '" << name << "' not declared in " << owner_;
  return it->second;
}

bool KvTable::has_prop_unlocked(Symbol name) const {
  return props_.contains(name);
}

Status KvTable::apply_unlocked(const Update& update, bool in_wait) {
  switch (update.kind) {
    case Update::Kind::kAssertProp:
      props_[update.key] = true;
      break;
    case Update::Kind::kRetractProp:
      props_[update.key] = false;
      break;
    case Update::Kind::kWriteData:
      data_[update.key] = update.value;
      defined_.insert(update.key);
      break;
  }
  ++counters_.applied;
  if (in_wait) ++counters_.admitted_in_wait;
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kApply;
    rec.update = update;
    wal_append(std::move(rec));
  }
  observe_applied(update.key);
  notify_change(update.key, Change::kApplied);
  return Status::ok_status();
}

void KvTable::adopt_recovered(const RecoveredState& recovered) {
  std::scoped_lock lock(mu_);
  for (const auto& [name, value] : recovered.image.props) {
    auto it = props_.find(Symbol(name));
    if (it != props_.end()) it->second = value;
  }
  for (const auto& d : recovered.image.data) {
    const Symbol key(d.key);
    auto it = data_.find(key);
    if (it == data_.end()) continue;
    if (d.defined) {
      it->second.type = d.type.empty() ? Symbol() : Symbol(d.type);
      it->second.bytes = d.bytes;
      defined_.insert(key);
    } else {
      it->second = SerializedValue{};
      defined_.erase(key);
    }
  }
  for (const auto& p : recovered.pending) {
    const bool is_prop = p.update.kind != Update::Kind::kWriteData;
    if (is_prop ? !props_.contains(p.update.key)
                : !data_.contains(p.update.key)) {
      continue;  // declaration drift: key no longer exists in this program
    }
    pending_.push_back(Pending{p.update, p.stamp});
  }
  if (recovered.max_stamp > epoch_) epoch_ = recovered.max_stamp;
}

void KvTable::set_durability(Wal* wal) {
  std::scoped_lock lock(mu_);
  wal_ = wal;
}

KvTable::DurableState KvTable::durable_state() const {
  std::scoped_lock lock(mu_);
  return durable_state_unlocked();
}

KvTable::DurableState KvTable::durable_state_unlocked() const {
  DurableState out;
  out.image.props.reserve(props_.size());
  for (const auto& [name, value] : props_) {
    out.image.props.emplace_back(name.str(), value);
  }
  out.image.data.reserve(data_.size());
  for (const auto& [name, value] : data_) {
    TableImage::Datum d;
    d.key = name.str();
    d.defined = defined_.contains(name);
    d.type = value.type.valid() ? value.type.str() : std::string();
    d.bytes = value.bytes;
    out.image.data.push_back(std::move(d));
  }
  out.pending.reserve(pending_.size());
  for (const auto& p : pending_) {
    out.pending.push_back(PendingUpdate{p.stamp, p.update});
  }
  out.max_stamp = epoch_;
  return out;
}

void KvTable::wal_append(WalRecord rec) {
  if (wal_ == nullptr) return;
  auto st = wal_->append(std::move(rec), /*sync_now=*/false);
  CSAW_CHECK(st.ok()) << owner_
                      << ": wal append failed: " << st.error().to_string();
}

void KvTable::wal_commit() {
  if (wal_ == nullptr) return;
  auto st = wal_->sync();
  CSAW_CHECK(st.ok()) << owner_
                      << ": wal sync failed: " << st.error().to_string();
  if (wal_->wants_compaction()) {
    const auto state = durable_state_unlocked();
    auto cst = wal_->compact(state.image, state.pending, state.max_stamp);
    CSAW_CHECK(cst.ok()) << owner_ << ": wal compaction failed: "
                         << cst.error().to_string();
  }
}

void KvTable::set_change_listener(ChangeListener listener) {
  std::scoped_lock lock(mu_);
  change_listener_ = std::move(listener);
}

void KvTable::notify_change(Symbol key, Change change) {
  if (change_listener_) change_listener_(key, change);
}

void KvTable::set_observer(obs::TraceSink* trace, obs::Counter* applied,
                           Symbol instance, Symbol junction) {
  std::scoped_lock lock(mu_);
  trace_ = trace;
  applied_metric_ = applied;
  obs_instance_ = instance;
  obs_junction_ = junction;
}

void KvTable::observe_applied(Symbol key) {
  if (applied_metric_ != nullptr) applied_metric_->add();
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::kKvApplied;
    e.instance = obs_instance_;
    e.junction = obs_junction_;
    e.label = key;
    trace_->record(e);
  }
}

KvTable::Counters KvTable::counters() const {
  std::scoped_lock lock(mu_);
  return counters_;
}

std::size_t KvTable::key_count() const {
  std::scoped_lock lock(mu_);
  return props_.size() + defined_.size();
}

std::string KvTable::debug_string() const {
  std::scoped_lock lock(mu_);
  std::ostringstream os;
  os << "table(" << owner_ << ") props{";
  bool first = true;
  for (const auto& [name, value] : props_) {
    if (!first) os << ", ";
    first = false;
    os << (value ? "" : "!") << name;
  }
  os << "} data{";
  first = true;
  for (const auto& [name, value] : data_) {
    if (!first) os << ", ";
    first = false;
    os << name;
    if (defined_.contains(name)) {
      os << "=" << value.size() << "B";
    } else {
      os << "=undef";
    }
  }
  os << "} pending=" << pending_.size();
  return os.str();
}

}  // namespace csaw
