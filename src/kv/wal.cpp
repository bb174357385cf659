#include "kv/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "serdes/buffer.hpp"
#include "support/io.hpp"

namespace csaw {
namespace {

constexpr std::size_t kFrameHeader = 8;  // u32le len + u32le crc
constexpr std::uint8_t kSnapshotVersion = 1;

std::string wal_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".wal";
}
std::string snap_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".snap";
}

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

Bytes frame(const Bytes& payload) {
  Bytes out(kFrameHeader + payload.size());
  put_u32le(out.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32le(out.data() + 4, wal_crc32(payload.data(), payload.size()));
  std::memcpy(out.data() + kFrameHeader, payload.data(), payload.size());
  return out;
}

void put_symbol(ByteWriter& w, Symbol s) {
  w.str(s.valid() ? s.str() : std::string());
}

Result<Symbol> get_symbol(ByteReader& r) {
  auto s = r.str();
  if (!s) return s.error();
  if (s->empty()) return Symbol();
  return Symbol(*s);
}

void put_update(ByteWriter& w, const Update& u) {
  w.u8(static_cast<std::uint8_t>(u.kind));
  put_symbol(w, u.key);
  put_symbol(w, u.value.type);
  w.blob(u.value.bytes);
  w.str(u.from);
}

Result<Update> get_update(ByteReader& r) {
  Update u;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind > 2) return make_error(Errc::kDecode, "bad update kind");
  u.kind = static_cast<Update::Kind>(*kind);
  auto key = get_symbol(r);
  if (!key) return key.error();
  u.key = *key;
  auto vtype = get_symbol(r);
  if (!vtype) return vtype.error();
  u.value.type = *vtype;
  auto vbytes = r.blob();
  if (!vbytes) return vbytes.error();
  u.value.bytes = std::move(*vbytes);
  auto ufrom = r.str();
  if (!ufrom) return ufrom.error();
  u.from = std::move(*ufrom);
  return u;
}

void put_image(ByteWriter& w, const TableImage& image) {
  w.uvarint(image.props.size());
  for (const auto& [name, value] : image.props) {
    w.str(name);
    w.u8(value ? 1 : 0);
  }
  w.uvarint(image.data.size());
  for (const auto& d : image.data) {
    w.str(d.key);
    w.u8(d.defined ? 1 : 0);
    w.str(d.type);
    w.blob(d.bytes);
  }
}

Result<TableImage> get_image(ByteReader& r) {
  TableImage image;
  auto nprops = r.uvarint();
  if (!nprops) return nprops.error();
  image.props.reserve(*nprops);
  for (std::uint64_t i = 0; i < *nprops; ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto value = r.u8();
    if (!value) return value.error();
    image.props.emplace_back(std::move(*name), *value != 0);
  }
  auto ndata = r.uvarint();
  if (!ndata) return ndata.error();
  image.data.reserve(*ndata);
  for (std::uint64_t i = 0; i < *ndata; ++i) {
    TableImage::Datum d;
    auto key = r.str();
    if (!key) return key.error();
    d.key = std::move(*key);
    auto defined = r.u8();
    if (!defined) return defined.error();
    d.defined = *defined != 0;
    auto type = r.str();
    if (!type) return type.error();
    d.type = std::move(*type);
    auto bytes = r.blob();
    if (!bytes) return bytes.error();
    d.bytes = std::move(*bytes);
    image.data.push_back(std::move(d));
  }
  return image;
}

Bytes encode_record(const WalRecord& rec) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(rec.kind));
  w.uvarint(rec.lsn);
  switch (rec.kind) {
    case WalRecord::Kind::kApply:
      put_update(w, rec.update);
      break;
    case WalRecord::Kind::kQueue:
      put_update(w, rec.update);
      w.uvarint(rec.stamp);
      break;
    case WalRecord::Kind::kUnqueue:
      w.uvarint(rec.stamp);
      break;
    case WalRecord::Kind::kReset:
      put_image(w, rec.image);
      break;
  }
  return w.take();
}

Result<WalRecord> decode_record(const Bytes& payload) {
  ByteReader r(payload);
  WalRecord rec;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind > 3) return make_error(Errc::kDecode, "bad wal record kind");
  rec.kind = static_cast<WalRecord::Kind>(*kind);
  auto lsn = r.uvarint();
  if (!lsn) return lsn.error();
  rec.lsn = *lsn;
  switch (rec.kind) {
    case WalRecord::Kind::kApply: {
      auto u = get_update(r);
      if (!u) return u.error();
      rec.update = std::move(*u);
      break;
    }
    case WalRecord::Kind::kQueue: {
      auto u = get_update(r);
      if (!u) return u.error();
      rec.update = std::move(*u);
      auto stamp = r.uvarint();
      if (!stamp) return stamp.error();
      rec.stamp = *stamp;
      break;
    }
    case WalRecord::Kind::kUnqueue: {
      auto stamp = r.uvarint();
      if (!stamp) return stamp.error();
      rec.stamp = *stamp;
      break;
    }
    case WalRecord::Kind::kReset: {
      auto image = get_image(r);
      if (!image) return image.error();
      rec.image = std::move(*image);
      break;
    }
  }
  if (!r.exhausted()) return make_error(Errc::kDecode, "trailing bytes");
  return rec;
}

Bytes encode_snapshot(const TableImage& image,
                      const std::vector<PendingUpdate>& pending,
                      std::uint64_t max_stamp, std::uint64_t last_lsn) {
  ByteWriter w;
  w.raw("CSNP", 4);
  w.u8(kSnapshotVersion);
  w.uvarint(last_lsn);
  w.uvarint(max_stamp);
  put_image(w, image);
  w.uvarint(pending.size());
  for (const auto& p : pending) {
    w.uvarint(p.stamp);
    put_update(w, p.update);
  }
  return w.take();
}

struct SnapshotData {
  TableImage image;
  std::vector<PendingUpdate> pending;
  std::uint64_t max_stamp = 0;
  std::uint64_t last_lsn = 0;
};

Result<SnapshotData> decode_snapshot(const Bytes& payload) {
  ByteReader r(payload);
  char magic[4];
  if (auto st = r.raw(magic, 4); !st.ok()) return st.error();
  if (std::memcmp(magic, "CSNP", 4) != 0) {
    return make_error(Errc::kDecode, "bad snapshot magic");
  }
  auto version = r.u8();
  if (!version) return version.error();
  if (*version != kSnapshotVersion) {
    return make_error(Errc::kDecode, "bad snapshot version");
  }
  SnapshotData snap;
  auto last_lsn = r.uvarint();
  if (!last_lsn) return last_lsn.error();
  snap.last_lsn = *last_lsn;
  auto max_stamp = r.uvarint();
  if (!max_stamp) return max_stamp.error();
  snap.max_stamp = *max_stamp;
  auto image = get_image(r);
  if (!image) return image.error();
  snap.image = std::move(*image);
  auto npending = r.uvarint();
  if (!npending) return npending.error();
  snap.pending.reserve(*npending);
  for (std::uint64_t i = 0; i < *npending; ++i) {
    PendingUpdate p;
    auto stamp = r.uvarint();
    if (!stamp) return stamp.error();
    p.stamp = *stamp;
    auto u = get_update(r);
    if (!u) return u.error();
    p.update = std::move(*u);
    snap.pending.push_back(std::move(p));
  }
  if (!r.exhausted()) return make_error(Errc::kDecode, "trailing bytes");
  return snap;
}

// Pulls the next [len][crc][payload] frame out of `data` at `pos`. Returns
// the payload, or nullopt at a clean end / torn-or-corrupt tail (the two are
// indistinguishable on disk; both end replay).
std::optional<Bytes> next_frame(const std::vector<std::uint8_t>& data,
                                std::size_t& pos, bool& damaged) {
  if (pos == data.size()) return std::nullopt;  // clean end
  if (data.size() - pos < kFrameHeader) {
    damaged = true;
    return std::nullopt;
  }
  const std::uint32_t len = get_u32le(data.data() + pos);
  const std::uint32_t crc = get_u32le(data.data() + pos + 4);
  if (data.size() - pos - kFrameHeader < len) {
    damaged = true;
    return std::nullopt;
  }
  Bytes payload(data.begin() + static_cast<std::ptrdiff_t>(pos + kFrameHeader),
                data.begin() +
                    static_cast<std::ptrdiff_t>(pos + kFrameHeader + len));
  if (wal_crc32(payload.data(), payload.size()) != crc) {
    damaged = true;
    return std::nullopt;
  }
  pos += kFrameHeader + len;
  return payload;
}

// Replay works over map-shaped state, then flattens back into a TableImage.
struct ReplayState {
  std::map<std::string, bool> props;
  std::map<std::string, TableImage::Datum> data;
  std::vector<PendingUpdate> pending;

  void load(const TableImage& image) {
    props.clear();
    data.clear();
    for (const auto& [name, value] : image.props) props[name] = value;
    for (const auto& d : image.data) data[d.key] = d;
  }

  void apply(const Update& u) {
    const std::string key = u.key.valid() ? u.key.str() : std::string();
    switch (u.kind) {
      case Update::Kind::kAssertProp:
        props[key] = true;
        break;
      case Update::Kind::kRetractProp:
        props[key] = false;
        break;
      case Update::Kind::kWriteData: {
        TableImage::Datum d;
        d.key = key;
        d.defined = true;
        d.type = u.value.type.valid() ? u.value.type.str() : std::string();
        d.bytes = u.value.bytes;
        data[key] = std::move(d);
        break;
      }
    }
  }

  void unqueue(std::uint64_t stamp) {
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (it->stamp == stamp) {
        pending.erase(it);
        return;
      }
    }
  }

  [[nodiscard]] TableImage image() const {
    TableImage out;
    out.props.reserve(props.size());
    for (const auto& [name, value] : props) out.props.emplace_back(name, value);
    out.data.reserve(data.size());
    for (const auto& [key, d] : data) out.data.push_back(d);
    return out;
  }
};

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::uint32_t wal_crc32(const void* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<RecoveredState> wal_recover(const std::string& dir,
                                   const std::string& name) {
  RecoveredState out;
  ReplayState state;
  std::uint64_t snap_lsn = 0;

  const auto snap = snap_path(dir, name);
  if (file_exists(snap)) {
    auto bytes = io::read_file(snap);
    if (!bytes) return bytes.error();
    std::size_t pos = 0;
    bool damaged = false;
    auto payload = next_frame(*bytes, pos, damaged);
    if (!payload || damaged) {
      // The snapshot is written atomically, so a bad one is not a torn tail
      // -- it means real corruption; refuse to guess.
      return make_error(Errc::kDecode, "corrupt snapshot '" + snap + "'");
    }
    auto decoded = decode_snapshot(*payload);
    if (!decoded) return decoded.error();
    state.load(decoded->image);
    state.pending = std::move(decoded->pending);
    out.max_stamp = decoded->max_stamp;
    snap_lsn = decoded->last_lsn;
    out.last_lsn = decoded->last_lsn;
    out.had_snapshot = true;
  }

  const auto wal = wal_path(dir, name);
  if (file_exists(wal)) {
    auto bytes = io::read_file(wal);
    if (!bytes) return bytes.error();
    std::size_t pos = 0;
    bool damaged = false;
    while (auto payload = next_frame(*bytes, pos, damaged)) {
      auto rec = decode_record(*payload);
      if (!rec) {
        // A frame whose CRC checks but whose payload does not decode means
        // the writer and reader disagree on the format; treat like a torn
        // tail so recovery still surfaces the prefix.
        damaged = true;
        break;
      }
      if (rec->lsn <= snap_lsn) continue;  // already folded into the snapshot
      switch (rec->kind) {
        case WalRecord::Kind::kApply:
          state.apply(rec->update);
          break;
        case WalRecord::Kind::kQueue:
          state.pending.push_back(PendingUpdate{rec->stamp, rec->update});
          if (rec->stamp > out.max_stamp) out.max_stamp = rec->stamp;
          break;
        case WalRecord::Kind::kUnqueue:
          state.unqueue(rec->stamp);
          break;
        case WalRecord::Kind::kReset:
          state.load(rec->image);
          break;
      }
      out.last_lsn = rec->lsn;
      ++out.records_replayed;
    }
    out.tail_torn = damaged;
  }

  out.image = state.image();
  out.pending = std::move(state.pending);
  return out;
}

Result<std::unique_ptr<Wal>> Wal::open(std::string dir, std::string name,
                                       Options options, obs::Metrics* metrics,
                                       std::uint64_t next_lsn) {
  if (auto st = io::ensure_dir(dir); !st.ok()) return st.error();
  const auto path = wal_path(dir, name);
  int fd;
  do {
    fd = ::open(path.c_str(),  // NOLINT(cppcoreguidelines-pro-type-vararg)
                O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return make_error(Errc::kHostFailure,
                      "open '" + path + "': " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    auto err = make_error(Errc::kHostFailure,
                          "fstat '" + path + "': " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  auto wal = std::unique_ptr<Wal>(
      new Wal(std::move(dir), std::move(name), options, fd,
              static_cast<std::size_t>(st.st_size),
              next_lsn == 0 ? 1 : next_lsn));
  if (metrics != nullptr) {
    wal->m_appends_ = &metrics->counter("wal_appends");
    wal->m_bytes_ = &metrics->counter("wal_bytes");
    wal->m_syncs_ = &metrics->counter("wal_syncs");
    wal->m_compactions_ = &metrics->counter("wal_compactions");
    wal->m_snapshot_writes_ = &metrics->counter("snapshot_writes");
    wal->m_snapshot_bytes_ = &metrics->counter("snapshot_bytes");
  }
  return wal;
}

Wal::Wal(std::string dir, std::string name, Options options, int fd,
         std::size_t log_bytes, std::uint64_t next_lsn)
    : dir_(std::move(dir)),
      name_(std::move(name)),
      options_(options),
      fd_(fd),
      log_bytes_(log_bytes),
      next_lsn_(next_lsn) {}

Wal::~Wal() {
  if (fd_ >= 0) {
    if (dirty_) (void)io::sync_fd(fd_);
    ::close(fd_);
  }
}

Status Wal::append(WalRecord rec, bool sync_now) {
  rec.lsn = next_lsn_;
  const Bytes framed = frame(encode_record(rec));
  if (auto st = io::write_all(fd_, framed.data(), framed.size()); !st.ok()) {
    return st;
  }
  ++next_lsn_;
  log_bytes_ += framed.size();
  total_appended_.fetch_add(framed.size(), std::memory_order_relaxed);
  dirty_ = true;
  if (m_appends_ != nullptr) m_appends_->add();
  if (m_bytes_ != nullptr) m_bytes_->add(framed.size());
  if (sync_now) return sync();
  return Status::ok_status();
}

Status Wal::sync() {
  if (!dirty_) return Status::ok_status();
  if (auto st = io::sync_fd(fd_); !st.ok()) return st;
  dirty_ = false;
  if (m_syncs_ != nullptr) m_syncs_->add();
  return Status::ok_status();
}

Status Wal::compact(const TableImage& image,
                    const std::vector<PendingUpdate>& pending,
                    std::uint64_t max_stamp) {
  // Order matters for crash safety: the snapshot (naming the last LSN it
  // covers) lands atomically first, so dying before the truncate merely
  // replays lsn > snapshot-lsn records -- of which there are none.
  const Bytes framed =
      frame(encode_snapshot(image, pending, max_stamp, next_lsn_ - 1));
  const auto path = snap_path(dir_, name_);
  if (auto st = io::write_file_atomic(path, framed.data(), framed.size());
      !st.ok()) {
    return st;
  }
  if (m_snapshot_writes_ != nullptr) m_snapshot_writes_->add();
  if (m_snapshot_bytes_ != nullptr) m_snapshot_bytes_->add(framed.size());
  int rc;
  do {
    rc = ::ftruncate(fd_, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return make_error(Errc::kHostFailure,
                      std::string("ftruncate wal: ") + std::strerror(errno));
  }
  dirty_ = true;
  if (auto st = sync(); !st.ok()) return st;
  log_bytes_ = 0;
  if (m_compactions_ != nullptr) m_compactions_->add();
  return Status::ok_status();
}

bool Wal::wants_compaction() const {
  return options_.compact_bytes != 0 && log_bytes_ > options_.compact_bytes;
}

}  // namespace csaw
