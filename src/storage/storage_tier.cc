#include "storage/storage_tier.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>

#include "common/byte_codec.h"
#include "common/checksum.h"

namespace jpar {

namespace {

// Sidecar format, one for all kinds: an 8-byte magic naming the kind
// and version, the signature of the data file the payload was built
// from (u64 size, u64 mtime_ns), the payload length (u64) and the
// payload's CRC32 (u32), then the payload.
constexpr char kMagic[3][8] = {
    {'J', 'P', 'T', 'A', 'P', 'E', '2', '\n'},
    {'J', 'P', 'C', 'O', 'L', '2', '\n', '\n'},
    {'J', 'P', 'S', 'T', 'A', 'T', '2', '\n'},
};
constexpr size_t kHeaderBytes = 8 + 8 + 8 + 8 + 4;

const char* MagicOf(SidecarKind kind) {
  return kMagic[static_cast<size_t>(kind)];
}

std::string EncodeSidecar(
    SidecarKind kind, const FileSignature& sig,
    const std::function<void(std::string*)>& append_payload) {
  std::string out(MagicOf(kind), 8);
  PutU64(sig.size, &out);
  PutU64(static_cast<uint64_t>(sig.mtime_ns), &out);
  const size_t trailer = out.size();
  out.resize(kHeaderBytes);
  append_payload(&out);
  const std::string_view payload =
      std::string_view(out).substr(kHeaderBytes);
  std::string fields;
  PutU64(payload.size(), &fields);
  PutU32(Crc32(payload), &fields);
  out.replace(trailer, fields.size(), fields);
  return out;
}

/// The payload of a `kind` sidecar written for `sig`; false when the
/// bytes are torn, corrupt, of another kind or version, or stamped for
/// other file contents.
bool DecodeSidecar(SidecarKind kind, const FileSignature& sig,
                   std::string_view data, std::string_view* payload) {
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), MagicOf(kind), 8) != 0) {
    return false;
  }
  size_t pos = 8;
  uint64_t size = 0, mtime = 0, length = 0;
  uint32_t crc = 0;
  GetU64(data, &pos, &size);
  GetU64(data, &pos, &mtime);
  GetU64(data, &pos, &length);
  GetU32(data, &pos, &crc);
  if (size != sig.size || static_cast<int64_t>(mtime) != sig.mtime_ns ||
      length != data.size() - kHeaderBytes) {
    return false;
  }
  *payload = data.substr(kHeaderBytes);
  return Crc32(*payload) == crc;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open collection file: " + path);
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IOError("read failed: " + path);
  return out;
}

/// Best-effort atomic write: a temp file in the target directory, then
/// rename. The temp name is unique per write, so two writers of one
/// sidecar never share a temp file. Failures are swallowed — a sidecar
/// is an accelerator, never a correctness dependency.
void WriteSidecar(const std::string& dest, const std::string& bytes) {
  static std::atomic<uint64_t> seq{0};
  const std::string tmp = dest + ".tmp." + std::to_string(::getpid()) +
                          "." + std::to_string(seq.fetch_add(1));
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), dest.c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

// Per-path payloads: the codec, and what an entry is charged for each.
void AppendPayload(const ColumnData& column, std::string* out) {
  AppendColumnPayload(column, out);
}
void AppendPayload(const PathStats& stats, std::string* out) {
  AppendPathStatsPayload(stats, out);
}
bool ParsePayload(std::string_view data, ColumnData* out) {
  return ParseColumnPayload(data, out);
}
bool ParsePayload(std::string_view data, PathStats* out) {
  return ParsePathStatsPayload(data, out);
}
uint64_t ResidentBytes(const ColumnData& column) { return column.bytes; }
uint64_t ResidentBytes(const PathStats&) { return sizeof(PathStats); }

}  // namespace

Result<FileSignature> StatFileSignature(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("cannot stat collection file: " + path);
  }
  FileSignature sig;
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                 static_cast<int64_t>(st.st_mtim.tv_nsec);
  return sig;
}

StorageManager& StorageManager::Instance() {
  static StorageManager* instance = new StorageManager();
  return *instance;
}

std::string StorageManager::SidecarPath(SidecarKind kind,
                                        const std::string& path,
                                        const std::string& path_str,
                                        const StorageConfig& cfg) {
  std::string base = cfg.cache_dir.empty()
                         ? path
                         : cfg.cache_dir + "/" + Hex64(Fnv1a64(path));
  switch (kind) {
    case SidecarKind::kTape:
      return base + ".jtape";
    case SidecarKind::kColumn:
      return base + "." + Hex64(Fnv1a64(path_str)) + ".jcol";
    case SidecarKind::kStats:
      return base + "." + Hex64(Fnv1a64(path_str)) + ".jstats";
  }
  return base;
}

StorageManager::Entry* StorageManager::FindLocked(const std::string& path,
                                                  const FileSignature& sig) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return nullptr;
  if (it->second.sig != sig) {
    // The file drifted: everything cached for it is stale.
    total_bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    entries_.erase(it);
    ++epoch_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second;
}

StorageManager::Entry* StorageManager::EnsureLocked(const std::string& path,
                                                    const FileSignature& sig) {
  if (Entry* e = FindLocked(path, sig)) return e;
  lru_.push_front(path);
  Entry& e = entries_[path];
  e.sig = sig;
  e.id = next_id_++;
  e.lru = lru_.begin();
  return &e;
}

StorageManager::Entry* StorageManager::SameEntryLocked(const std::string& path,
                                                       uint64_t id) {
  auto it = entries_.find(path);
  return it != entries_.end() && it->second.id == id ? &it->second : nullptr;
}

void StorageManager::ChargeLocked(Entry* e, uint64_t bytes) {
  e->bytes += bytes;
  total_bytes_ += bytes;
  // Evict from the cold end. The entry being served stays even when it
  // alone exceeds the budget; an entry still waiting on its tape build
  // holds no bytes, and dropping it would only discard that build.
  auto it = lru_.end();
  while (total_bytes_ > budget_bytes_ && it != lru_.begin()) {
    --it;
    auto victim = entries_.find(*it);
    if (&victim->second == e || victim->second.bytes == 0) continue;
    total_bytes_ -= victim->second.bytes;
    it = lru_.erase(it);
    entries_.erase(victim);
  }
}

Result<StorageManager::TapeData> StorageManager::LoadTape(
    const std::string& path, const FileSignature& sig,
    const StorageConfig& cfg, bool* built) {
  JPAR_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  TapeData data;
  data.text = std::make_shared<const std::string>(std::move(bytes));

  // Sidecar first: a valid tape for this exact (size, mtime) skips
  // stage 1 even in a fresh process.
  const std::string sidecar_path =
      SidecarPath(SidecarKind::kTape, path, "", cfg);
  if (Result<std::string> sidecar = ReadFileBytes(sidecar_path);
      sidecar.ok()) {
    std::string_view payload;
    StructuralIndex index;
    if (DecodeSidecar(SidecarKind::kTape, sig, *sidecar, &payload) &&
        index.LoadFrom(payload) && index.size() == data.text->size()) {
      data.index = std::make_shared<const StructuralIndex>(std::move(index));
      return data;
    }
  }
  data.index = std::make_shared<const StructuralIndex>(
      StructuralIndex::Build(*data.text));
  WriteSidecar(sidecar_path,
               EncodeSidecar(SidecarKind::kTape, sig, [&](std::string* out) {
                 data.index->AppendTo(out);
               }));
  *built = true;
  return data;
}

Result<StorageManager::Tape> StorageManager::AcquireTape(
    const std::string& path, const StorageConfig& cfg) {
  JPAR_ASSIGN_OR_RETURN(FileSignature sig, StatFileSignature(path));
  std::promise<Result<TapeData>> promise;
  TapeFuture future;
  uint64_t building_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* e = EnsureLocked(path, sig);
    if (!e->tape.valid()) {
      // Single flight: this call builds, later callers wait on it.
      e->tape = promise.get_future().share();
      building_id = e->id;
    }
    future = e->tape;
  }

  Tape tape;
  tape.signature = sig;
  tape.hit = true;
  if (building_id != 0) {
    bool built = false;
    Result<TapeData> data = LoadTape(path, sig, cfg, &built);
    tape.hit = !built;
    {
      // Charge the entry only if it is still the one this build was
      // for: a Clear, an eviction or a drift may have dropped it, and
      // then the result serves this call and is discarded.
      std::lock_guard<std::mutex> lock(mu_);
      if (Entry* e = SameEntryLocked(path, building_id)) {
        if (data.ok()) {
          ChargeLocked(e, data->text->size() + StructuralIndex::SerializedBytes(
                                                   data->text->size()));
        } else {
          e->tape = TapeFuture();  // the next caller retries
        }
      }
    }
    promise.set_value(std::move(data));
  }
  const Result<TapeData>& data = future.get();
  if (!data.ok()) return data.status();
  tape.text = data->text;
  tape.index = data->index;
  return tape;
}

template <typename T>
std::shared_ptr<const T> StorageManager::GetPerPath(
    PathMap<T> Entry::*map, SidecarKind kind, const std::string& path,
    const std::string& path_str, const StorageConfig& cfg) {
  Result<FileSignature> sig = StatFileSignature(path);
  if (!sig.ok()) return nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (Entry* e = FindLocked(path, *sig)) {
      auto it = (e->*map).find(path_str);
      if (it != (e->*map).end()) return it->second;
    }
  }
  // Memory miss: the sidecar is the only disk read on this path. A
  // missing or bad one is a clean miss; the next scan rebuilds it.
  Result<std::string> bytes =
      ReadFileBytes(SidecarPath(kind, path, path_str, cfg));
  std::string_view payload;
  auto value = std::make_shared<T>();
  if (!bytes.ok() || !DecodeSidecar(kind, *sig, *bytes, &payload) ||
      !ParsePayload(payload, value.get())) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = EnsureLocked(path, *sig);
  auto [it, inserted] = (e->*map).emplace(path_str, std::move(value));
  if (inserted) ChargeLocked(e, ResidentBytes(*it->second));
  return it->second;
}

template <typename T>
void StorageManager::PutPerPath(PathMap<T> Entry::*map, SidecarKind kind,
                                const std::string& path,
                                const std::string& path_str,
                                std::shared_ptr<const T> value,
                                const FileSignature& built_for,
                                const StorageConfig& cfg) {
  // The scan consumed bytes with signature `built_for`; if the live
  // file moved on since, `value` describes bytes that no longer exist.
  Result<FileSignature> sig = StatFileSignature(path);
  if (!sig.ok() || *sig != built_for) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* e = EnsureLocked(path, built_for);
    // Two scans racing to learn one (file, path): the first install
    // wins, and only it writes the sidecar.
    if (!(e->*map).emplace(path_str, value).second) return;
    ++epoch_;
    ChargeLocked(e, ResidentBytes(*value));
  }
  WriteSidecar(SidecarPath(kind, path, path_str, cfg),
               EncodeSidecar(kind, built_for, [&](std::string* out) {
                 AppendPayload(*value, out);
               }));
}

std::shared_ptr<const ColumnData> StorageManager::GetColumn(
    const std::string& path, const std::string& path_str,
    const StorageConfig& cfg) {
  return GetPerPath(&Entry::columns, SidecarKind::kColumn, path, path_str,
                    cfg);
}

std::shared_ptr<const PathStats> StorageManager::GetStats(
    const std::string& path, const std::string& path_str,
    const StorageConfig& cfg) {
  return GetPerPath(&Entry::stats, SidecarKind::kStats, path, path_str, cfg);
}

void StorageManager::PutColumn(const std::string& path,
                               const std::string& path_str, ColumnData column,
                               const FileSignature& built_for,
                               const StorageConfig& cfg) {
  PutPerPath<ColumnData>(
      &Entry::columns, SidecarKind::kColumn, path, path_str,
      std::make_shared<const ColumnData>(std::move(column)), built_for, cfg);
}

void StorageManager::PutStats(const std::string& path,
                              const std::string& path_str, PathStats stats,
                              const FileSignature& built_for,
                              const StorageConfig& cfg) {
  PutPerPath<PathStats>(&Entry::stats, SidecarKind::kStats, path, path_str,
                        std::make_shared<const PathStats>(stats), built_for,
                        cfg);
}

uint64_t StorageManager::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void StorageManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  total_bytes_ = 0;
  ++epoch_;
}

StorageManager::Totals StorageManager::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  t.bytes = total_bytes_;
  t.files = entries_.size();
  return t;
}

}  // namespace jpar
