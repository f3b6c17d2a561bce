// Warm-storage-tier differential suite (DESIGN.md §14): every paper
// query must produce byte-identical rows — and identical degraded-scan
// skip counts and error statuses — whether it runs cold, against a
// cached structural-index tape, or against shredded columns, across
// sequential, threaded-morsel, and tiny-budget-spilling configurations.
// Stale-cache cases mutate the underlying files (truncate, append,
// same-size rewrite with an mtime bump) and require a transparent fall
// back to the cold answer, and so do corrupt tape and column sidecars.
// The paper-query and dirty-NDJSON loops run with sampled stats on and
// off (stats_mode), since stats share the per-file cache with tapes and
// columns. Non-vacuousness assertions check the warm runs actually hit
// the cache.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <utime.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "storage/storage_tier.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Disk fixtures

/// A unique directory of path-backed collection files. Tracks every
/// file it writes and removes them — plus any .jtape / .jcol / .jstats
/// sidecars the cache left next to them — on destruction.
class TempCollectionDir {
 public:
  TempCollectionDir() {
    std::string tmpl = ::testing::TempDir() + "/jpar_storage_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    dir_ = made != nullptr ? made : tmpl;
  }

  ~TempCollectionDir() {
    // Remove data files and whatever sidecars (.jtape, .<hash>.jcol,
    // .<hash>.jstats) the cache wrote beside them.
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        std::remove((dir_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

  /// Writes (or rewrites) `name` and returns its absolute path.
  std::string Write(const std::string& name, const std::string& text) {
    std::string path = dir_ + "/" + name;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    files_.push_back(path);
    return path;
  }

  /// Forces the file's mtime well past any cached signature, so a
  /// same-second same-size rewrite still invalidates.
  static void BumpMtime(const std::string& path, int seconds_ahead) {
    struct utimbuf times;
    times.actime = ::time(nullptr) + seconds_ahead;
    times.modtime = times.actime;
    ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
  }

  const std::string& dir() const { return dir_; }

  /// Paths of the files in the directory whose names end in `suffix`,
  /// sorted.
  std::vector<std::string> FilesEndingIn(const std::string& suffix) const {
    std::vector<std::string> out;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
          out.push_back(dir_ + "/" + name);
        }
      }
      ::closedir(d);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::string dir_;
  std::vector<std::string> files_;
};

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void OverwriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Registers a path-backed sensor collection generated from `spec`.
void RegisterSensorsOnDisk(Engine* engine, TempCollectionDir* dir,
                           const SensorDataSpec& spec) {
  Collection c;
  for (int f = 0; f < spec.num_files; ++f) {
    std::string path = dir->Write("sensors_" + std::to_string(f) + ".json",
                                  GenerateSensorFile(spec, f));
    c.files.push_back(JsonFile::FromPath(path));
  }
  engine->catalog()->RegisterCollection("/sensors", std::move(c));
}

// ---------------------------------------------------------------------
// Run harness

struct RunResult {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::string> rows;  // ToJsonString of each item, in order
  uint64_t skipped = 0;
  uint64_t tape_hits = 0;
  uint64_t tape_builds = 0;
  uint64_t columns_read = 0;
  uint64_t blocks_pruned = 0;
};

RunResult RunWith(const Engine& engine, const CompiledQuery& plan,
                  ExecOptions exec, StorageMode mode) {
  exec.storage_mode = mode;
  RunResult r;
  auto out = engine.Execute(plan, exec);
  r.ok = out.ok();
  r.code = out.status().code();
  r.message = out.status().message();
  if (out.ok()) {
    for (const Item& item : out->items) r.rows.push_back(item.ToJsonString());
    r.skipped = out->stats.skipped_records;
    r.tape_hits = out->stats.tape_hits;
    r.tape_builds = out->stats.tape_builds;
    r.columns_read = out->stats.columns_read;
    r.blocks_pruned = out->stats.blocks_pruned;
  }
  return r;
}

void ExpectSameAnswer(const RunResult& cold, const RunResult& warm,
                      const std::string& what) {
  ASSERT_EQ(cold.ok, warm.ok) << what << ": " << warm.message;
  ASSERT_EQ(static_cast<int>(cold.code), static_cast<int>(warm.code)) << what;
  ASSERT_EQ(cold.skipped, warm.skipped) << what;
  ASSERT_EQ(cold.rows, warm.rows) << what;
}

struct StorageConfigCase {
  const char* name;
  ExecOptions exec;
};

std::vector<StorageConfigCase> Configs() {
  std::vector<StorageConfigCase> configs;
  ExecOptions seq;
  seq.partitions = 2;
  configs.push_back({"sequential", seq});
  ExecOptions threaded;
  threaded.partitions = 4;
  threaded.use_threads = true;
  configs.push_back({"threads", threaded});
  ExecOptions spill;
  spill.partitions = 2;
  spill.memory_limit_bytes = 4096;
  spill.spill = SpillMode::kEnabled;
  configs.push_back({"spill-tiny", spill});
  return configs;
}

// ---------------------------------------------------------------------
// The paper queries, cold vs tape-warm vs columnar-warm

TEST(StorageDifferentialTest, PaperQueriesMatchColdAcrossAccessPaths) {
  SensorDataSpec spec;
  spec.num_files = 4;
  spec.records_per_file = 5;
  spec.measurements_per_array = 6;
  spec.seed = 77;

  for (const StorageConfigCase& config : Configs()) {
    for (StatsMode stats_mode : {StatsMode::kAuto, StatsMode::kOff}) {
      StorageManager::Instance().Clear();
      TempCollectionDir dir;
      Engine engine;
      RegisterSensorsOnDisk(&engine, &dir, spec);
      ExecOptions exec = config.exec;
      exec.stats_mode = stats_mode;

      for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
        auto compiled = engine.Compile(q.text, RuleOptions::All(), exec);
        ASSERT_TRUE(compiled.ok()) << q.name << ": "
                                   << compiled.status().ToString();

        std::string what = std::string(q.name) + " / " + config.name +
                           (stats_mode == StatsMode::kOff ? " / stats off"
                                                          : "");
        RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
        ASSERT_TRUE(cold.ok) << what << ": " << cold.message;

        // First warm run builds tapes + columns; the answer must already
        // match. Second warm run serves from the caches. kTape isolates
        // the structural-index level.
        RunResult build =
            RunWith(engine, *compiled, exec, StorageMode::kAuto);
        ExpectSameAnswer(cold, build, what + " (cache-building run)");
        RunResult warm = RunWith(engine, *compiled, exec, StorageMode::kAuto);
        ExpectSameAnswer(cold, warm, what + " (columnar-warm run)");
        RunResult tape = RunWith(engine, *compiled, exec, StorageMode::kTape);
        ExpectSameAnswer(cold, tape, what + " (tape-warm run)");

        EXPECT_EQ(cold.tape_hits + cold.tape_builds + cold.columns_read, 0u)
            << what << ": kOff must not touch the cache";
        // Queries sharing a scan path may be served columns another
        // query built, so any warm-tier engagement counts.
        EXPECT_GT(build.tape_hits + build.tape_builds + build.columns_read,
                  0u)
            << what;
        EXPECT_GT(warm.tape_hits + warm.columns_read, 0u) << what;
        EXPECT_GT(tape.tape_hits, 0u) << what;
        EXPECT_EQ(tape.columns_read, 0u)
            << what << ": kTape must not read columns";
      }
    }
  }
}

// A cleared in-memory cache must rewarm from the sidecar files — the
// fresh-process persistence story.
TEST(StorageDifferentialTest, SidecarsSurviveInMemoryClear) {
  SensorDataSpec spec;
  spec.num_files = 3;
  spec.records_per_file = 6;
  spec.measurements_per_array = 5;
  spec.seed = 13;

  TempCollectionDir dir;
  Engine engine;
  RegisterSensorsOnDisk(&engine, &dir, spec);
  auto compiled = engine.Compile(jparbench::kQ1, RuleOptions::All());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExecOptions exec;
  exec.partitions = 2;

  RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
  ASSERT_TRUE(cold.ok) << cold.message;
  StorageManager::Instance().Clear();
  RunResult build = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, build, "sidecar build run");

  // Simulate a fresh process: memory gone, sidecars remain. The tape
  // level rewarms from its .jtape sidecar (kTape keeps columns out of
  // the picture)...
  StorageManager::Instance().Clear();
  RunResult tape = RunWith(engine, *compiled, exec, StorageMode::kTape);
  ExpectSameAnswer(cold, tape, "sidecar tape rewarm run");
  // Stage 1 was not re-run: the tape loaded from its sidecar.
  EXPECT_GT(tape.tape_hits, 0u);
  EXPECT_EQ(tape.tape_builds, 0u);

  // ...and the columnar level rewarms from its .jcol sidecars without
  // touching any JSON bytes.
  StorageManager::Instance().Clear();
  RunResult rewarm = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, rewarm, "sidecar columnar rewarm run");
  EXPECT_GT(rewarm.columns_read, 0u);
  EXPECT_EQ(rewarm.tape_builds, 0u);
}

// ---------------------------------------------------------------------
// Dirty NDJSON: skip counts must survive every access path

constexpr const char* kDirtyQuery = R"(
  for $d in collection("/dirty")
  where $d("g") eq "a"
  return $d("v"))";

std::string DirtyNdjson(int base) {
  std::string text;
  for (int i = 0; i < 40; ++i) {
    if (i % 7 == 3) {
      text += "{\"v\": " + std::to_string(base + i) + ", \"g\": \"a\"";
      text += "\n";  // truncated record — parse error, skipped
    } else {
      text += "{\"v\": " + std::to_string(base + i) + ", \"g\": \"" +
              (i % 2 == 0 ? "a" : "b") + "\"}\n";
    }
  }
  return text;
}

TEST(StorageDifferentialTest, DirtyNdjsonSkipCountsAgree) {
  for (const StorageConfigCase& config : Configs()) {
    for (StatsMode stats_mode : {StatsMode::kAuto, StatsMode::kOff}) {
      StorageManager::Instance().Clear();
      TempCollectionDir dir;
      Engine engine;
      Collection c;
      for (int f = 0; f < 3; ++f) {
        c.files.push_back(JsonFile::FromPath(
            dir.Write("dirty_" + std::to_string(f) + ".ndjson",
                      DirtyNdjson(f * 100))));
      }
      engine.catalog()->RegisterCollection("/dirty", std::move(c));
      ExecOptions strict = config.exec;
      strict.stats_mode = stats_mode;
      auto compiled = engine.Compile(kDirtyQuery, RuleOptions::All(), strict);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

      ExecOptions lenient = strict;
      lenient.on_parse_error = ParseErrorPolicy::kSkipAndCount;

      std::string what = std::string("dirty / ") + config.name +
                         (stats_mode == StatsMode::kOff ? " / stats off" : "");
      RunResult cold = RunWith(engine, *compiled, lenient, StorageMode::kOff);
      ASSERT_TRUE(cold.ok) << what << ": " << cold.message;
      ASSERT_GT(cold.skipped, 0u) << what;
      RunResult build =
          RunWith(engine, *compiled, lenient, StorageMode::kAuto);
      ExpectSameAnswer(cold, build, what + " (build)");
      RunResult warm = RunWith(engine, *compiled, lenient, StorageMode::kAuto);
      ExpectSameAnswer(cold, warm, what + " (warm)");

      // Strict mode must fail identically warm and cold: a column built
      // by a lenient scan records its skips, and strict queries refuse
      // it rather than silently dropping the malformed records.
      RunResult cold_strict =
          RunWith(engine, *compiled, strict, StorageMode::kOff);
      RunResult warm_strict =
          RunWith(engine, *compiled, strict, StorageMode::kAuto);
      ASSERT_FALSE(cold_strict.ok) << what;
      ASSERT_FALSE(warm_strict.ok) << what;
      EXPECT_EQ(static_cast<int>(cold_strict.code),
                static_cast<int>(warm_strict.code))
          << what;
    }
  }
}

// ---------------------------------------------------------------------
// Stale caches: the file changed, the warm path must notice

std::string CleanNdjson(int records, int base) {
  std::string text;
  for (int i = 0; i < records; ++i) {
    text += "{\"v\": " + std::to_string(base + i) + ", \"g\": \"" +
            (i % 2 == 0 ? "a" : "b") + "\"}\n";
  }
  return text;
}

class StaleCacheTest : public ::testing::Test {
 protected:
  /// Warms every cache level over the initial file contents, applies
  /// `mutate`, and requires the next warm run to equal a cold run over
  /// the new contents.
  void CheckInvalidation(
      const std::function<void(TempCollectionDir*, const std::string&)>&
          mutate,
      const char* what) {
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    std::string path = dir.Write("data.ndjson", CleanNdjson(50, 0));
    Engine engine;
    Collection c;
    c.files.push_back(JsonFile::FromPath(path));
    engine.catalog()->RegisterCollection("/dirty", std::move(c));
    auto compiled = engine.Compile(kDirtyQuery, RuleOptions::All());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ExecOptions exec;
    exec.partitions = 2;

    // Warm both levels, twice so columns are read at least once.
    for (int i = 0; i < 2; ++i) {
      RunResult r = RunWith(engine, *compiled, exec, StorageMode::kAuto);
      ASSERT_TRUE(r.ok) << what << ": " << r.message;
    }

    mutate(&dir, path);

    RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
    ASSERT_TRUE(cold.ok) << what << ": " << cold.message;
    RunResult warm = RunWith(engine, *compiled, exec, StorageMode::kAuto);
    ExpectSameAnswer(cold, warm, std::string(what) + " (post-mutation)");
    RunResult warm2 = RunWith(engine, *compiled, exec, StorageMode::kAuto);
    ExpectSameAnswer(cold, warm2, std::string(what) + " (rewarmed)");
  }
};

TEST_F(StaleCacheTest, TruncatedFileFallsBackCold) {
  CheckInvalidation(
      [](TempCollectionDir* dir, const std::string& path) {
        dir->Write("data.ndjson", CleanNdjson(20, 0));
        TempCollectionDir::BumpMtime(path, 3);
      },
      "truncated");
}

TEST_F(StaleCacheTest, AppendedFileFallsBackCold) {
  CheckInvalidation(
      [](TempCollectionDir* dir, const std::string& path) {
        dir->Write("data.ndjson", CleanNdjson(50, 0) + CleanNdjson(30, 500));
        TempCollectionDir::BumpMtime(path, 3);
      },
      "appended");
}

TEST_F(StaleCacheTest, SameSizeRewriteWithMtimeBumpFallsBackCold) {
  CheckInvalidation(
      [](TempCollectionDir* dir, const std::string& path) {
        // Same byte count, different values: only the mtime betrays it.
        std::string original = CleanNdjson(50, 0);
        std::string changed = CleanNdjson(50, 0);
        for (char& ch : changed) {
          if (ch == '1') ch = '2';
        }
        ASSERT_EQ(original.size(), changed.size());
        dir->Write("data.ndjson", changed);
        TempCollectionDir::BumpMtime(path, 3);
      },
      "same-size rewrite");
}

// ---------------------------------------------------------------------
// Corrupt sidecars: a damaged tape or column must miss and be rebuilt

class CorruptSidecarTest : public ::testing::Test {
 protected:
  /// Warms every cache level over a sensor corpus with the paper
  /// queries, clears memory, lets `corrupt` damage every sidecar whose
  /// name ends in `suffix`, and requires each query under `mode` to
  /// return the cold answer and the sidecar to be rewritten intact.
  void Check(const std::string& suffix, StorageMode mode,
             const std::function<void(const std::string& sidecar,
                                      std::string* bytes)>& corrupt) {
    SensorDataSpec spec;
    spec.num_files = 4;
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    Engine engine;
    RegisterSensorsOnDisk(&engine, &dir, spec);
    ExecOptions exec;
    exec.partitions = 2;

    std::vector<CompiledQuery> plans;
    std::vector<RunResult> cold;
    for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
      auto compiled = engine.Compile(q.text, RuleOptions::All());
      ASSERT_TRUE(compiled.ok()) << q.name << ": "
                                 << compiled.status().ToString();
      plans.push_back(*compiled);
      cold.push_back(RunWith(engine, plans.back(), exec, StorageMode::kOff));
      ASSERT_TRUE(cold.back().ok) << q.name << ": " << cold.back().message;
    }
    for (const CompiledQuery& plan : plans) {
      ASSERT_TRUE(RunWith(engine, plan, exec, StorageMode::kAuto).ok);
    }

    std::map<std::string, std::string> intact;
    for (const std::string& sidecar : dir.FilesEndingIn(suffix)) {
      intact[sidecar] = SlurpFile(sidecar);
      std::string bytes = intact[sidecar];
      corrupt(sidecar, &bytes);
      ASSERT_NE(bytes, intact[sidecar]) << sidecar;
      OverwriteFile(sidecar, bytes);
    }
    ASSERT_FALSE(intact.empty()) << "no " << suffix << " sidecars written";
    StorageManager::Instance().Clear();

    for (size_t i = 0; i < plans.size(); ++i) {
      RunResult warm = RunWith(engine, plans[i], exec, mode);
      ExpectSameAnswer(cold[i], warm,
                       std::string(jparbench::kAllQueries[i].name) +
                           " over corrupt " + suffix + " sidecars");
    }
    for (const auto& [sidecar, bytes] : intact) {
      EXPECT_EQ(SlurpFile(sidecar), bytes)
          << sidecar << " was not rebuilt";
    }
  }
};

TEST_F(CorruptSidecarTest, FlippedTapeQuoteBitIsRebuilt) {
  Check(".jtape", StorageMode::kTape,
        [](const std::string& sidecar, std::string* bytes) {
          // The tape ends with four bitmaps of one bit per data byte,
          // quotes first: damage one byte in the middle of the quote
          // bitmap. That still loads as a well-formed tape.
          const std::string data =
              sidecar.substr(0, sidecar.size() - std::string(".jtape").size());
          const size_t bitmap = ((SlurpFile(data).size() + 63) / 64) * 8;
          ASSERT_GE(bytes->size(), 4 * bitmap);
          (*bytes)[bytes->size() - 4 * bitmap + bitmap / 2] ^= 0x5a;
        });
}

TEST_F(CorruptSidecarTest, FlippedColumnBitIsRebuilt) {
  Check(".jcol", StorageMode::kAuto,
        [](const std::string&, std::string* bytes) {
          // One bit of a stored value: the column still decodes, to
          // different values.
          (*bytes)[bytes->size() * 70 / 100] ^= 0x01;
        });
}

// The cache dir is resolved per query: a query with no cache dir puts
// its sidecars next to its own data, even after another query used a
// cache dir.
TEST(StorageDifferentialTest, EmptyCacheDirKeepsSidecarsNextToTheData) {
  StorageManager::Instance().Clear();
  TempCollectionDir cache_dir;
  TempCollectionDir first_dir;
  TempCollectionDir second_dir;
  Engine engine;
  for (auto [name, dir] : {std::pair{"/first", &first_dir},
                           std::pair{"/second", &second_dir}}) {
    Collection c;
    for (int f = 0; f < 2; ++f) {
      c.files.push_back(JsonFile::FromPath(dir->Write(
          "part_" + std::to_string(f) + ".ndjson", CleanNdjson(30, f * 50))));
    }
    engine.catalog()->RegisterCollection(name, std::move(c));
  }
  const char* query = R"(
    for $d in collection("%s")
    where $d("g") eq "a"
    return $d("v"))";
  auto run = [&](const std::string& collection, const ExecOptions& exec) {
    std::string text = query;
    text.replace(text.find("%s"), 2, collection);
    auto compiled = engine.Compile(text, RuleOptions::All(), exec);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto out = engine.Execute(*compiled, exec);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  };

  ExecOptions with_dir;
  with_dir.storage_cache_dir = cache_dir.dir();
  run("/first", with_dir);
  const size_t in_cache_dir = cache_dir.FilesEndingIn("").size();
  EXPECT_GT(in_cache_dir, 0u);
  EXPECT_TRUE(first_dir.FilesEndingIn(".jtape").empty());

  run("/second", ExecOptions{});
  EXPECT_EQ(second_dir.FilesEndingIn(".jtape").size(), 2u)
      << "an empty cache dir means next to this query's data";
  EXPECT_EQ(cache_dir.FilesEndingIn("").size(), in_cache_dir)
      << "the earlier query's cache dir must not stick";
}

// ---------------------------------------------------------------------
// Zone maps: pruned blocks must never change the answer

TEST(StorageDifferentialTest, ZoneMapPruningMatchesColdAnswer) {
  StorageManager::Instance().Clear();
  TempCollectionDir dir;
  Engine engine;
  Collection c;
  // Ascending values give tight per-block zone maps: a high threshold
  // provably excludes the early blocks (block size 512).
  for (int f = 0; f < 2; ++f) {
    std::string text;
    for (int i = 0; i < 1300; ++i) {
      text += "{\"v\": " + std::to_string(f * 10000 + i) + "}\n";
    }
    c.files.push_back(JsonFile::FromPath(
        dir.Write("zones_" + std::to_string(f) + ".ndjson", text)));
  }
  engine.catalog()->RegisterCollection("/zones", std::move(c));

  const char* query = R"(
    for $v in collection("/zones")("v")
    where $v gt 10600
    return $v)";
  auto compiled = engine.Compile(query, RuleOptions::All());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExecOptions exec;
  exec.partitions = 2;

  RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
  ASSERT_TRUE(cold.ok) << cold.message;
  ASSERT_EQ(cold.rows.size(), 699u);  // 10601..11299 of file 1

  RunResult build = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, build, "zone build run");
  RunResult warm = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, warm, "zone warm run");
  EXPECT_GT(warm.columns_read, 0u);
  EXPECT_GT(warm.blocks_pruned, 0u)
      << "the high threshold must prune whole blocks";

  // The mirrored predicate (constant on the left) prunes identically.
  const char* flipped = R"(
    for $v in collection("/zones")("v")
    where 10600 lt $v
    return $v)";
  auto compiled2 = engine.Compile(flipped, RuleOptions::All());
  ASSERT_TRUE(compiled2.ok()) << compiled2.status().ToString();
  RunResult cold2 = RunWith(engine, *compiled2, exec, StorageMode::kOff);
  RunResult warm2 = RunWith(engine, *compiled2, exec, StorageMode::kAuto);
  RunResult warm2b = RunWith(engine, *compiled2, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold2, warm2, "flipped zone build");
  ExpectSameAnswer(cold2, warm2b, "flipped zone warm");
  ASSERT_EQ(cold2.rows, cold.rows);
}

// ---------------------------------------------------------------------
// Concurrency: many warm queries over one shared cache (TSan coverage)

TEST(StorageDifferentialTest, ConcurrentWarmQueriesShareTheCache) {
  SensorDataSpec spec;
  spec.num_files = 3;
  spec.records_per_file = 6;
  spec.measurements_per_array = 5;
  spec.seed = 29;

  StorageManager::Instance().Clear();
  TempCollectionDir dir;
  Engine engine;
  RegisterSensorsOnDisk(&engine, &dir, spec);
  auto compiled = engine.Compile(jparbench::kQ1, RuleOptions::All());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExecOptions exec;
  exec.partitions = 4;
  exec.use_threads = true;

  RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
  ASSERT_TRUE(cold.ok) << cold.message;

  constexpr int kThreads = 6;
  std::vector<RunResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread races cache building on the first pass and cache
      // serving afterwards.
      results[t] = RunWith(engine, *compiled, exec, StorageMode::kAuto);
      results[t] = RunWith(engine, *compiled, exec, StorageMode::kAuto);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ExpectSameAnswer(cold, results[t],
                     "concurrent warm thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace jpar
