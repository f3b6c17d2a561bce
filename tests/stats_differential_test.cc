// Stats differential suite (DESIGN.md §15): plans costed from sampled
// statistics must return byte-identical rows — and identical
// degraded-scan skip counts and error codes — to stats-off plans,
// across every paper query, a randomized selectivity/skew/cardinality
// grid, and {sequential, threaded-morsel, tiny-budget-spill,
// dirty-NDJSON} configurations. Adversarial cases feed the planner
// stale, corrupted, truncated, and foreign .jstats sidecars: wrong
// stats may change performance, never answers. Every config also runs
// with the storage tier off (storage_mode), since stats share the
// per-file cache with tapes and columns but must not depend on them.

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
#include <random>
#include <string>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "stats/collection_stats.h"
#include "storage/storage_tier.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Disk fixtures (mirrors the storage differential suite)

class TempCollectionDir {
 public:
  TempCollectionDir() {
    std::string tmpl = ::testing::TempDir() + "/jpar_jstats_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    dir_ = made != nullptr ? made : tmpl;
  }

  ~TempCollectionDir() {
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

  std::string Write(const std::string& name, const std::string& text) {
    std::string path = dir_ + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
  }

  static void BumpMtime(const std::string& path, int seconds_ahead) {
    struct utimbuf times;
    times.actime = ::time(nullptr) + seconds_ahead;
    times.modtime = times.actime;
    ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
  }

  /// Every .jstats sidecar currently in the directory. The sidecar
  /// name embeds a hash of the projected path, so tests discover
  /// sidecars by listing rather than predicting names.
  std::vector<std::string> Sidecars() const {
    std::vector<std::string> found;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.size() > 7 &&
            name.compare(name.size() - 7, 7, ".jstats") == 0) {
          found.push_back(dir_ + "/" + name);
        }
      }
      ::closedir(d);
    }
    std::sort(found.begin(), found.end());
    return found;
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

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
// Run harness: compile AND execute under one stats mode, since stats
// influence compilation (plan annotations) and execution (sampling).

struct RunResult {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::string> rows;
  uint64_t skipped = 0;
  uint64_t stats_paths_built = 0;
};

RunResult RunWith(const Engine& engine, const std::string& query,
                  ExecOptions exec, StatsMode mode) {
  exec.stats_mode = mode;
  RunResult r;
  auto compiled = engine.Compile(query, RuleOptions::All(), exec);
  if (!compiled.ok()) {
    r.code = compiled.status().code();
    r.message = compiled.status().message();
    return r;
  }
  auto out = engine.Execute(*compiled, exec);
  r.ok = out.ok();
  r.code = out.status().code();
  r.message = out.status().message();
  if (out.ok()) {
    for (const Item& item : out->items) r.rows.push_back(item.ToJsonString());
    r.skipped = out->stats.skipped_records;
    r.stats_paths_built = out->stats.stats_paths_built;
  }
  return r;
}

void ExpectSameAnswer(const RunResult& off, const RunResult& on,
                      const std::string& what) {
  ASSERT_EQ(off.ok, on.ok) << what << ": " << on.message;
  ASSERT_EQ(static_cast<int>(off.code), static_cast<int>(on.code)) << what;
  ASSERT_EQ(off.skipped, on.skipped) << what;
  ASSERT_EQ(off.rows, on.rows) << what;
}

struct ConfigCase {
  std::string name;
  ExecOptions exec;
};

std::vector<ConfigCase> Configs() {
  std::vector<ConfigCase> configs;
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
  const size_t warm = configs.size();
  for (size_t i = 0; i < warm; ++i) {
    ConfigCase cold = configs[i];
    cold.name += " / storage off";
    cold.exec.storage_mode = StorageMode::kOff;
    configs.push_back(std::move(cold));
  }
  return configs;
}

// ---------------------------------------------------------------------
// Paper queries: stats-off vs building vs warm vs forced

TEST(StatsDifferentialTest, PaperQueriesMatchStatsOff) {
  SensorDataSpec spec;
  spec.num_files = 4;
  spec.records_per_file = 5;
  spec.measurements_per_array = 6;
  spec.seed = 101;

  for (const ConfigCase& config : Configs()) {
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    Engine engine;
    RegisterSensorsOnDisk(&engine, &dir, spec);
    uint64_t total_built = 0;

    for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
      std::string what = std::string(q.name) + " / " + config.name;
      RunResult off = RunWith(engine, q.text, config.exec, StatsMode::kOff);
      ASSERT_TRUE(off.ok) << what << ": " << off.message;
      EXPECT_EQ(off.stats_paths_built, 0u)
          << what << ": kOff must not build stats";

      // First auto run samples while scanning; the second compiles
      // against the learned stats; forced trusts them unconditionally.
      RunResult build = RunWith(engine, q.text, config.exec, StatsMode::kAuto);
      ExpectSameAnswer(off, build, what + " (stats-building run)");
      RunResult warm = RunWith(engine, q.text, config.exec, StatsMode::kAuto);
      ExpectSameAnswer(off, warm, what + " (stats-warm run)");
      RunResult forced =
          RunWith(engine, q.text, config.exec, StatsMode::kForced);
      ExpectSameAnswer(off, forced, what + " (stats-forced run)");
      total_built += build.stats_paths_built + warm.stats_paths_built;
    }

    // Non-vacuousness: across the whole query set the auto runs must
    // have sampled something. (Per-query can legitimately be zero — a
    // zone-pruned columnar read skips the tee to keep samples
    // unbiased.)
    EXPECT_GT(total_built, 0u)
        << config.name << ": no stats were built by any auto run";
  }
}

// ---------------------------------------------------------------------
// Randomized selectivity / skew / cardinality grid

std::string GridNdjson(std::mt19937* rng, int records, int key_space,
                       double skew_to_first, int value_range) {
  std::uniform_real_distribution<double> coin(0, 1);
  std::uniform_int_distribution<int> key(0, key_space - 1);
  std::uniform_int_distribution<int> value(0, value_range - 1);
  std::string text;
  for (int i = 0; i < records; ++i) {
    int k = coin(*rng) < skew_to_first ? 0 : key(*rng);
    text += "{\"k\": " + std::to_string(k) +
            ", \"v\": " + std::to_string(value(*rng)) + "}\n";
  }
  return text;
}

TEST(StatsDifferentialTest, RandomizedGridMatchesStatsOff) {
  std::mt19937 rng(20260807);
  struct GridCase {
    int records;
    int key_space;
    double skew;
    int value_range;
    int threshold;  // for the range predicate
  };
  const GridCase grid[] = {
      {200, 4, 0.0, 100, 10},     // tiny, selective
      {2000, 64, 0.0, 1000, 900}, // uniform keys, selective high range
      {2000, 8, 0.9, 1000, 500},  // heavy skew to one key
      {5000, 512, 0.3, 50, 25},   // many keys, narrow values
  };
  const char* queries[] = {
      // range select
      R"(for $r in collection("/grid")
         where $r("v") gt %THRESH%
         return $r("v"))",
      // group-by over the skewed key
      R"(for $r in collection("/grid")
         group by $k := $r("k")
         return count($r))",
      // equality select
      R"(for $r in collection("/grid")
         where $r("k") eq 0
         return $r("v"))",
  };

  for (const GridCase& g : grid) {
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    Engine engine;
    Collection c;
    for (int f = 0; f < 2; ++f) {
      c.files.push_back(JsonFile::FromPath(dir.Write(
          "grid_" + std::to_string(f) + ".ndjson",
          GridNdjson(&rng, g.records / 2, g.key_space, g.skew,
                     g.value_range))));
    }
    engine.catalog()->RegisterCollection("/grid", std::move(c));

    for (const char* tmpl : queries) {
      std::string query = tmpl;
      size_t at = query.find("%THRESH%");
      if (at != std::string::npos) {
        query.replace(at, 8, std::to_string(g.threshold));
      }
      for (const ConfigCase& config : Configs()) {
        std::string what = "grid(records=" + std::to_string(g.records) +
                           ",skew=" + std::to_string(g.skew) + ") / " +
                           config.name;
        RunResult off = RunWith(engine, query, config.exec, StatsMode::kOff);
        ASSERT_TRUE(off.ok) << what << ": " << off.message;
        RunResult build =
            RunWith(engine, query, config.exec, StatsMode::kAuto);
        ExpectSameAnswer(off, build, what + " (build)");
        RunResult forced =
            RunWith(engine, query, config.exec, StatsMode::kForced);
        ExpectSameAnswer(off, forced, what + " (forced)");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dirty NDJSON: skip counts must agree under costed plans

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

TEST(StatsDifferentialTest, DirtyNdjsonSkipCountsAgree) {
  for (const ConfigCase& config : Configs()) {
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

    ExecOptions lenient = config.exec;
    lenient.on_parse_error = ParseErrorPolicy::kSkipAndCount;

    std::string what = std::string("dirty / ") + config.name;
    RunResult off = RunWith(engine, kDirtyQuery, lenient, StatsMode::kOff);
    ASSERT_TRUE(off.ok) << what << ": " << off.message;
    ASSERT_GT(off.skipped, 0u) << what;
    RunResult build = RunWith(engine, kDirtyQuery, lenient, StatsMode::kAuto);
    ExpectSameAnswer(off, build, what + " (build)");
    RunResult warm = RunWith(engine, kDirtyQuery, lenient, StatsMode::kAuto);
    ExpectSameAnswer(off, warm, what + " (warm)");

    // Strict mode must fail identically with and without stats.
    RunResult off_strict =
        RunWith(engine, kDirtyQuery, config.exec, StatsMode::kOff);
    RunResult on_strict =
        RunWith(engine, kDirtyQuery, config.exec, StatsMode::kForced);
    ASSERT_FALSE(off_strict.ok) << what;
    ASSERT_FALSE(on_strict.ok) << what;
    EXPECT_EQ(static_cast<int>(off_strict.code),
              static_cast<int>(on_strict.code))
        << what;
  }
}

// ---------------------------------------------------------------------
// Adversarial sidecars: wrong stats can cost speed, never answers

constexpr const char* kGridQuery = R"(
  for $r in collection("/grid")
  where $r("v") gt 800
  return $r("v"))";

std::string CleanNdjson(int records, int base) {
  std::string text;
  for (int i = 0; i < records; ++i) {
    text += "{\"k\": " + std::to_string((base + i) % 16) +
            ", \"v\": " + std::to_string((base + i) % 1000) + "}\n";
  }
  return text;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void OverwriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class AdversarialSidecarTest : public ::testing::Test {
 protected:
  /// Warms real stats over the collection, lets `sabotage` tamper with
  /// the data file and/or the .jstats sidecars it produced, clears the
  /// in-memory store (so the next run must consult the tampered disk
  /// state), and requires every stats mode to still match the
  /// stats-off answer.
  void Check(
      const std::function<void(TempCollectionDir* dir,
                               const std::string& data_path,
                               const std::vector<std::string>& sidecars)>&
          sabotage,
      const char* what) {
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    std::string path = dir.Write("grid_0.ndjson", CleanNdjson(400, 0));
    Engine engine;
    Collection c;
    c.files.push_back(JsonFile::FromPath(path));
    engine.catalog()->RegisterCollection("/grid", std::move(c));

    ExecOptions exec;
    exec.partitions = 2;

    // Learn genuine stats (and their sidecars).
    RunResult warm = RunWith(engine, kGridQuery, exec, StatsMode::kAuto);
    ASSERT_TRUE(warm.ok) << what << ": " << warm.message;
    ASSERT_FALSE(dir.Sidecars().empty())
        << what << ": the warm run should have written sidecars";

    sabotage(&dir, path, dir.Sidecars());
    StorageManager::Instance().Clear();

    RunResult off = RunWith(engine, kGridQuery, exec, StatsMode::kOff);
    ASSERT_TRUE(off.ok) << what << ": " << off.message;
    for (StatsMode mode : {StatsMode::kAuto, StatsMode::kForced}) {
      RunResult on = RunWith(engine, kGridQuery, exec, mode);
      ExpectSameAnswer(off, on,
                       std::string(what) + " (mode " +
                           std::to_string(static_cast<int>(mode)) + ")");
    }
  }
};

TEST_F(AdversarialSidecarTest, StaleSidecarAfterFileMutation) {
  Check(
      [](TempCollectionDir* dir, const std::string& path,
         const std::vector<std::string>&) {
        dir->Write("grid_0.ndjson", CleanNdjson(300, 17));
        TempCollectionDir::BumpMtime(path, 3);
      },
      "stale");
}

TEST_F(AdversarialSidecarTest, CorruptedSidecarBytes) {
  Check(
      [](TempCollectionDir*, const std::string&,
         const std::vector<std::string>& sidecars) {
        for (const std::string& sidecar : sidecars) {
          OverwriteFile(sidecar,
                        "JPSTAT1\n\xff\xff garbage, not a payload");
        }
      },
      "corrupted");
}

TEST_F(AdversarialSidecarTest, TruncatedSidecar) {
  Check(
      [](TempCollectionDir*, const std::string&,
         const std::vector<std::string>& sidecars) {
        for (const std::string& sidecar : sidecars) {
          std::string bytes = SlurpFile(sidecar);
          OverwriteFile(sidecar, bytes.substr(0, bytes.size() / 2));
        }
      },
      "truncated");
}

TEST_F(AdversarialSidecarTest, ForeignSidecarFromAnotherFile) {
  Check(
      [](TempCollectionDir* dir, const std::string&,
         const std::vector<std::string>& sidecars) {
        // Valid sidecars... for a different file: warm stats over
        // other.ndjson, then copy its (signature-stamped) sidecar
        // bytes over each of the original file's sidecar names.
        std::string other =
            dir->Write("other.ndjson", CleanNdjson(50, 999));
        Engine other_engine;
        Collection c;
        c.files.push_back(JsonFile::FromPath(other));
        other_engine.catalog()->RegisterCollection("/grid", std::move(c));
        ExecOptions exec;
        exec.partitions = 1;
        (void)RunWith(other_engine, kGridQuery, exec, StatsMode::kAuto);
        std::vector<std::string> all = dir->Sidecars();
        std::string donor;
        for (const std::string& candidate : all) {
          bool original =
              std::find(sidecars.begin(), sidecars.end(), candidate) !=
              sidecars.end();
          if (!original) donor = candidate;
        }
        ASSERT_FALSE(donor.empty()) << "the donor run wrote no sidecar";
        std::string bytes = SlurpFile(donor);
        for (const std::string& sidecar : sidecars) {
          OverwriteFile(sidecar, bytes);
        }
      },
      "foreign");
}

// The tampered cache must report a clean miss, not a poisoned hit, for
// every sidecar kind: tapes, columns and stats share one format.
TEST(StatsStoreSidecarTest, CorruptAndForeignSidecarsAreCleanMisses) {
  StorageManager& cache = StorageManager::Instance();
  cache.Clear();
  const StorageConfig cfg;
  TempCollectionDir dir;
  const std::string path = dir.Write("x.ndjson", CleanNdjson(40, 0));
  const std::string other = dir.Write("y.ndjson", CleanNdjson(90, 5));
  for (const std::string& p : {path, other}) {
    auto tape = cache.AcquireTape(p, cfg);
    ASSERT_TRUE(tape.ok()) << tape.status().ToString();
    ColumnBuilder column;
    PathStats stats;
    for (int i = 0; i < 40; ++i) {
      column.Add(Item::Int64(i));
      stats.Observe(Item::Int64(i));
    }
    cache.PutColumn(p, "$", column.Finish(0), tape->signature, cfg);
    cache.PutStats(p, "$", stats, tape->signature, cfg);
  }

  for (SidecarKind kind :
       {SidecarKind::kTape, SidecarKind::kColumn, SidecarKind::kStats}) {
    const std::string sidecar =
        StorageManager::SidecarPath(kind, path, "$", cfg);
    const std::string intact = SlurpFile(sidecar);
    ASSERT_GT(intact.size(), 40u) << sidecar;
    // Whether `path`'s `kind` is served from the sidecar on disk.
    auto served = [&] {
      cache.Clear();
      switch (kind) {
        case SidecarKind::kTape: {
          auto tape = cache.AcquireTape(path, cfg);
          return tape.ok() && tape->hit;
        }
        case SidecarKind::kColumn:
          return cache.GetColumn(path, "$", cfg) != nullptr;
        case SidecarKind::kStats:
          return cache.GetStats(path, "$", cfg) != nullptr;
      }
      return false;
    };
    EXPECT_TRUE(served()) << sidecar << ": the intact sidecar must serve";

    std::string corrupt = intact;
    for (size_t i = corrupt.size() - 8; i < corrupt.size(); ++i) {
      corrupt[i] = static_cast<char>(~corrupt[i]);
    }
    OverwriteFile(sidecar, corrupt);
    EXPECT_FALSE(served()) << sidecar << ": corrupt payload must miss";

    OverwriteFile(sidecar, intact.substr(0, 8));
    EXPECT_FALSE(served()) << sidecar << ": truncated header must miss";

    // A sidecar stamped for another file's bytes.
    OverwriteFile(sidecar,
                  SlurpFile(StorageManager::SidecarPath(kind, other, "$",
                                                        cfg)));
    EXPECT_FALSE(served()) << sidecar << ": foreign signature must miss";

    // And after all that abuse, the honest sidecar still serves.
    OverwriteFile(sidecar, intact);
    EXPECT_TRUE(served()) << sidecar;
  }
  cache.Clear();
}

}  // namespace
}  // namespace jpar
