// Cost-model plan-choice bench (DESIGN.md §15). Measures two levers
// the sampled-statistics planner pulls, each against the same plan
// compiled stats-off, on identical on-disk NDJSON corpora:
//
//   1. join build side — a skewed join written small-first joins a
//      padded 30k-row collection; stats flip the hash build to the
//      small side instead of buffering the heavy side,
//   2. group-by spill fanout — a high-cardinality group-by under a
//      tiny memory budget; the cardinality-derived fanout hint widens
//      the spill partitioning so recursive repartition passes shrink.
//
// Every stats-on run is checked row-identical to its stats-off run
// (the cost model's core invariant). Besides the stdout tables it
// writes BENCH_cost_model.json to the current directory
// (run_benches.sh runs from the repo root).

#include <dirent.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "stats/collection_stats.h"

namespace jparbench {
namespace {

using Clock = std::chrono::steady_clock;
using jpar::CompiledQuery;
using jpar::ExecOptions;
using jpar::Item;
using jpar::JsonFile;
using jpar::SpillMode;
using jpar::StatsMode;
using jpar::StorageManager;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Bench corpus directory; files (and their stats/cache sidecars) are
/// removed on exit.
class BenchDir {
 public:
  BenchDir() {
    std::string tmpl = "/tmp/jpar_bench_cost_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::exit(1);
    }
    dir_ = made;
  }

  ~BenchDir() {
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

 private:
  std::string dir_;
};

void RegisterNdjson(Engine* engine, BenchDir* dir, const std::string& coll,
                    const std::string& stem, const std::string& text) {
  Collection c;
  c.files.push_back(JsonFile::FromPath(dir->Write(stem + ".ndjson", text)));
  engine->catalog()->RegisterCollection(coll, std::move(c));
}

struct Timed {
  double ms = 0;
  uint64_t rows = 0;
  uint64_t merge_passes = 0;
  uint64_t peak_bytes = 0;
  std::vector<std::string> row_text;
};

/// Compiles under `mode`, executes Repeats() times, and averages.
Timed Measure(const Engine& engine, const char* query, ExecOptions exec,
              StatsMode mode, const char* context) {
  exec.stats_mode = mode;
  auto compiled = engine.Compile(query, RuleOptions::All(), exec);
  CheckOk(compiled.status(), context);
  Timed t;
  for (int r = 0; r < Repeats(); ++r) {
    auto start = Clock::now();
    auto out = engine.Execute(*compiled, exec);
    auto end = Clock::now();
    CheckOk(out.status(), context);
    t.ms += MsBetween(start, end);
    t.rows = out->items.size();
    t.merge_passes = out->stats.spill_merge_passes;
    if (out->stats.peak_retained_bytes > t.peak_bytes) {
      t.peak_bytes = out->stats.peak_retained_bytes;
    }
    if (r == 0) {
      t.row_text.reserve(out->items.size());
      for (const Item& item : out->items) {
        t.row_text.push_back(item.ToJsonString());
      }
    }
  }
  t.ms /= Repeats();
  return t;
}

void CheckIdentical(const Timed& off, const Timed& on, const char* what) {
  if (off.row_text != on.row_text) {
    std::fprintf(stderr, "FATAL: %s: stats-on rows differ from stats-off\n",
                 what);
    std::exit(1);
  }
}

/// Runs `query` once with sampling on so .jstats sidecars exist before
/// the measured stats-on compile.
void WarmStats(const Engine& engine, const std::string& query,
               ExecOptions exec) {
  exec.stats_mode = StatsMode::kAuto;
  auto compiled = engine.Compile(query, RuleOptions::All(), exec);
  CheckOk(compiled.status(), "stats warm compile");
  CheckOk(engine.Execute(*compiled, exec).status(), "stats warm run");
}

// ---------------------------------------------------------------------
// 1. Join build side

std::string JoinSection(BenchDir* dir) {
  const double scale = ScaleFactor();
  const int small_rows = 150;
  const int big_rows = static_cast<int>(30000 * scale);
  std::string small;
  for (int i = 0; i < small_rows; ++i) {
    small += "{\"k\": " + std::to_string(i % 200) +
             ", \"v\": " + std::to_string(i) + "}\n";
  }
  const std::string pad(160, 'x');
  std::string big;
  for (int i = 0; i < big_rows; ++i) {
    big += "{\"k\": " + std::to_string(i % 200) +
           ", \"v\": " + std::to_string(i) + ", \"pad\": \"" + pad + "\"}\n";
  }

  EngineOptions options;
  options.rules = RuleOptions::All();
  Engine engine(options);
  RegisterNdjson(&engine, dir, "/small", "small", small);
  RegisterNdjson(&engine, dir, "/big", "big", big);

  // Small side first: the stats-off default buffers the second (heavy)
  // side; stats flip the build to the small side.
  const char* join = R"(
    for $a in collection("/small")
    for $b in collection("/big")
    where $a("k") eq $b("k")
    return $a("v") + $b("v"))";
  ExecOptions exec;
  exec.partitions = 2;

  WarmStats(engine, R"(for $a in collection("/small") return $a)", exec);
  WarmStats(engine, R"(for $b in collection("/big") return $b)", exec);

  Timed off = Measure(engine, join, exec, StatsMode::kOff, "join stats-off");
  Timed on = Measure(engine, join, exec, StatsMode::kForced, "join stats-on");
  CheckIdentical(off, on, "join build side");

  double speedup = off.ms / (on.ms > 0 ? on.ms : 1);
  PrintTableHeader("Cost model: skewed join build side",
                   {"config", "time", "peak mem", "rows"});
  PrintTableRow({"stats-off (build big)", FormatMs(off.ms),
                 FormatBytes(off.peak_bytes), std::to_string(off.rows)});
  PrintTableRow({"stats-on  (build small)", FormatMs(on.ms),
                 FormatBytes(on.peak_bytes), std::to_string(on.rows)});
  char speedup_text[32];
  std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx", speedup);
  std::printf("  plan-choice speedup: %s\n", speedup_text);

  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"off_ms\": %.3f, \"on_ms\": %.3f, \"speedup\": %.3f, "
                "\"off_peak_bytes\": %llu, \"on_peak_bytes\": %llu, "
                "\"rows\": %llu}",
                off.ms, on.ms, speedup,
                static_cast<unsigned long long>(off.peak_bytes),
                static_cast<unsigned long long>(on.peak_bytes),
                static_cast<unsigned long long>(off.rows));
  return json;
}

// ---------------------------------------------------------------------
// 2. Group-by spill fanout

std::string FanoutSection(BenchDir* dir) {
  const double scale = ScaleFactor();
  const int rows = static_cast<int>(120000 * scale);
  std::string groups;
  for (int i = 0; i < rows; ++i) {
    groups += "{\"k\": " + std::to_string(i % 30000) +
              ", \"v\": " + std::to_string(i) + "}\n";
  }

  EngineOptions options;
  options.rules = RuleOptions::All();
  Engine engine(options);
  RegisterNdjson(&engine, dir, "/groups", "groups", groups);

  const char* groupby = R"(
    for $g in collection("/groups")
    group by $k := $g("k")
    return count($g))";
  ExecOptions exec;
  exec.partitions = 2;
  exec.spill = SpillMode::kEnabled;
  exec.memory_limit_bytes = 96 * 1024;

  WarmStats(engine, R"(for $g in collection("/groups") return $g)", exec);

  Timed off = Measure(engine, groupby, exec, StatsMode::kOff,
                      "group-by stats-off");
  Timed on = Measure(engine, groupby, exec, StatsMode::kForced,
                     "group-by stats-on");
  CheckIdentical(off, on, "group-by spill fanout");

  double speedup = off.ms / (on.ms > 0 ? on.ms : 1);
  PrintTableHeader("Cost model: group-by spill fanout",
                   {"config", "time", "merge passes", "rows"});
  PrintTableRow({"stats-off (fanout 8)", FormatMs(off.ms),
                 std::to_string(off.merge_passes), std::to_string(off.rows)});
  PrintTableRow({"stats-on  (fanout hint)", FormatMs(on.ms),
                 std::to_string(on.merge_passes), std::to_string(on.rows)});
  char speedup_text[32];
  std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx", speedup);
  std::printf("  plan-choice speedup: %s\n", speedup_text);

  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"off_ms\": %.3f, \"on_ms\": %.3f, \"speedup\": %.3f, "
                "\"off_merge_passes\": %llu, \"on_merge_passes\": %llu, "
                "\"rows\": %llu}",
                off.ms, on.ms, speedup,
                static_cast<unsigned long long>(off.merge_passes),
                static_cast<unsigned long long>(on.merge_passes),
                static_cast<unsigned long long>(off.rows));
  return json;
}

void RunBench() {
  StorageManager::Instance().Clear();
  BenchDir dir;
  std::string join = JoinSection(&dir);
  std::string fanout = FanoutSection(&dir);
  UpdateBenchJsonSection("BENCH_cost_model.json", "join_build_side", join);
  UpdateBenchJsonSection("BENCH_cost_model.json", "groupby_spill_fanout",
                         fanout);
  std::printf("\nwrote BENCH_cost_model.json\n");
}

}  // namespace
}  // namespace jparbench

int main(int argc, char** argv) {
  jparbench::InitBenchArgs(argc, argv);
  jparbench::RunBench();
  return 0;
}
