// Warm storage tier bench (DESIGN.md §14). Measures, over path-backed
// NDJSON collections on disk (the cache only serves disk files):
//
//   1. a shallow projection over text-heavy event records cold vs
//      tape-warm vs columnar-warm — the headline numbers. Long string
//      payloads contribute no structural positions, so a tape-warm
//      scan walks almost nothing while a cold scan still pays the full
//      byte-level stage-1 pass; columnar-warm touches no JSON at all,
//   2. a touch-all value projection over the dense sensor corpus — the
//      shredding win when stage-2 parse work dominates (tapes help
//      only modestly there, honestly reported),
//   3. a numeric range predicate over an ascending reading stream —
//      zone maps prune the blocks the predicate provably excludes,
//   4. a Q0-style date SELECT over the sensor result objects with the
//      scan filter (DESIGN.md §9) on and off — on columns, the filter
//      skips decoding every cached record the SELECT rejects.
//
// Every warm run is checked row-identical to its cold run. Besides the
// stdout tables it writes BENCH_storage_tier.json to the current
// directory (run_benches.sh runs from the repo root).

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/storage_tier.h"

namespace jparbench {
namespace {

using Clock = std::chrono::steady_clock;
using jpar::CompiledQuery;
using jpar::ExecOptions;
using jpar::Item;
using jpar::JsonFile;
using jpar::StorageManager;
using jpar::StorageMode;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Bench corpus directory; files (and their cache sidecars) are removed
/// on exit.
class BenchDir {
 public:
  BenchDir() {
    std::string tmpl = "/tmp/jpar_bench_storage_XXXXXX";
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
    // Sweep the whole directory: the storage tier leaves .jtape and
    // .<hash>.jcol sidecars next to the data files.
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
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
  }

 private:
  std::string dir_;
};

struct Timed {
  double ms = 0;  // best-of-Repeats wall clock
  uint64_t rows = 0;
  uint64_t tape_hits = 0;
  uint64_t columns_read = 0;
  uint64_t blocks_pruned = 0;
  std::vector<std::string> fingerprint;  // first/last rows, for equality
};

Timed RunMode(const Engine& engine, const CompiledQuery& plan,
              StorageMode mode) {
  ExecOptions exec;
  exec.partitions = 1;
  exec.storage_mode = mode;
  Timed t;
  t.ms = 1e30;
  for (int rep = 0; rep < Repeats(); ++rep) {
    Clock::time_point t0 = Clock::now();
    auto out = engine.Execute(plan, exec);
    Clock::time_point t1 = Clock::now();
    CheckOk(out.status(), "storage bench query");
    t.ms = std::min(t.ms, MsBetween(t0, t1));
    t.rows = out->items.size();
    t.tape_hits = out->stats.tape_hits;
    t.columns_read = out->stats.columns_read;
    t.blocks_pruned = out->stats.blocks_pruned;
    t.fingerprint.clear();
    for (const Item& item : out->items) {
      t.fingerprint.push_back(item.ToJsonString());
    }
  }
  return t;
}

struct QueryResult {
  const char* name;
  Timed cold;
  Timed tape;
  Timed columnar;
};

QueryResult BenchQuery(const Engine& engine, const char* name,
                       const char* query,
                       const RuleOptions& rules = RuleOptions::All()) {
  auto compiled = engine.Compile(query, rules);
  CheckOk(compiled.status(), "compile storage bench query");

  QueryResult r;
  r.name = name;
  r.cold = RunMode(engine, *compiled, StorageMode::kOff);
  // Prime both cache levels, then measure each warm level.
  RunMode(engine, *compiled, StorageMode::kAuto);
  r.tape = RunMode(engine, *compiled, StorageMode::kTape);
  r.columnar = RunMode(engine, *compiled, StorageMode::kAuto);

  if (r.tape.fingerprint != r.cold.fingerprint ||
      r.columnar.fingerprint != r.cold.fingerprint) {
    std::fprintf(stderr, "%s: warm rows differ from cold rows\n", name);
    std::exit(1);
  }
  if (r.tape.tape_hits == 0 || r.columnar.columns_read == 0) {
    std::fprintf(stderr, "%s: warm run did not engage the cache\n", name);
    std::exit(1);
  }
  return r;
}

void Run() {
  BenchDir dir;

  // Unwrapped {metadata, results} documents, NDJSON, on disk.
  SensorDataSpec spec;
  spec.measurements_per_array = 30;
  spec.records_per_file = 64;
  uint64_t target =
      static_cast<uint64_t>(12.0 * 1024 * 1024 * ScaleFactor());
  Collection sensors;
  uint64_t corpus_bytes = 0;
  for (int f = 0; corpus_bytes < target; ++f) {
    std::string text;
    for (std::string& doc : jpar::GenerateUnwrappedDocuments(spec, f)) {
      text += doc;
      text += '\n';
    }
    corpus_bytes += text.size();
    sensors.files.push_back(JsonFile::FromPath(
        dir.Write("sensors_" + std::to_string(f) + ".ndjson", text)));
  }

  // An ascending reading stream: realistic for timestamped telemetry,
  // and the shape where per-block min/max zone maps actually prune.
  Collection readings;
  uint64_t readings_rows =
      static_cast<uint64_t>(200000.0 * ScaleFactor());
  {
    std::string text;
    for (uint64_t i = 0; i < readings_rows; ++i) {
      text += "{\"t\": " + std::to_string(i) +
              ", \"v\": " + std::to_string((i * 37) % 1000) + "}\n";
    }
    readings.files.push_back(
        JsonFile::FromPath(dir.Write("readings.ndjson", text)));
  }

  // Text-heavy event records: a small structural skeleton around a
  // long message payload (log/event streams look like this). Stage 1
  // must scan every byte; the cached tape makes the warm walk cheap.
  Collection events;
  uint64_t events_bytes = 0;
  {
    const char* kWords[] = {"request", "timed", "out", "retrying",
                            "upstream", "shard", "checksum", "verified",
                            "rebalance", "complete", "latency", "budget"};
    int file = 0;
    uint64_t id = 0;
    while (events_bytes < target) {
      std::string text;
      for (int r = 0; r < 500; ++r, ++id) {
        std::string message;
        for (int w = 0; w < 220; ++w) {
          message += kWords[(id + static_cast<uint64_t>(w) * 7) % 12];
          message += ' ';
        }
        text += "{\"id\": " + std::to_string(id) + ", \"level\": \"" +
                (id % 17 == 0 ? "error" : "info") + "\", \"message\": \"" +
                message + "\"}\n";
      }
      events_bytes += text.size();
      events.files.push_back(JsonFile::FromPath(
          dir.Write("events_" + std::to_string(file++) + ".ndjson", text)));
    }
  }

  Engine engine;
  engine.catalog()->RegisterCollection("/sensors", std::move(sensors));
  engine.catalog()->RegisterCollection("/readings", std::move(readings));
  engine.catalog()->RegisterCollection("/events", std::move(events));

  StorageManager::Instance().Clear();

  // 1. Shallow projection over the text-heavy corpus. Cold pays read +
  //    stage 1 over every byte + the walk; tape pays only the walk
  //    (long strings hold no structural positions); columnar reads one
  //    narrow column.
  QueryResult project = BenchQuery(
      engine, "project",
      R"(for $l in collection("/events")("level") return $l)");

  // 2. Touch-all projection: every measurement value materializes.
  QueryResult values = BenchQuery(
      engine, "values",
      R"(for $v in collection("/sensors")("results")()("value") return $v)");

  // 3. Range predicate over the ascending stream: the threshold keeps
  //    the last ~5% of rows, so zone maps prune ~95% of blocks.
  std::string cutoff = std::to_string(readings_rows * 95 / 100);
  std::string zone_query = "for $t in collection(\"/readings\")(\"t\") "
                           "where $t gt " + cutoff + " return $t";
  QueryResult zone =
      BenchQuery(engine, "zone-predicate", zone_query.c_str());

  // 4. A selective SELECT over whole result objects (Q0's date test):
  //    no numeric zone predicate, so every block is read; the scan
  //    filter decides per record whether to decode it.
  const char* kDateSelect = R"(
    for $r in collection("/sensors")("results")()
    let $d := dateTime(data($r("date")))
    where month-from-dateTime($d) eq 12 and day-from-dateTime($d) eq 25
    return $r)";
  QueryResult filter_on = BenchQuery(engine, "select-filter-on", kDateSelect);
  RuleOptions no_filter = RuleOptions::All();
  no_filter.scan_filter = false;
  QueryResult filter_off =
      BenchQuery(engine, "select-filter-off", kDateSelect, no_filter);
  const std::vector<const QueryResult*> results = {
      &project, &values, &zone, &filter_on, &filter_off};

  PrintTableHeader("Warm storage tier (best-of-" +
                       std::to_string(Repeats()) + " wall ms)",
                   {"query", "cold", "tape-warm", "columnar-warm",
                    "tape x", "col x", "pruned"});
  for (const QueryResult* r : results) {
    PrintTableRow({r->name, FormatMs(r->cold.ms), FormatMs(r->tape.ms),
                   FormatMs(r->columnar.ms),
                   std::to_string(r->cold.ms / r->tape.ms),
                   std::to_string(r->cold.ms / r->columnar.ms),
                   std::to_string(r->columnar.blocks_pruned)});
  }

  FILE* out = std::fopen("BENCH_storage_tier.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_storage_tier.json\n");
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"sensor_bytes\": %llu,\n",
               static_cast<unsigned long long>(corpus_bytes));
  std::fprintf(out, "  \"events_bytes\": %llu,\n",
               static_cast<unsigned long long>(events_bytes));
  std::fprintf(out, "  \"readings_rows\": %llu,\n",
               static_cast<unsigned long long>(readings_rows));
  bool first = true;
  for (const QueryResult* r : results) {
    std::fprintf(out, "%s  \"%s\": {\n", first ? "" : ",\n", r->name);
    first = false;
    std::fprintf(out, "    \"rows\": %llu,\n",
                 static_cast<unsigned long long>(r->cold.rows));
    std::fprintf(out, "    \"cold_ms\": %.3f,\n", r->cold.ms);
    std::fprintf(out, "    \"tape_warm_ms\": %.3f,\n", r->tape.ms);
    std::fprintf(out, "    \"columnar_warm_ms\": %.3f,\n", r->columnar.ms);
    std::fprintf(out, "    \"tape_speedup\": %.2f,\n",
                 r->cold.ms / r->tape.ms);
    std::fprintf(out, "    \"columnar_speedup\": %.2f,\n",
                 r->cold.ms / r->columnar.ms);
    std::fprintf(out, "    \"blocks_pruned\": %llu\n  }",
                 static_cast<unsigned long long>(r->columnar.blocks_pruned));
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_storage_tier.json\n");
}

}  // namespace
}  // namespace jparbench

int main(int argc, char** argv) {
  jparbench::InitBenchArgs(argc, argv);
  jparbench::Run();
  return 0;
}
