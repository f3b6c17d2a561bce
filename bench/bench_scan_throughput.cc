// Scan-throughput tracking bench (DESIGN.md §9). Measures, on the
// NOAA-style NDJSON corpus:
//
//   1. stage-1 structural index build GB/s for every kernel the host
//      supports (SWAR always; SSE2/AVX2 when present),
//   2. projected-scan GB/s for the scalar byte-loop vs the indexed
//      pipeline, on a materialize-heavy and a SkipValue-heavy path,
//   3. filter-before-build (DESIGN.md §9): projecting every measurement
//      object against the same projection with the engine's own scan
//      filter for `dataType eq "TMIN"` (about 25% kept) and for Q0's
//      date predicate, which build only the objects that pass,
//   4. morsel-parallel scaling of one large file: per-morsel times are
//      measured sequentially and LPT-scheduled onto 1/2/4/8 modeled
//      cores (the reproduction host has one core, same convention as
//      Fig. 17), next to the real threaded wall-clock (one warm-up,
//      best of 5) for the record.
//
// Besides the stdout tables it writes BENCH_scan_throughput.json to
// the current directory (run_benches.sh runs from the repo root) so
// the perf trajectory is machine-readable across commits.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "json/projecting_reader.h"
#include "json/structural_index.h"

namespace jparbench {
namespace {

using jpar::PathStep;
using jpar::ProjectJsonStream;
using jpar::ScanMode;
using jpar::SimdLevel;
using jpar::SimdLevelName;
using jpar::StructuralIndex;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string MakeCorpus(uint64_t target_bytes) {
  SensorDataSpec spec;
  spec.measurements_per_array = 30;
  spec.records_per_file = 64;
  std::string corpus;
  for (int file = 0; corpus.size() < target_bytes; ++file) {
    for (std::string& doc : jpar::GenerateUnwrappedDocuments(spec, file)) {
      corpus += doc;
      corpus += '\n';
    }
  }
  return corpus;
}

double IndexBuildGbps(const std::string& corpus, SimdLevel level) {
  double best = 0;
  for (int rep = 0; rep < Repeats(); ++rep) {
    Clock::time_point t0 = Clock::now();
    StructuralIndex idx = StructuralIndex::Build(corpus, level);
    Clock::time_point t1 = Clock::now();
    if (idx.size() != corpus.size()) {
      std::fprintf(stderr, "index size mismatch\n");
      std::exit(1);
    }
    double gbps = static_cast<double>(corpus.size()) / 1e9 / Seconds(t0, t1);
    best = std::max(best, gbps);
  }
  return best;
}

/// Best-of-Repeats() GB/s of one projection. With `filter`, each rep
/// scans with a fresh copy (an empty verdict memo, as a query starts).
double ScanGbps(const std::string& corpus, const std::vector<PathStep>& steps,
                ScanMode mode, const jpar::ScanFilter* filter = nullptr) {
  double best = 0;
  for (int rep = 0; rep < Repeats(); ++rep) {
    size_t items = 0;
    std::optional<jpar::ScanFilter> fresh;
    if (filter != nullptr) fresh = *filter;
    Clock::time_point t0 = Clock::now();
    jpar::Status st = jpar::ProjectJsonStreamWithIndex(
        corpus, steps, nullptr, 0,
        [&items](jpar::Item) {
          ++items;
          return jpar::Status::OK();
        },
        nullptr, nullptr, mode, fresh ? &*fresh : nullptr);
    Clock::time_point t1 = Clock::now();
    CheckOk(st, "scan");
    if (items == 0) {
      std::fprintf(stderr, "scan emitted nothing\n");
      std::exit(1);
    }
    double gbps = static_cast<double>(corpus.size()) / 1e9 / Seconds(t0, t1);
    best = std::max(best, gbps);
  }
  return best;
}

/// The scan filter the engine compiles for `where <predicate>` over the
/// measurement objects, as a reader-level ScanFilter.
jpar::ScanFilter EngineScanFilter(const std::string& let_where) {
  jpar::Engine engine;
  auto compiled = engine.Compile(
      "for $r in collection(\"/c\")(\"results\")() " + let_where +
      " return $r");
  CheckOk(compiled.status(), "compile filter query");
  const jpar::PNode* leaf = compiled->physical.root.get();
  while (leaf->input != nullptr) leaf = leaf->input.get();
  if (leaf->scan.filter == nullptr) {
    std::fprintf(stderr, "no scan filter for: %s\n", let_where.c_str());
    std::exit(1);
  }
  jpar::ScanFilter filter;
  filter.keys = leaf->scan.filter_keys;
  filter.keep = [eval = leaf->scan.filter, ctx = jpar::EvalContext{},
                 row = jpar::Tuple(1)](const jpar::Item& slim) mutable {
    row[0] = slim;
    jpar::Result<jpar::Item> pass = eval->Eval(row, &ctx);
    return !pass.ok() || pass->boolean_value();
  };
  return filter;
}

/// Newline-aligned morsel boundaries, mirroring the executor's split.
std::vector<std::pair<size_t, size_t>> SplitMorsels(const std::string& text,
                                                    size_t morsel_bytes) {
  std::vector<std::pair<size_t, size_t>> out;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.size();
    size_t target = begin + morsel_bytes - 1;
    if (target < text.size()) {
      size_t nl = text.find('\n', target);
      end = nl == std::string::npos ? text.size() : nl + 1;
    }
    out.push_back({begin, end});
    begin = end;
  }
  return out;
}

double ScanRange(const std::string& text, size_t begin, size_t end,
                 const std::vector<PathStep>& steps) {
  std::string_view view(text.data() + begin, end - begin);
  size_t items = 0;
  Clock::time_point t0 = Clock::now();
  jpar::Status st = ProjectJsonStream(
      view, steps,
      [&items](jpar::Item) {
        ++items;
        return jpar::Status::OK();
      },
      nullptr, nullptr, ScanMode::kIndexed);
  Clock::time_point t1 = Clock::now();
  CheckOk(st, "morsel scan");
  return Seconds(t0, t1);
}

/// LPT (longest processing time first) list scheduling of task times
/// onto `cores` workers; returns the makespan.
double LptMakespan(std::vector<double> tasks, int cores) {
  std::sort(tasks.begin(), tasks.end(), std::greater<double>());
  std::priority_queue<double, std::vector<double>, std::greater<double>> load;
  for (int i = 0; i < cores; ++i) load.push(0.0);
  for (double t : tasks) {
    double least = load.top();
    load.pop();
    load.push(least + t);
  }
  double makespan = 0;
  while (!load.empty()) {
    makespan = std::max(makespan, load.top());
    load.pop();
  }
  return makespan;
}

/// Real threaded wall-clock: workers pull morsels off an atomic queue,
/// exactly like Executor::ExecDataScan.
double ThreadedWallClock(const std::string& text,
                         const std::vector<std::pair<size_t, size_t>>& morsels,
                         const std::vector<PathStep>& steps, int threads) {
  std::atomic<size_t> next{0};
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      while (true) {
        size_t t = next.fetch_add(1);
        if (t >= morsels.size()) break;
        ScanRange(text, morsels[t].first, morsels[t].second, steps);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return Seconds(t0, Clock::now());
}

void Run() {
  uint64_t target =
      static_cast<uint64_t>(8.0 * 1024 * 1024 * ScaleFactor());
  std::string corpus = MakeCorpus(target);
  double gb = static_cast<double>(corpus.size()) / 1e9;

  // Q0-style selection: project one shallow field, skip the big
  // "results" arrays — the SkipValue-heavy shape the index targets.
  std::vector<PathStep> skip_heavy = {PathStep::Key("metadata"),
                                      PathStep::Key("count")};
  // Materialize-heavy: touch every measurement date.
  std::vector<PathStep> touch_all = {PathStep::Key("results"),
                                     PathStep::KeysOrMembers(),
                                     PathStep::Key("date")};

  PrintTableHeader("Stage-1 index build", {"kernel", "GB/s"});
  std::vector<std::pair<std::string, double>> build;
  for (SimdLevel level : jpar::SupportedSimdLevels()) {
    double gbps = IndexBuildGbps(corpus, level);
    build.push_back({SimdLevelName(level), gbps});
    PrintTableRow({SimdLevelName(level), std::to_string(gbps)});
  }

  PrintTableHeader("Projected scan (skip-heavy: metadata.count)",
                   {"mode", "GB/s"});
  double scan_scalar = ScanGbps(corpus, skip_heavy, ScanMode::kScalar);
  double scan_indexed = ScanGbps(corpus, skip_heavy, ScanMode::kIndexed);
  PrintTableRow({"scalar", std::to_string(scan_scalar)});
  PrintTableRow({"indexed", std::to_string(scan_indexed)});

  PrintTableHeader("Projected scan (touch-all: results()date)",
                   {"mode", "GB/s"});
  double touch_scalar = ScanGbps(corpus, touch_all, ScanMode::kScalar);
  double touch_indexed = ScanGbps(corpus, touch_all, ScanMode::kIndexed);
  PrintTableRow({"scalar", std::to_string(touch_scalar)});
  PrintTableRow({"indexed", std::to_string(touch_indexed)});

  // Filter before build over every measurement object (indexed).
  std::vector<PathStep> objects = {PathStep::Key("results"),
                                   PathStep::KeysOrMembers()};
  jpar::ScanFilter tmin = EngineScanFilter("where $r(\"dataType\") eq \"TMIN\"");
  jpar::ScanFilter q0_date = EngineScanFilter(
      "let $d := dateTime(data($r(\"date\"))) "
      "where year-from-dateTime($d) ge 2003 "
      "and month-from-dateTime($d) eq 12 and day-from-dateTime($d) eq 25");
  PrintTableHeader("Filter before build (results() objects, indexed)",
                   {"projection", "GB/s"});
  double build_all = ScanGbps(corpus, objects, ScanMode::kIndexed);
  double filter_tmin = ScanGbps(corpus, objects, ScanMode::kIndexed, &tmin);
  double filter_q0 = ScanGbps(corpus, objects, ScanMode::kIndexed, &q0_date);
  PrintTableRow({"build every object", std::to_string(build_all)});
  PrintTableRow({"filter dataType eq TMIN", std::to_string(filter_tmin)});
  PrintTableRow({"filter Q0 date", std::to_string(filter_q0)});

  // Morsel scaling over one large "file" (the whole corpus), 256 KiB
  // morsels so even the scaled-down corpus yields a few dozen tasks.
  std::vector<std::pair<size_t, size_t>> morsels =
      SplitMorsels(corpus, 256 * 1024);
  std::vector<double> task_times;
  task_times.reserve(morsels.size());
  for (const auto& [begin, end] : morsels) {
    double best = ScanRange(corpus, begin, end, skip_heavy);
    for (int rep = 1; rep < Repeats(); ++rep) {
      best = std::min(best, ScanRange(corpus, begin, end, skip_heavy));
    }
    task_times.push_back(best);
  }
  const int kThreads[] = {1, 2, 4, 8};
  double base = LptMakespan(task_times, 1);
  PrintTableHeader("Morsel scaling (modeled LPT makespan)",
                   {"threads", "GB/s", "speedup", "real wall s"});
  std::vector<double> morsel_gbps, morsel_speedup, morsel_real;
  for (int t : kThreads) {
    double makespan = LptMakespan(task_times, t);
    double gbps = gb / makespan;
    // One warm-up, then the best of 5: a single cold sample mostly
    // measures thread start-up and page faults.
    ThreadedWallClock(corpus, morsels, skip_heavy, t);
    double real = ThreadedWallClock(corpus, morsels, skip_heavy, t);
    for (int rep = 1; rep < 5; ++rep) {
      real = std::min(real, ThreadedWallClock(corpus, morsels, skip_heavy, t));
    }
    morsel_gbps.push_back(gbps);
    morsel_speedup.push_back(base / makespan);
    morsel_real.push_back(real);
    PrintTableRow({std::to_string(t), std::to_string(gbps),
                   std::to_string(base / makespan), std::to_string(real)});
  }

  FILE* out = std::fopen("BENCH_scan_throughput.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scan_throughput.json\n");
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"corpus_bytes\": %zu,\n", corpus.size());
  std::fprintf(out, "  \"active_kernel\": \"%s\",\n",
               SimdLevelName(jpar::ActiveSimdLevel()));
  std::fprintf(out, "  \"index_build_gbps\": {");
  for (size_t i = 0; i < build.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %.3f", i ? ", " : "",
                 build[i].first.c_str(), build[i].second);
  }
  std::fprintf(out, "},\n");
  std::fprintf(out,
               "  \"scan_skip_heavy_gbps\": {\"scalar\": %.3f, "
               "\"indexed\": %.3f},\n",
               scan_scalar, scan_indexed);
  std::fprintf(out,
               "  \"scan_touch_all_gbps\": {\"scalar\": %.3f, "
               "\"indexed\": %.3f},\n",
               touch_scalar, touch_indexed);
  std::fprintf(out,
               "  \"filter_before_build_gbps\": {\"build_all\": %.3f, "
               "\"filter_tmin\": %.3f, \"filter_q0_date\": %.3f},\n",
               build_all, filter_tmin, filter_q0);
  std::fprintf(out, "  \"morsel_scaling\": {\n    \"threads\": [1, 2, 4, 8],\n");
  std::fprintf(out, "    \"modeled_gbps\": [");
  for (size_t i = 0; i < morsel_gbps.size(); ++i) {
    std::fprintf(out, "%s%.3f", i ? ", " : "", morsel_gbps[i]);
  }
  std::fprintf(out, "],\n    \"modeled_speedup\": [");
  for (size_t i = 0; i < morsel_speedup.size(); ++i) {
    std::fprintf(out, "%s%.3f", i ? ", " : "", morsel_speedup[i]);
  }
  std::fprintf(out, "],\n    \"real_wall_seconds\": [");
  for (size_t i = 0; i < morsel_real.size(); ++i) {
    std::fprintf(out, "%s%.4f", i ? ", " : "", morsel_real[i]);
  }
  std::fprintf(out, "]\n  }\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_scan_throughput.json\n");
}

}  // namespace
}  // namespace jparbench

int main(int argc, char** argv) {
  jparbench::InitBenchArgs(argc, argv);
  jparbench::Run();
  return 0;
}
