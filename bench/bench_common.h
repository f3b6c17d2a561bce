#ifndef JPAR_BENCH_BENCH_COMMON_H_
#define JPAR_BENCH_BENCH_COMMON_H_

// Shared infrastructure for the figure/table reproduction benches.
//
// Scaling: the paper's datasets (400 MB .. 803 GB) are scaled down so
// every bench completes in seconds on one core; the quantities compared
// (ratios between systems/configurations, speed-up and scale-up curves)
// are scale-free. Set JPAR_BENCH_SCALE (a float, default 1.0) to grow
// or shrink all datasets proportionally.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"

namespace jparbench {

using jpar::Collection;
using jpar::Engine;
using jpar::EngineOptions;
using jpar::ExprMode;
using jpar::QueryOutput;
using jpar::RuleOptions;
using jpar::SensorDataSpec;

/// Parses bench command-line flags, overriding the corresponding env
/// vars: `--scale X` / `--scale=X` (JPAR_BENCH_SCALE) and `--repeats N`
/// (JPAR_BENCH_REPEATS). Call first in main; unknown flags abort with a
/// usage message so typos don't silently run at default scale.
void InitBenchArgs(int argc, char** argv);

/// Global dataset scale factor from JPAR_BENCH_SCALE (default 1.0).
double ScaleFactor();

/// Repetitions per measurement from JPAR_BENCH_REPEATS (default 3; the
/// paper uses 5 runs and reports the average).
int Repeats();

/// Builds (and memoizes per process) a sensor collection of roughly
/// `base_bytes * ScaleFactor()` bytes.
const Collection& SensorData(uint64_t base_bytes,
                             int measurements_per_array = 30,
                             uint64_t seed = 42);

/// An engine with the given rule configuration and parallelism, with
/// the sensor collection registered as "/sensors".
Engine MakeSensorEngine(const Collection& data, RuleOptions rules,
                        int partitions = 1, int partitions_per_node = 4,
                        ExprMode expr_mode = ExprMode::kAuto,
                        bool use_threads = false);

/// Result of a repeated measurement.
struct Measurement {
  double real_ms = 0;       // average wall-clock per run
  double makespan_ms = 0;   // average simulated-parallel time per run
  uint64_t result_rows = 0;
  uint64_t peak_bytes = 0;
  uint64_t max_tuple_bytes = 0;
  uint64_t pipeline_bytes = 0;  // frame bytes between operators
  // Memory-governed spilling (one run's worth; all 0 unless the engine
  // ran with ExecOptions::spill == kEnabled and actually spilled).
  uint64_t spill_runs = 0;
  uint64_t spill_bytes = 0;
  uint64_t spill_merge_passes = 0;
};

/// Runs `query` Repeats() times and averages.
Measurement RunQuery(const Engine& engine, const char* query);

/// stdout table helpers (fixed-width, paper-style).
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);
std::string FormatMs(double ms);
std::string FormatBytes(uint64_t bytes);

/// Fails the process with a message when a bench hits an error (benches
/// are not tests, but must not silently print garbage).
void CheckOk(const jpar::Status& status, const char* context);

/// Read-modify-writes one section of a shared JSON results file: the
/// file holds a single top-level object, `section_json` (a complete
/// JSON value) replaces or appends the `section_name` key, and every
/// other key is preserved. Lets several bench binaries accumulate into
/// one artifact (e.g. BENCH_expr_bytecode.json).
void UpdateBenchJsonSection(const std::string& path,
                            const std::string& section_name,
                            const std::string& section_json);

}  // namespace jparbench

#endif  // JPAR_BENCH_BENCH_COMMON_H_
