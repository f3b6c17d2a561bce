#ifndef PERFBENCH_HARNESS_LAYER_PROBES_H_
#define PERFBENCH_HARNESS_LAYER_PROBES_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "harness/corpus.h"
#include "harness/tracer.h"
#include "harness/workloads.h"

namespace perfbench {

// Per-layer probes for the traced run: each times calls into one
// module's public functions from outside, after the timed window.

/// Scan steps of the first DATASCAN in a compiled plan (empty if none).
std::vector<jpar::PathStep> FirstScanSteps(const jpar::CompiledQuery& query);

/// jsoniq.parse_ms (ParseQuery), algebra.compile_ms (Engine::Compile
/// minus parse) per query, and algebra.rules_fired over the five queries.
jpar::Status ProbeFrontEnd(const jpar::Engine& engine, Tracer* tracer,
                           Report* report);

/// json.stage1_gbps (StructuralIndex::Build over every file),
/// json.stage2_obj_mbps / json.stage2_date_mbps (ProjectJsonStream over
/// the results-object and date paths), their ProjectionStats totals, and
/// json.serde_mbps (SerializeItem/DeserializeItem over the result
/// objects Q2 joins).
jpar::Status ProbeJson(const Corpus& corpus,
                       const std::vector<jpar::PathStep>& object_path,
                       const std::vector<jpar::PathStep>& date_path,
                       Tracer* tracer, Report* report);

/// storage.acquire_tape_cold_ms / _warm_ms per file (AcquireTape on a
/// fresh copy of the corpus under `probe_dir`), and storage.get_column_ms
/// per file (GetColumn on `column_files`, which queries have warmed).
jpar::Status ProbeStorage(const Corpus& corpus, const std::string& probe_dir,
                          const std::vector<std::string>& column_files,
                          const std::string& column_path, Tracer* tracer,
                          Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYER_PROBES_H_
