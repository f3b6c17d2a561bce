#include "harness/layer_probes.h"

#include <chrono>
#include <filesystem>

#include "bench/queries.h"
#include "harness/sample_stats.h"
#include "json/binary_serde.h"
#include "json/projecting_reader.h"
#include "json/structural_index.h"
#include "jsoniq/parser.h"
#include "storage/storage_tier.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Each probe repeats its measurement this often and keeps the median.
constexpr int kProbeReps = 5;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

const jpar::PNode* FirstScan(const jpar::PNode* node) {
  if (node == nullptr) return nullptr;
  if (node->kind == jpar::PNode::Kind::kPipeline && node->input == nullptr &&
      node->scan.kind == jpar::ScanDesc::Kind::kDataScan) {
    return node;
  }
  for (const jpar::PNodePtr& child : {node->input, node->left, node->right}) {
    if (const jpar::PNode* found = FirstScan(child.get())) return found;
  }
  return nullptr;
}

/// MB/s of ProjectJsonStream over every file, with its ProjectionStats.
jpar::Status ProjectAll(const Corpus& corpus,
                        const std::vector<jpar::PathStep>& path,
                        double* mbps, jpar::ProjectionStats* pstats) {
  std::vector<double> rates;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    jpar::ProjectionStats stats;
    const auto start = Clock::now();
    for (const auto& file : corpus.files) {
      JPAR_RETURN_NOT_OK(jpar::ProjectJsonStream(
          *file, path, [](jpar::Item) { return jpar::Status::OK(); },
          &stats));
    }
    rates.push_back(static_cast<double>(stats.bytes_scanned) / 1e3 /
                    MsSince(start));
    *pstats = stats;
  }
  *mbps = Median(rates);
  return jpar::Status::OK();
}

}  // namespace

std::vector<jpar::PathStep> FirstScanSteps(const jpar::CompiledQuery& query) {
  const jpar::PNode* scan = FirstScan(query.physical.root.get());
  return scan != nullptr ? scan->scan.steps : std::vector<jpar::PathStep>();
}

jpar::Status ProbeFrontEnd(const jpar::Engine& engine, Tracer* tracer,
                           Report* report) {
  tracer->set_active(true);
  const uint64_t req = tracer->NewRequest();
  std::vector<double> parse_ms, compile_ms;
  uint64_t rules_fired = 0;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    double parse = 0, compile = 0;
    for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
      auto start = Clock::now();
      {
        Tracer::Scope span(tracer, "jsoniq.parse", req, 0);
        auto ast = jpar::ParseQuery(q.text);
        if (!ast.ok()) return ast.status();
      }
      parse += MsSince(start);
      start = Clock::now();
      Tracer::Scope span(tracer, "algebra.compile", req, 0);
      auto compiled = engine.Compile(q.text);
      if (!compiled.ok()) return compiled.status();
      compile += MsSince(start);
      if (rep == 0) rules_fired += compiled->fired_rules.size();
    }
    parse_ms.push_back(parse / std::size(jparbench::kAllQueries));
    compile_ms.push_back(compile / std::size(jparbench::kAllQueries));
  }
  tracer->set_active(false);
  const double parse = Median(parse_ms);
  report->Set("jsoniq.parse_ms", parse, "ms");
  // Engine::Compile parses too; the algebra share is the rest.
  report->Set("algebra.compile_ms", Median(compile_ms) - parse, "ms");
  report->Set("algebra.rules_fired", static_cast<double>(rules_fired),
              "count");
  return jpar::Status::OK();
}

jpar::Status ProbeJson(const Corpus& corpus,
                       const std::vector<jpar::PathStep>& object_path,
                       const std::vector<jpar::PathStep>& date_path,
                       Tracer* tracer, Report* report) {
  tracer->set_active(true);
  const uint64_t req = tracer->NewRequest();

  std::vector<double> stage1;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Tracer::Scope span(tracer, "json.stage1", req, 0);
    const auto start = Clock::now();
    for (const auto& file : corpus.files) {
      jpar::StructuralIndex index = jpar::StructuralIndex::Build(*file);
      if (index.size() != file->size()) {
        return jpar::Status::Internal("structural index size mismatch");
      }
    }
    stage1.push_back(static_cast<double>(corpus.Bytes()) / 1e6 /
                     MsSince(start));
  }
  report->Set("json.stage1_gbps", Median(stage1), "GB/s");

  double obj_mbps = 0, date_mbps = 0;
  jpar::ProjectionStats obj_stats, date_stats;
  {
    Tracer::Scope span(tracer, "json.stage2_obj", req, 0);
    JPAR_RETURN_NOT_OK(ProjectAll(corpus, object_path, &obj_mbps, &obj_stats));
  }
  {
    Tracer::Scope span(tracer, "json.stage2_date", req, 0);
    JPAR_RETURN_NOT_OK(ProjectAll(corpus, date_path, &date_mbps, &date_stats));
  }
  report->Set("json.stage2_obj_mbps", obj_mbps, "MB/s");
  report->Set("json.stage2_date_mbps", date_mbps, "MB/s");
  report->Set("json.items_emitted",
              static_cast<double>(obj_stats.items_emitted +
                                  date_stats.items_emitted),
              "count");
  report->Set("json.bytes_materialized",
              static_cast<double>(obj_stats.bytes_materialized +
                                  date_stats.bytes_materialized),
              "bytes");

  // Q2's join inputs: every result object, round-tripped through the
  // binary format the exchange and the wire use.
  std::vector<jpar::Item> objects;
  for (const auto& file : corpus.files) {
    JPAR_RETURN_NOT_OK(jpar::ProjectJsonStream(
        *file, object_path, [&objects](jpar::Item item) {
          objects.push_back(std::move(item));
          return jpar::Status::OK();
        }));
  }
  std::vector<double> serde;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Tracer::Scope span(tracer, "json.serde", req, 0);
    const auto start = Clock::now();
    uint64_t bytes = 0;
    for (const jpar::Item& item : objects) {
      const std::string wire = jpar::SerializeItem(item);
      auto back = jpar::DeserializeItem(wire);
      if (!back.ok()) return back.status();
      bytes += wire.size();
    }
    serde.push_back(static_cast<double>(bytes) / 1e3 / MsSince(start));
  }
  report->Set("json.serde_mbps", Median(serde), "MB/s");
  tracer->set_active(false);
  return jpar::Status::OK();
}

jpar::Status ProbeStorage(const Corpus& corpus, const std::string& probe_dir,
                          const std::vector<std::string>& column_files,
                          const std::string& column_path, Tracer* tracer,
                          Report* report) {
  tracer->set_active(true);
  const uint64_t req = tracer->NewRequest();
  jpar::StorageManager& storage = jpar::StorageManager::Instance();
  const jpar::StorageConfig cfg;

  // Fresh paths: nothing in memory, no sidecar on disk.
  ChurnDirectory dir(&corpus, probe_dir);
  JPAR_RETURN_NOT_OK(dir.Create());
  std::vector<double> cold, warm;
  for (size_t i = 0; i < corpus.files.size(); ++i) {
    const std::string path = dir.FilePath(static_cast<int>(i));
    for (std::vector<double>* samples : {&cold, &warm}) {
      Tracer::Scope span(tracer, "storage.acquire_tape", req, 0);
      const auto start = Clock::now();
      auto tape = storage.AcquireTape(path, cfg);
      samples->push_back(MsSince(start));
      if (!tape.ok()) return tape.status();
      if (tape->hit != (samples == &warm)) {
        return jpar::Status::Internal("unexpected tape cache state for " +
                                      path);
      }
    }
  }
  dir.Remove();

  std::vector<double> column;
  uint64_t found = 0;
  for (const std::string& path : column_files) {
    Tracer::Scope span(tracer, "storage.get_column", req, 0);
    const auto start = Clock::now();
    found += storage.GetColumn(path, column_path, cfg) != nullptr;
    column.push_back(MsSince(start));
  }
  tracer->set_active(false);
  report->Set("storage.acquire_tape_cold_ms", Median(cold), "ms");
  report->Set("storage.acquire_tape_warm_ms", Median(warm), "ms");
  report->Set("storage.get_column_ms", Median(column), "ms");
  report->notes.push_back("storage.get_column_ms: " + std::to_string(found) +
                          " of " + std::to_string(column_files.size()) +
                          " files had a column for " + column_path);
  return jpar::Status::OK();
}

}  // namespace perfbench
