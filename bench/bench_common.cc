#include "bench/bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "json/parser.h"

namespace jparbench {

namespace {
// CLI overrides (InitBenchArgs); 0 = not set, fall back to the env.
double g_scale_override = 0;
int g_repeats_override = 0;
}  // namespace

void InitBenchArgs(int argc, char** argv) {
  auto flag_value = [&](int* i, const char* flag) -> const char* {
    size_t len = std::strlen(flag);
    if (std::strncmp(argv[*i], flag, len) != 0) return nullptr;
    if (argv[*i][len] == '=') return argv[*i] + len + 1;
    if (argv[*i][len] == '\0' && *i + 1 < argc) return argv[++*i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(&i, "--scale")) {
      double s = std::atof(v);
      if (s <= 0) {
        std::fprintf(stderr, "--scale must be > 0, got '%s'\n", v);
        std::exit(2);
      }
      g_scale_override = s;
    } else if (const char* v2 = flag_value(&i, "--repeats")) {
      int r = std::atoi(v2);
      if (r < 1) {
        std::fprintf(stderr, "--repeats must be >= 1, got '%s'\n", v2);
        std::exit(2);
      }
      g_repeats_override = r;
    } else {
      std::fprintf(stderr,
                   "unknown bench flag '%s'\n"
                   "usage: %s [--scale X] [--repeats N]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
}

double ScaleFactor() {
  if (g_scale_override > 0) return g_scale_override;
  static const double scale = [] {
    const char* env = std::getenv("JPAR_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

int Repeats() {
  if (g_repeats_override > 0) return g_repeats_override;
  static const int repeats = [] {
    const char* env = std::getenv("JPAR_BENCH_REPEATS");
    if (env == nullptr) return 3;
    int v = std::atoi(env);
    return v > 0 ? v : 3;
  }();
  return repeats;
}

const Collection& SensorData(uint64_t base_bytes, int measurements_per_array,
                             uint64_t seed) {
  struct Key {
    uint64_t bytes;
    int mpa;
    uint64_t seed;
    bool operator<(const Key& o) const {
      if (bytes != o.bytes) return bytes < o.bytes;
      if (mpa != o.mpa) return mpa < o.mpa;
      return seed < o.seed;
    }
  };
  static std::map<Key, Collection>& cache = *new std::map<Key, Collection>();
  uint64_t target = static_cast<uint64_t>(
      static_cast<double>(base_bytes) * ScaleFactor());
  Key key{target, measurements_per_array, seed};
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  jpar::SensorDataSpec spec;
  spec.measurements_per_array = measurements_per_array;
  spec.seed = seed;
  spec.num_stations = 64;
  // Group-key cardinality must shrink with the scaled dataset the way
  // the paper's 15-year range relates to 803 GB, or exchange volume
  // (partitions x groups) dwarfs the scan; two years keeps the ratio
  // sane at bench scales.
  spec.start_year = 2013;
  spec.end_year = 2014;
  // Keep at least ~128 files so every partition of a 9-node x 4 cluster
  // has several files (the paper: 80k files for 36 partitions).
  uint64_t per_record = 40 + static_cast<uint64_t>(measurements_per_array) *
                                 105;
  uint64_t per_file_target = target / 128;
  if (per_file_target < 16 * 1024) per_file_target = 16 * 1024;
  if (per_file_target > 512 * 1024) per_file_target = 512 * 1024;
  spec.records_per_file =
      static_cast<int>(per_file_target / per_record) + 1;
  spec = jpar::SpecForBytes(spec, target);
  return cache.emplace(key, jpar::GenerateSensorCollection(spec))
      .first->second;
}

Engine MakeSensorEngine(const Collection& data, RuleOptions rules,
                        int partitions, int partitions_per_node,
                        ExprMode expr_mode, bool use_threads) {
  EngineOptions options;
  options.rules = rules;
  options.exec.partitions = partitions;
  options.exec.partitions_per_node = partitions_per_node;
  options.exec.expr_mode = expr_mode;
  options.exec.use_threads = use_threads;
  // The paper's cluster interconnect is fast relative to its
  // disk-bound scans; model 10 Gbps so scaled-down datasets keep a
  // comparable compute:network ratio.
  options.exec.network_gbps = 10.0;
  Engine engine(options);
  engine.catalog()->RegisterCollection("/sensors", data);
  return engine;
}

Measurement RunQuery(const Engine& engine, const char* query) {
  Measurement m;
  auto compiled = engine.Compile(query);
  CheckOk(compiled.status(), "compile");
  for (int i = 0; i < Repeats(); ++i) {
    auto result = engine.Execute(*compiled);
    CheckOk(result.status(), "execute");
    m.real_ms += result->stats.real_ms;
    m.makespan_ms += result->stats.makespan_ms;
    m.result_rows = result->stats.result_rows;
    if (result->stats.peak_retained_bytes > m.peak_bytes) {
      m.peak_bytes = result->stats.peak_retained_bytes;
    }
    m.spill_runs = result->stats.spill_runs;
    m.spill_bytes = result->stats.spill_bytes_written;
    m.spill_merge_passes = result->stats.spill_merge_passes;
    m.pipeline_bytes = 0;
    for (const jpar::StageStats& s : result->stats.stages) {
      if (s.max_tuple_bytes > m.max_tuple_bytes) {
        m.max_tuple_bytes = s.max_tuple_bytes;
      }
      m.pipeline_bytes += s.pipeline_bytes;
    }
  }
  m.real_ms /= Repeats();
  m.makespan_ms /= Repeats();
  return m;
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const std::string& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%16s", "----");
  std::printf("\n");
  std::fflush(stdout);  // keep partial tables visible through pipes
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%16s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatMs(double ms) {
  char buf[32];
  if (ms >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ms / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fms", ms);
  }
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  } else if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(bytes) / (1024.0 * 1024));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "B", bytes);
  }
  return buf;
}

void CheckOk(const jpar::Status& status, const char* context) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench failure (%s): %s\n", context,
                 status.ToString().c_str());
    std::exit(1);
  }
}

void UpdateBenchJsonSection(const std::string& path,
                            const std::string& section_name,
                            const std::string& section_json) {
  // Preserve every other section of the shared file; a corrupt or
  // missing file degrades to a fresh single-section object.
  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      auto doc = jpar::ParseJson(buf.str());
      if (doc.ok() && doc->is_object()) {
        for (const jpar::ObjectField& f : doc->object()) {
          if (f.key == section_name) continue;
          sections.emplace_back(f.key, f.value.ToJsonString());
        }
      }
    }
  }
  sections.emplace_back(section_name, section_json);
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second;
    out << (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

}  // namespace jparbench
