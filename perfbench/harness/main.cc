// The benchmark harness. run.py drives it in two processes per run:
//
//   perfbench_harness reference --workload W --seed N --out FILE
//     generates the corpus and writes reference answer digests from a
//     sequential partitions=1 in-memory run (kept out of the measured
//     process, so its memory peak does not count as the workload's);
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         --refs FILE --dir DIR [--trace-out FILE]
//     generates the same corpus, runs the workload for S seconds,
//     checks every answer, and prints `note:` lines followed by one
//     JSON result line.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "harness/checker.h"
#include "harness/corpus.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness reference --workload W --seed N "
               "--out FILE\n"
               "       perfbench_harness run --workload W --seed N "
               "--seconds S --trace 0|1 --refs FILE --dir DIR "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

jpar::Status WriteReferences(const std::string& path,
                             const ReferenceDigests& refs) {
  std::ofstream out(path, std::ios::trunc);
  for (size_t v = 0; v < refs.size(); ++v) {
    for (size_t q = 0; q < refs[v].size(); ++q) {
      out << v << ' ' << q << ' ' << refs[v][q] << '\n';
    }
  }
  out.close();
  return out ? jpar::Status::OK()
             : jpar::Status::IOError("cannot write " + path);
}

jpar::Result<ReferenceDigests> ReadReferences(const std::string& path,
                                              int versions) {
  std::ifstream in(path);
  if (!in) return jpar::Status::IOError("cannot read " + path);
  ReferenceDigests refs(static_cast<size_t>(versions),
                        std::vector<uint64_t>(kQueryCount, 0));
  std::vector<std::vector<bool>> seen(
      static_cast<size_t>(versions), std::vector<bool>(kQueryCount, false));
  size_t v = 0, q = 0;
  uint64_t digest = 0;
  while (in >> v >> q >> digest) {
    if (v >= refs.size() || q >= static_cast<size_t>(kQueryCount)) {
      return jpar::Status::InvalidArgument("bad reference line in " + path);
    }
    refs[v][q] = digest;
    seen[v][q] = true;
  }
  for (const auto& row : seen) {
    for (bool s : row) {
      if (!s) return jpar::Status::InvalidArgument("incomplete " + path);
    }
  }
  return refs;
}

void PrintResult(const AnswerChecker& checker, const Report& report) {
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, metric] : report.metrics) {
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode");
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      return Usage("flags take the form --name value");
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  auto flag = [&flags](const char* name) -> const std::string* {
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second;
  };

  RunConfig config;
  if (flag("workload") == nullptr || !KnownWorkload(*flag("workload"))) {
    return Usage("--workload must be paper_threaded, service_churn or "
                 "dist_cluster");
  }
  config.workload = *flag("workload");
  if (flag("seed") == nullptr) return Usage("missing --seed");
  config.seed = std::strtoull(flag("seed")->c_str(), nullptr, 10);

  const auto gen_start = std::chrono::steady_clock::now();
  const Corpus corpus = MakeCorpus(config.seed);
  const double gen_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - gen_start)
                           .count();
  const int versions = CorpusVersions(config.workload);

  if (mode == "reference") {
    if (flag("out") == nullptr) return Usage("missing --out");
    auto refs = ComputeReferences(corpus, versions);
    jpar::Status st = refs.ok() ? WriteReferences(*flag("out"), *refs)
                                : refs.status();
    if (!st.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") return Usage("mode must be reference or run");

  if (flag("seconds") == nullptr || flag("trace") == nullptr ||
      flag("refs") == nullptr || flag("dir") == nullptr) {
    return Usage("run needs --seconds, --trace, --refs and --dir");
  }
  config.seconds = std::atof(flag("seconds")->c_str());
  if (!(config.seconds > 0)) return Usage("--seconds must be > 0");
  config.trace = *flag("trace") == "1";
  config.data_dir = *flag("dir");
  if (flag("trace-out") != nullptr) config.trace_out = *flag("trace-out");

  auto refs = ReadReferences(*flag("refs"), versions);
  if (!refs.ok()) {
    std::fprintf(stderr, "%s\n", refs.status().ToString().c_str());
    return 1;
  }
  AnswerChecker checker(std::move(refs).ValueOrDie());
  Report report;
  jpar::Status st = RunWorkload(config, corpus, &checker, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "workload %s failed: %s\n", config.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (config.trace) report.Set("harness.gen_s", gen_s, "s");
  report.notes.push_back("corpus: " + std::to_string(corpus.files.size()) +
                         " files, " + std::to_string(corpus.Bytes()) +
                         " bytes, " + std::to_string(corpus.churned.size()) +
                         " churned");
  PrintResult(checker, report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
