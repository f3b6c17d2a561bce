#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness/checker.h"
#include "harness/corpus.h"

namespace perfbench {

/// The paper's five queries, in round-robin order.
inline constexpr int kQueryCount = 5;

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the metrics of its mode (end-to-end when
/// untraced, per-layer when traced), notes on metrics that are zero by
/// construction, and the answer tally.
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for path-backed data; must not exist yet.
  std::string data_dir;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
};

bool KnownWorkload(const std::string& name);

/// Corpus versions a workload reads: 2 for service_churn, else 1.
int CorpusVersions(const std::string& workload);

/// Reference digests from a sequential partitions=1 in-memory run over
/// every corpus version the workload reads.
jpar::Result<ReferenceDigests> ComputeReferences(const Corpus& corpus,
                                                 int versions);

/// Runs one workload for config.seconds and fills *report. Every answer
/// goes through *checker. Errors only when the harness itself cannot
/// proceed (e.g. a worker cannot be spawned).
jpar::Status RunWorkload(const RunConfig& config, const Corpus& corpus,
                         AnswerChecker* checker, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
