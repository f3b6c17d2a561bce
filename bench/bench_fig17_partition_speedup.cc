// Figure 17: single-node speed-up for 1/2/4/8 partitions on all five
// queries (paper: 88 GB on a 4-core node; 8 partitions use
// hyperthreads and do NOT improve over 4). Scaled: 16 MB x
// JPAR_BENCH_SCALE. Two tables: the modeled time (sequential run,
// partition tasks LPT-scheduled onto the node's 4 modeled cores, which
// reproduces the hyperthreading plateau) and the real wall clock with
// use_threads, where every stage's partitions run on their own threads
// on the host's cores.

#include "bench/bench_common.h"

namespace jparbench {
namespace {

void Run() {
  const Collection& data = SensorData(16ull * 1024 * 1024);
  const int kPartitions[] = {1, 2, 4, 8};
  const std::vector<std::string> columns = {"query", "1 part", "2 parts",
                                            "4 parts", "8 parts (HT)"};

  PrintTableHeader(
      "Figure 17: single-node speed-up, modeled (makespan, 4 modeled cores)",
      columns);
  for (const NamedQuery& q : kAllQueries) {
    std::vector<std::string> row = {q.name};
    for (int p : kPartitions) {
      // All partitions live on one node: partitions_per_node == 8.
      Engine engine = MakeSensorEngine(data, RuleOptions::All(), p, 8);
      Measurement m = RunQuery(engine, q.text);
      row.push_back(FormatMs(m.makespan_ms));
    }
    PrintTableRow(row);
  }

  PrintTableHeader(
      "Figure 17: single-node speed-up, real (wall clock, use_threads)",
      columns);
  for (const NamedQuery& q : kAllQueries) {
    std::vector<std::string> row = {q.name};
    for (int p : kPartitions) {
      Engine engine = MakeSensorEngine(data, RuleOptions::All(), p, 8,
                                       ExprMode::kAuto, /*use_threads=*/true);
      Measurement m = RunQuery(engine, q.text);
      row.push_back(FormatMs(m.real_ms));
    }
    PrintTableRow(row);
  }
  std::printf(
      "\n(8 partitions map onto 4 modeled cores, so the last modeled\n"
      " column should roughly match the 4-partition column — the paper's\n"
      " hyperthreading observation. The real table runs on the host's\n"
      " cores; its 8-partition column oversubscribes them the same way.)\n");
}

}  // namespace
}  // namespace jparbench

int main(int argc, char** argv) {
  jparbench::InitBenchArgs(argc, argv);
  jparbench::Run();
  return 0;
}
