#ifndef PERFBENCH_HARNESS_SAMPLE_STATS_H_
#define PERFBENCH_HARNESS_SAMPLE_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it: fewer cannot support
/// the percentile, so a run reports a lower one instead.
inline constexpr size_t kTailBeyond = 10;

/// Nearest-rank percentile (`p` in [0, 100]): the smallest sample with at
/// least p% of the samples at or below it. 0 for no samples.
double Percentile(std::vector<double> values, double p);

/// The middle sample, or the mean of the two middle ones. 0 for none.
double Median(std::vector<double> values);

/// The highest nearest-rank percentile with at least kTailBeyond samples
/// beyond it, for `n` samples: 100 * (n - 10) / n, so p75 for 40 samples.
/// 0 when n <= kTailBeyond (no percentile qualifies).
double TailPercentile(size_t n);

/// The sample at TailPercentile(values.size()); the maximum when there
/// are too few samples for any percentile to qualify.
double TailValue(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SAMPLE_STATS_H_
