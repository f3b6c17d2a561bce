#include "harness/sample_stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // A small epsilon keeps 100 * k / n from rounding up past rank k.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double TailPercentile(size_t n) {
  if (n <= kTailBeyond) return 0;
  return 100.0 * static_cast<double>(n - kTailBeyond) /
         static_cast<double>(n);
}

double TailValue(const std::vector<double>& values) {
  if (values.size() <= kTailBeyond) {
    return values.empty() ? 0
                          : *std::max_element(values.begin(), values.end());
  }
  return Percentile(values, TailPercentile(values.size()));
}

}  // namespace perfbench
