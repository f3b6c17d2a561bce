#ifndef PERFBENCH_HARNESS_CHECKER_H_
#define PERFBENCH_HARNESS_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "json/item.h"

namespace perfbench {

/// Order-insensitive digest of a query answer: a partitioned run emits
/// the same items as the sequential reference, but in partition order.
uint64_t AnswerDigest(const std::vector<jpar::Item>& items);

/// Reference digests, indexed [corpus version][query], from a sequential
/// partitions=1 in-memory run.
using ReferenceDigests = std::vector<std::vector<uint64_t>>;

/// Checks every answer against the references and counts what a user
/// would call a failure: an error, a rejection, or a wrong answer.
/// Thread-safe.
class AnswerChecker {
 public:
  explicit AnswerChecker(ReferenceDigests expected)
      : expected_(std::move(expected)) {}

  /// Records one attempted query; true when it succeeded with the
  /// reference answer for (version, query).
  bool Check(int version, int query, const jpar::Status& status,
             const std::vector<jpar::Item>& items);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  double FailedFraction() const;

 private:
  ReferenceDigests expected_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CHECKER_H_
