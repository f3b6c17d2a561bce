#include "harness/checker.h"

#include <string>

namespace perfbench {

uint64_t AnswerDigest(const std::vector<jpar::Item>& items) {
  // Sum of per-item FNV-1a hashes: a multiset digest, so partition order
  // does not matter but every item's exact JSON text does.
  uint64_t digest = items.size() * 0x100000001B3ull;
  std::string text;
  for (const jpar::Item& item : items) {
    text.clear();
    item.AppendJsonTo(&text);
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : text) {
      h ^= c;
      h *= 0x100000001B3ull;
    }
    digest += h;
  }
  return digest;
}

bool AnswerChecker::Check(int version, int query, const jpar::Status& status,
                          const std::vector<jpar::Item>& items) {
  attempted_.fetch_add(1);
  if (!status.ok()) {
    failed_.fetch_add(1);
    return false;
  }
  const bool known = version >= 0 &&
                     static_cast<size_t>(version) < expected_.size() &&
                     query >= 0 &&
                     static_cast<size_t>(query) < expected_[version].size();
  if (!known || AnswerDigest(items) != expected_[version][query]) {
    failed_.fetch_add(1);
    return false;
  }
  return true;
}

double AnswerChecker::FailedFraction() const {
  const uint64_t n = attempted();
  return n == 0 ? 0 : static_cast<double>(failed()) / static_cast<double>(n);
}

}  // namespace perfbench
