// Self-tests of the benchmark harness: the percentile rule, the answer
// checker, and the churn step. Run with `python3 perfbench/run.py
// --selftest` (the working directory receives a scratch data directory).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "harness/checker.h"
#include "harness/corpus.h"
#include "harness/sample_stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankOnKnownInputs) {
  const std::vector<double> v = OneTo(40);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(v, 50), 20);
  EXPECT_EQ(Percentile(v, 75), 30);
  EXPECT_EQ(Percentile(v, 90), 36);
  EXPECT_EQ(Percentile(v, 100), 40);
  EXPECT_EQ(Percentile(OneTo(10), 95), 10);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median(OneTo(4)), 2.5);
  EXPECT_EQ(Median(OneTo(5)), 3);
  EXPECT_EQ(Median({}), 0);
}

TEST(PercentileTest, TailLeavesTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(TailPercentile(40), 75);
  EXPECT_DOUBLE_EQ(TailPercentile(100), 90);
  EXPECT_DOUBLE_EQ(TailPercentile(10), 0);
  for (int n : {11, 23, 40, 57, 100, 1000}) {
    const std::vector<double> v = OneTo(n);
    const double tail = TailValue(v);
    int beyond = 0;
    for (double x : v) beyond += x > tail;
    EXPECT_EQ(beyond, 10) << n << " samples";
  }
  // Too few samples for any qualifying percentile: the maximum.
  EXPECT_EQ(TailValue(OneTo(7)), 7);
}

class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeCorpus(7, 64 << 10);
    engine_.catalog()->RegisterCollection("/sensors", corpus_.InMemory(0));
    auto out = engine_.Run(jparbench::kQ0);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    answer_ = out->items;
    ASSERT_GE(answer_.size(), 2u);
  }

  Corpus corpus_;
  jpar::Engine engine_;
  std::vector<jpar::Item> answer_;
};

TEST_F(CheckerTest, RightAnswerInAnyOrderPasses) {
  AnswerChecker checker(ReferenceDigests{{AnswerDigest(answer_)}});
  std::vector<jpar::Item> reordered(answer_.rbegin(), answer_.rend());
  EXPECT_TRUE(checker.Check(0, 0, jpar::Status::OK(), answer_));
  EXPECT_TRUE(checker.Check(0, 0, jpar::Status::OK(), reordered));
  EXPECT_EQ(checker.attempted(), 2u);
  EXPECT_EQ(checker.FailedFraction(), 0);
}

TEST_F(CheckerTest, CorruptedAnswerCountsAsFailed) {
  AnswerChecker checker(ReferenceDigests{{AnswerDigest(answer_)}});
  std::vector<jpar::Item> corrupted = answer_;
  corrupted[0] = jpar::Item::Int64(42);
  std::vector<jpar::Item> truncated(answer_.begin(), answer_.end() - 1);
  std::vector<jpar::Item> duplicated = answer_;
  duplicated.push_back(answer_[0]);

  EXPECT_TRUE(checker.Check(0, 0, jpar::Status::OK(), answer_));
  EXPECT_FALSE(checker.Check(0, 0, jpar::Status::OK(), corrupted));
  EXPECT_FALSE(checker.Check(0, 0, jpar::Status::OK(), truncated));
  EXPECT_FALSE(checker.Check(0, 0, jpar::Status::OK(), duplicated));
  EXPECT_FALSE(checker.Check(0, 0, jpar::Status::Unavailable("queue full"),
                             {}));
  EXPECT_FALSE(checker.Check(1, 0, jpar::Status::OK(), answer_));  // unknown
  EXPECT_EQ(checker.attempted(), 6u);
  EXPECT_EQ(checker.failed(), 5u);
  EXPECT_GT(checker.FailedFraction(), 0);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ChurnTest, TwoFlipsRestoreEveryFilesOriginalBytes) {
  const Corpus corpus = MakeCorpus(11, 1280 << 10);
  ASSERT_GE(corpus.churned.size(), 2u);
  const std::string path = "selftest-churn";
  std::filesystem::remove_all(path);
  ChurnDirectory dir(&corpus, path);
  ASSERT_TRUE(dir.Create().ok());
  EXPECT_FALSE(dir.Create().ok()) << "an existing directory is refused";

  auto expect_version = [&](int version) {
    for (size_t i = 0; i < corpus.files.size(); ++i) {
      std::string want = *corpus.files[i];
      for (size_t c = 0; c < corpus.churned.size(); ++c) {
        if (version == 1 && corpus.churned[c] == static_cast<int>(i)) {
          want = *corpus.alternates[c];
        }
      }
      EXPECT_EQ(ReadAll(dir.FilePath(static_cast<int>(i))), want)
          << "file " << i << " at version " << version;
    }
  };
  expect_version(0);
  ASSERT_TRUE(dir.Flip().ok());
  EXPECT_EQ(dir.version(), 1);
  for (size_t c = 0; c < corpus.churned.size(); ++c) {
    EXPECT_NE(*corpus.alternates[c],
              *corpus.files[static_cast<size_t>(corpus.churned[c])]);
  }
  expect_version(1);
  ASSERT_TRUE(dir.Flip().ok());
  EXPECT_EQ(dir.version(), 0);
  expect_version(0);
  dir.Remove();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CorpusTest, SameSeedSameBytes) {
  const Corpus a = MakeCorpus(5, 128 << 10);
  const Corpus b = MakeCorpus(5, 128 << 10);
  const Corpus c = MakeCorpus(6, 128 << 10);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (size_t i = 0; i < a.files.size(); ++i) {
    EXPECT_EQ(*a.files[i], *b.files[i]);
  }
  EXPECT_NE(*a.files[0], *c.files[0]);
}

}  // namespace
}  // namespace perfbench
