// Unit suite for the per-file cache (DESIGN.md §14, §15), run against
// StorageManager instances the tests construct themselves: LRU
// eviction under a small byte budget, drift dropping a file's tape,
// columns and stats together, single-flight cold tape builds, and a
// stalled build (a FIFO whose read blocks) not holding up other files
// nor surviving a Clear.

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "storage/storage_tier.h"

namespace jpar {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "/jpar_tier_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    dir_ = made != nullptr ? made : tmpl;
  }

  ~TempDir() {
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        std::remove((dir_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

  std::string Write(const std::string& name, const std::string& text) {
    std::string path = dir_ + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
  }

 private:
  std::string dir_;
};

std::string Ndjson(int records, int base) {
  std::string text;
  for (int i = 0; i < records; ++i) {
    text += "{\"v\": " + std::to_string(base + i) + "}\n";
  }
  return text;
}

/// What one tape entry is charged: the text plus its serialized tape.
uint64_t TapeBytes(const std::string& text) {
  return text.size() + StructuralIndex::SerializedBytes(text.size());
}

ColumnData SmallColumn() {
  ColumnBuilder builder;
  for (int i = 0; i < 10; ++i) builder.Add(Item::Int64(i));
  return builder.Finish(0);
}

PathStats SmallStats() {
  PathStats stats;
  for (int i = 0; i < 10; ++i) stats.Observe(Item::Int64(i));
  return stats;
}

TEST(StorageTierTest, LruEvictsColdEntriesButNeverTheServedOne) {
  TempDir dir;
  const std::string text = Ndjson(40, 0);
  // Room for two tape entries, not three.
  StorageManager cache(2 * TapeBytes(text) + TapeBytes(text) / 2);
  const StorageConfig cfg;
  std::vector<std::string> paths;
  for (int f = 0; f < 3; ++f) {
    paths.push_back(dir.Write(std::to_string(f) + ".ndjson", text));
    ASSERT_TRUE(cache.AcquireTape(paths.back(), cfg).ok());
  }
  EXPECT_EQ(cache.totals().files, 2u);
  EXPECT_EQ(cache.totals().bytes, 2 * TapeBytes(text));

  // f0 was the least recently used, so it went: acquiring it again
  // reloads it (from its sidecar) and evicts f1 in turn.
  auto again = cache.AcquireTape(paths[0], cfg);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.totals().files, 2u);
  auto still = cache.AcquireTape(paths[2], cfg);
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still->hit);

  // A file larger than the whole budget is still served and stays
  // resident while it is the entry being served.
  const std::string big_text = Ndjson(400, 0);
  ASSERT_GT(TapeBytes(big_text), cache.budget_bytes());
  const std::string big = dir.Write("big.ndjson", big_text);
  auto tape = cache.AcquireTape(big, cfg);
  ASSERT_TRUE(tape.ok());
  EXPECT_EQ(tape->text->size(), big_text.size());
  EXPECT_EQ(cache.totals().files, 1u);
  EXPECT_EQ(cache.totals().bytes, TapeBytes(big_text));

  // Columns and stats count against the same budget.
  auto sig = StatFileSignature(big);
  ASSERT_TRUE(sig.ok());
  cache.PutStats(big, "$.v", SmallStats(), *sig, cfg);
  EXPECT_EQ(cache.totals().bytes, TapeBytes(big_text) + sizeof(PathStats));
}

TEST(StorageTierTest, DriftDropsTapeColumnsAndStatsTogether) {
  TempDir dir;
  StorageManager cache;
  const StorageConfig cfg;
  const std::string path = dir.Write("a.ndjson", Ndjson(30, 0));
  auto tape = cache.AcquireTape(path, cfg);
  ASSERT_TRUE(tape.ok());
  EXPECT_FALSE(tape->hit);
  cache.PutColumn(path, "$.v", SmallColumn(), tape->signature, cfg);
  cache.PutStats(path, "$.v", SmallStats(), tape->signature, cfg);
  ASSERT_NE(cache.GetColumn(path, "$.v", cfg), nullptr);
  ASSERT_NE(cache.GetStats(path, "$.v", cfg), nullptr);
  EXPECT_EQ(cache.totals().files, 1u);

  // Rewrite the file with a different size and a later mtime.
  dir.Write("a.ndjson", Ndjson(50, 7));
  struct utimbuf times;
  times.actime = times.modtime = ::time(nullptr) + 5;
  ASSERT_EQ(::utime(path.c_str(), &times), 0);

  const uint64_t epoch = cache.epoch();
  EXPECT_EQ(cache.GetStats(path, "$.v", cfg), nullptr)
      << "stats for the old bytes must not be served";
  EXPECT_GT(cache.epoch(), epoch) << "dropping a stale entry bumps the epoch";
  EXPECT_EQ(cache.totals().files, 0u) << "the whole entry went at once";
  EXPECT_EQ(cache.totals().bytes, 0u);
  EXPECT_EQ(cache.GetColumn(path, "$.v", cfg), nullptr)
      << "the old column sidecar is stamped for the old bytes";
  auto rebuilt = cache.AcquireTape(path, cfg);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt->hit) << "the old tape sidecar must not be reused";
  EXPECT_EQ(*rebuilt->text, Ndjson(50, 7));
}

TEST(StorageTierTest, ConcurrentColdAcquiresBuildOnce) {
  TempDir dir;
  StorageManager cache;
  const StorageConfig cfg;
  const std::string path = dir.Write("cold.ndjson", Ndjson(2000, 0));
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<StorageManager::Tape> tapes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      auto tape = cache.AcquireTape(path, cfg);
      ASSERT_TRUE(tape.ok()) << tape.status().ToString();
      tapes[t] = *tape;
    });
  }
  for (std::thread& t : threads) t.join();
  int builds = 0;
  for (const StorageManager::Tape& tape : tapes) {
    builds += tape.hit ? 0 : 1;
    EXPECT_EQ(tape.index, tapes[0].index) << "every caller shares one tape";
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.totals().files, 1u);
}

TEST(StorageTierTest, StalledBuildDoesNotBlockOtherFiles) {
  TempDir dir;
  StorageManager cache;
  const StorageConfig cfg;
  const std::string other = dir.Write("other.ndjson", Ndjson(20, 0));
  const std::string fifo = dir.Write("stalled.ndjson", "");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  // Reading a FIFO blocks until a writer shows up: this build stalls.
  auto stalled = std::async(std::launch::async,
                            [&] { return cache.AcquireTape(fifo, cfg); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto unrelated = std::async(std::launch::async, [&] {
    auto tape = cache.AcquireTape(other, cfg);
    return tape.ok() && cache.GetStats(other, "$.v", cfg) == nullptr;
  });
  const bool returned = unrelated.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;

  // Clearing the cache mid-build is safe: the build still serves its
  // caller, and its result is discarded rather than cached.
  cache.Clear();

  // Release the stalled build whatever happened above.
  int fd = ::open(fifo.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const std::string body = Ndjson(3, 0);
  ASSERT_EQ(::write(fd, body.data(), body.size()),
            static_cast<ssize_t>(body.size()));
  ::close(fd);

  EXPECT_TRUE(returned) << "another file waited on the stalled build";
  EXPECT_TRUE(unrelated.get());
  auto tape = stalled.get();
  ASSERT_TRUE(tape.ok()) << tape.status().ToString();
  EXPECT_EQ(*tape->text, body);
  EXPECT_EQ(cache.totals().files, 0u);
  EXPECT_EQ(cache.totals().bytes, 0u);
}

}  // namespace
}  // namespace jpar
