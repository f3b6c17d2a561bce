#ifndef PERFBENCH_HARNESS_CORPUS_H_
#define PERFBENCH_HARNESS_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/catalog.h"

namespace perfbench {

/// Size target handed to the generator's estimate (SpecForBytes): 82 files
/// of its default shape, about 6.2 MB of JSON.
inline constexpr uint64_t kCorpusBytes = 8ull << 20;

/// One file in this many is churned (rewritten between service rounds).
inline constexpr int kChurnEvery = 8;

/// The seeded sensor corpus. Version 0 is the generated collection;
/// version 1 replaces every churned file (index % kChurnEvery == 0) by a
/// second generated text, so each churned file has exactly two states
/// and every answer over either version can be checked.
struct Corpus {
  std::vector<std::shared_ptr<const std::string>> files;
  std::vector<int> churned;  // indexes into `files`
  /// Version-1 text of churned[i].
  std::vector<std::shared_ptr<const std::string>> alternates;

  uint64_t Bytes() const;
  /// The in-memory collection at `version` (0 or 1).
  jpar::Collection InMemory(int version) const;
};

/// Same seed, same bytes.
Corpus MakeCorpus(uint64_t seed, uint64_t bytes = kCorpusBytes);

/// A path-backed copy of a corpus in one directory. Flip() rewrites every
/// churned file with its other version; two flips restore the originals.
class ChurnDirectory {
 public:
  ChurnDirectory(const Corpus* corpus, std::string dir)
      : corpus_(corpus), dir_(std::move(dir)) {}

  /// Creates the directory (which must not exist yet, so no sidecar of
  /// an earlier run can be reused) and writes version 0 of every file.
  jpar::Status Create();
  /// Removes the directory with its sidecars.
  void Remove();

  jpar::Collection PathBacked() const;
  std::string FilePath(int index) const;

  /// Rewrites every churned file with its other version.
  jpar::Status Flip();
  int version() const { return version_; }

 private:
  const Corpus* corpus_;
  std::string dir_;
  int version_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CORPUS_H_
