#include "harness/corpus.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/sensor_generator.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Seed perturbation for the second version of churned files.
constexpr uint64_t kAlternateSeedMix = 0x9E3779B97F4A7C15ull;

jpar::Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return jpar::Status::IOError("cannot write " + path);
  return jpar::Status::OK();
}

}  // namespace

uint64_t Corpus::Bytes() const {
  uint64_t total = 0;
  for (const auto& f : files) total += f->size();
  return total;
}

jpar::Collection Corpus::InMemory(int version) const {
  jpar::Collection coll;
  for (const auto& f : files) coll.files.push_back(jpar::JsonFile::FromText(f));
  if (version == 1) {
    for (size_t i = 0; i < churned.size(); ++i) {
      coll.files[static_cast<size_t>(churned[i])] =
          jpar::JsonFile::FromText(alternates[i]);
    }
  }
  return coll;
}

Corpus MakeCorpus(uint64_t seed, uint64_t bytes) {
  jpar::SensorDataSpec spec;
  spec.seed = seed;
  spec = jpar::SpecForBytes(spec, bytes);
  jpar::SensorDataSpec alternate = spec;
  alternate.seed = seed ^ kAlternateSeedMix;

  Corpus corpus;
  for (int i = 0; i < spec.num_files; ++i) {
    corpus.files.push_back(std::make_shared<const std::string>(
        jpar::GenerateSensorFile(spec, i)));
    if (i % kChurnEvery == 0) {
      corpus.churned.push_back(i);
      corpus.alternates.push_back(std::make_shared<const std::string>(
          jpar::GenerateSensorFile(alternate, i)));
    }
  }
  return corpus;
}

jpar::Status ChurnDirectory::Create() {
  std::error_code ec;
  if (fs::exists(dir_, ec)) {
    return jpar::Status::InvalidArgument("data directory already exists: " +
                                         dir_);
  }
  fs::create_directories(dir_, ec);
  if (ec) return jpar::Status::IOError("cannot create " + dir_);
  for (size_t i = 0; i < corpus_->files.size(); ++i) {
    JPAR_RETURN_NOT_OK(
        WriteFile(FilePath(static_cast<int>(i)), *corpus_->files[i]));
  }
  version_ = 0;
  return jpar::Status::OK();
}

void ChurnDirectory::Remove() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

jpar::Collection ChurnDirectory::PathBacked() const {
  jpar::Collection coll;
  for (size_t i = 0; i < corpus_->files.size(); ++i) {
    coll.files.push_back(
        jpar::JsonFile::FromPath(FilePath(static_cast<int>(i))));
  }
  return coll;
}

std::string ChurnDirectory::FilePath(int index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "sensors-%04d.json", index);
  return (fs::path(dir_) / name).string();
}

jpar::Status ChurnDirectory::Flip() {
  const int next = 1 - version_;
  for (size_t i = 0; i < corpus_->churned.size(); ++i) {
    const int index = corpus_->churned[i];
    const std::string& text =
        next == 1 ? *corpus_->alternates[i]
                  : *corpus_->files[static_cast<size_t>(index)];
    JPAR_RETURN_NOT_OK(WriteFile(FilePath(index), text));
  }
  version_ = next;
  return jpar::Status::OK();
}

}  // namespace perfbench
