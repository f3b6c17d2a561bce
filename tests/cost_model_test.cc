// Cost-model unit suite (DESIGN.md §15): the PathStats sampler (exact
// counts, stride sampling, HLL distinct sketch, order-independent
// merge), the .jstats payload serde, the stats lifecycle in the
// per-file cache (freshness, epochs, sidecar rewarm, eviction of stale
// files), the
// CostModel estimators (monotone selectivity, clamped hints), and the
// compile-time plan annotations they drive — scan access hints, the
// hash-join build side, spill-fanout and morsel-size hints — all of
// which must be answer-preserving by construction.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <utime.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "stats/collection_stats.h"
#include "stats/cost_model.h"
#include "storage/storage_tier.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Fixtures

class TempCollectionDir {
 public:
  TempCollectionDir() {
    std::string tmpl = ::testing::TempDir() + "/jpar_stats_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    dir_ = made != nullptr ? made : tmpl;
  }

  ~TempCollectionDir() {
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

  static void BumpMtime(const std::string& path, int seconds_ahead) {
    struct utimbuf times;
    times.actime = ::time(nullptr) + seconds_ahead;
    times.modtime = times.actime;
    ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

std::string Ndjson(int records, int base) {
  std::string text;
  for (int i = 0; i < records; ++i) {
    text += "{\"k\": " + std::to_string((base + i) % 50) +
            ", \"v\": " + std::to_string(base + i) + "}\n";
  }
  return text;
}

// ---------------------------------------------------------------------
// PathStats: exact counts, stride sampling, min/max, type mix

TEST(PathStatsTest, CountsAreExactAndShapeFactsSampled) {
  PathStats s;
  for (int i = 0; i < 100; ++i) s.Observe(Item::Int64(i));
  EXPECT_EQ(s.rows, 100u);
  EXPECT_EQ(s.sampled, 100u);  // under kSampleFullRows: all observed
  EXPECT_EQ(s.count_numeric, 100u);
  EXPECT_EQ(s.has_minmax, 1);
  EXPECT_EQ(s.min_value, 0.0);
  EXPECT_EQ(s.max_value, 99.0);
  EXPECT_DOUBLE_EQ(s.NumericFraction(), 1.0);
}

TEST(PathStatsTest, StrideKicksInPastTheFullWindow) {
  PathStats s;
  const uint64_t rows = PathStats::kSampleFullRows * 3;
  for (uint64_t i = 0; i < rows; ++i) {
    s.Observe(Item::Int64(static_cast<int64_t>(i)));
  }
  EXPECT_EQ(s.rows, rows);  // row count stays exact
  EXPECT_LT(s.sampled, rows);
  EXPECT_GE(s.sampled, PathStats::kSampleFullRows);
  // Shape facts keep tracking the stream even in the strided regime.
  EXPECT_EQ(s.min_value, 0.0);
  EXPECT_GT(s.max_value, static_cast<double>(PathStats::kSampleFullRows));
}

TEST(PathStatsTest, TypeMixAndMinMaxIgnoreNonNumerics) {
  PathStats s;
  s.Observe(Item::Int64(5));
  s.Observe(Item::Double(-2.5));
  s.Observe(Item::String("zzz"));
  s.Observe(Item::Boolean(true));
  s.Observe(Item::Null());
  s.Observe(Item::MakeArray({Item::Int64(1)}));
  EXPECT_EQ(s.rows, 6u);
  EXPECT_EQ(s.count_numeric, 2u);
  EXPECT_EQ(s.count_string, 1u);
  EXPECT_EQ(s.count_bool, 1u);
  EXPECT_EQ(s.count_null, 1u);
  EXPECT_EQ(s.count_array, 1u);
  EXPECT_EQ(s.min_value, -2.5);
  EXPECT_EQ(s.max_value, 5.0);
  EXPECT_NEAR(s.NumericFraction(), 2.0 / 6.0, 1e-12);
}

TEST(PathStatsTest, HllDistinctEstimateIsAccurateEnough) {
  for (int distinct : {10, 500, 5000}) {
    PathStats s;
    for (int i = 0; i < distinct; ++i) s.Observe(Item::Int64(i));
    const double est = s.DistinctEstimate();
    // m=256 gives ~6.5% stdev; 25% is a generous deterministic bound.
    EXPECT_NEAR(est, distinct, distinct * 0.25) << "distinct=" << distinct;
  }
}

TEST(PathStatsTest, DistinctEstimateCappedAtSampleSize) {
  PathStats s;
  for (int i = 0; i < 64; ++i) s.Observe(Item::Int64(i));
  EXPECT_LE(s.DistinctEstimate(), static_cast<double>(s.sampled));
}

TEST(PathStatsTest, MergeIsOrderIndependent) {
  PathStats whole, a, b;
  for (int i = 0; i < 2000; ++i) {
    whole.Observe(Item::Int64(i));
    (i < 1000 ? a : b).Observe(Item::Int64(i));
  }
  PathStats ab = a, ba = b;
  ab.MergeFrom(b);
  ba.MergeFrom(a);
  EXPECT_EQ(ab.rows, whole.rows);
  EXPECT_EQ(ab.sampled, whole.sampled);
  EXPECT_EQ(ab.min_value, whole.min_value);
  EXPECT_EQ(ab.max_value, whole.max_value);
  EXPECT_EQ(ab.hll, whole.hll);  // register-max union == single pass
  EXPECT_EQ(ab.hll, ba.hll);
  EXPECT_DOUBLE_EQ(ab.DistinctEstimate(), whole.DistinctEstimate());
}

TEST(PathStatsTest, PresenceAndFanoutRatios) {
  PathStats s;
  for (int i = 0; i < 30; ++i) s.Observe(Item::Int64(i));
  s.documents = 60;
  EXPECT_DOUBLE_EQ(s.PresenceFraction(), 0.5);
  EXPECT_DOUBLE_EQ(s.MeanRowsPerDocument(), 0.5);
  s.documents = 10;  // array fan-out: more rows than documents
  EXPECT_DOUBLE_EQ(s.PresenceFraction(), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(s.MeanRowsPerDocument(), 3.0);
}

// ---------------------------------------------------------------------
// Payload serde

PathStats SamplePathStats() {
  PathStats s;
  for (int i = 0; i < 300; ++i) s.Observe(Item::Int64(i * 7));
  s.Observe(Item::String("tail"));
  s.documents = 200;
  s.file_bytes = 4096;
  return s;
}

TEST(PathStatsSerdeTest, RoundTripPreservesEveryField) {
  PathStats s = SamplePathStats();
  std::string payload;
  AppendPathStatsPayload(s, &payload);
  PathStats back;
  ASSERT_TRUE(ParsePathStatsPayload(payload, &back));
  EXPECT_EQ(back.rows, s.rows);
  EXPECT_EQ(back.documents, s.documents);
  EXPECT_EQ(back.file_bytes, s.file_bytes);
  EXPECT_EQ(back.sampled, s.sampled);
  EXPECT_EQ(back.count_numeric, s.count_numeric);
  EXPECT_EQ(back.count_string, s.count_string);
  EXPECT_EQ(back.has_minmax, s.has_minmax);
  EXPECT_EQ(back.min_value, s.min_value);
  EXPECT_EQ(back.max_value, s.max_value);
  EXPECT_EQ(back.hll, s.hll);
  EXPECT_DOUBLE_EQ(back.DistinctEstimate(), s.DistinctEstimate());
}

TEST(PathStatsSerdeTest, CorruptPayloadsAreRejected) {
  PathStats s = SamplePathStats();
  std::string payload;
  AppendPathStatsPayload(s, &payload);
  PathStats out;

  EXPECT_FALSE(ParsePathStatsPayload("", &out));
  EXPECT_FALSE(
      ParsePathStatsPayload(payload.substr(0, payload.size() / 2), &out));
  EXPECT_FALSE(ParsePathStatsPayload(payload + "x", &out));

  std::string bad_version = payload;
  bad_version[0] = 99;
  EXPECT_FALSE(ParsePathStatsPayload(bad_version, &out));
}

TEST(PathStatsSerdeTest, SemanticallyInvalidPayloadsAreRejected) {
  // sampled > rows cannot come from a real sampler.
  PathStats s;
  s.rows = 1;
  s.sampled = 2;
  std::string payload;
  AppendPathStatsPayload(s, &payload);
  PathStats out;
  EXPECT_FALSE(ParsePathStatsPayload(payload, &out));

  // Inverted min/max.
  PathStats t;
  t.Observe(Item::Int64(1));
  t.min_value = 10;
  t.max_value = -10;
  payload.clear();
  AppendPathStatsPayload(t, &payload);
  EXPECT_FALSE(ParsePathStatsPayload(payload, &out));
}

// ---------------------------------------------------------------------
// Stats in the per-file cache: freshness, epochs, sidecar rewarm

TEST(StatsStoreTest, PutGetEpochAndStaleness) {
  StorageManager& store = StorageManager::Instance();
  store.Clear();
  const StorageConfig cfg;
  TempCollectionDir dir;
  std::string path = dir.Write("a.ndjson", Ndjson(40, 0));
  auto sig = StatFileSignature(path);
  ASSERT_TRUE(sig.ok());

  EXPECT_EQ(store.GetStats(path, "$", cfg), nullptr);
  const uint64_t epoch0 = store.epoch();

  PathStats s = SamplePathStats();
  store.PutStats(path, "$", s, *sig, cfg);
  EXPECT_GT(store.epoch(), epoch0) << "learning stats must bump the epoch";

  auto got = store.GetStats(path, "$", cfg);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->rows, s.rows);

  // Mutating the file invalidates: size changed here.
  dir.Write("a.ndjson", Ndjson(60, 0));
  TempCollectionDir::BumpMtime(path, 3);
  const uint64_t epoch1 = store.epoch();
  EXPECT_EQ(store.GetStats(path, "$", cfg), nullptr);
  EXPECT_GT(store.epoch(), epoch1) << "dropping stale stats bumps the epoch";
}

TEST(StatsStoreTest, PutAgainstDeadSignatureIsDropped) {
  StorageManager& store = StorageManager::Instance();
  store.Clear();
  const StorageConfig cfg;
  TempCollectionDir dir;
  std::string path = dir.Write("b.ndjson", Ndjson(40, 0));
  auto sig = StatFileSignature(path);
  ASSERT_TRUE(sig.ok());

  // The file changes between the scan and the install: the stats were
  // built for bytes that no longer exist and must not be published.
  dir.Write("b.ndjson", Ndjson(90, 7));
  TempCollectionDir::BumpMtime(path, 3);
  store.PutStats(path, "$", SamplePathStats(), *sig, cfg);
  EXPECT_EQ(store.GetStats(path, "$", cfg), nullptr);
}

TEST(StatsStoreTest, SidecarRewarmsAfterClear) {
  StorageManager& store = StorageManager::Instance();
  store.Clear();
  const StorageConfig cfg;
  TempCollectionDir dir;
  std::string path = dir.Write("c.ndjson", Ndjson(40, 0));
  auto sig = StatFileSignature(path);
  ASSERT_TRUE(sig.ok());

  PathStats s = SamplePathStats();
  store.PutStats(path, "$", s, *sig, cfg);
  std::string sidecar =
      StorageManager::SidecarPath(SidecarKind::kStats, path, "$", cfg);
  struct stat st;
  ASSERT_EQ(::stat(sidecar.c_str(), &st), 0)
      << "Put must write the sidecar " << sidecar;

  store.Clear();  // simulated process restart: memory gone, disk stays
  auto got = store.GetStats(path, "$", cfg);
  ASSERT_NE(got, nullptr) << "sidecar must rewarm the store";
  EXPECT_EQ(got->rows, s.rows);
  EXPECT_EQ(got->hll, s.hll);
}

TEST(StatsStoreTest, TotalsTrackEntries) {
  StorageManager& store = StorageManager::Instance();
  store.Clear();
  const StorageConfig cfg;
  TempCollectionDir dir;
  std::string p1 = dir.Write("t1.ndjson", Ndjson(10, 0));
  std::string p2 = dir.Write("t2.ndjson", Ndjson(10, 0));
  auto s1 = StatFileSignature(p1);
  auto s2 = StatFileSignature(p2);
  ASSERT_TRUE(s1.ok() && s2.ok());
  store.PutStats(p1, "$", SamplePathStats(), *s1, cfg);
  store.PutStats(p1, "$.k", SamplePathStats(), *s1, cfg);
  store.PutStats(p2, "$", SamplePathStats(), *s2, cfg);
  StorageManager::Totals t = store.totals();
  EXPECT_EQ(t.files, 2u);
  EXPECT_EQ(t.bytes, 3 * sizeof(PathStats))
      << "stats count against the cache's byte budget";
  store.Clear();
}

// ---------------------------------------------------------------------
// ExecOptions validation and mode plumbing

TEST(StatsModeTest, ValidateExecOptionsRejectsUnknownStatsMode) {
  ExecOptions exec;
  exec.stats_mode = static_cast<StatsMode>(9);
  Status st = ValidateExecOptions(exec);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(StatsModeTest, ModesEnableAsDocumented) {
  EXPECT_TRUE(StatsEnabled(StatsMode::kAuto));
  EXPECT_TRUE(StatsEnabled(StatsMode::kForced));
  EXPECT_FALSE(StatsEnabled(StatsMode::kOff));
}

// ---------------------------------------------------------------------
// CostModel estimators

ScanEstimate TrustedEstimate(double min_v, double max_v, int distinct) {
  ScanEstimate e;
  e.rows = 10000;
  e.bytes = 1 << 20;
  e.from_stats = true;
  e.confident = true;
  e.coverage = 1.0;
  auto merged = std::make_shared<PathStats>();
  for (int i = 0; i < distinct; ++i) {
    double v = min_v + (max_v - min_v) * i / (distinct - 1);
    merged->Observe(Item::Double(v));
  }
  e.merged = merged;
  return e;
}

class CostModelEstimatorTest : public ::testing::Test {
 protected:
  CostModelEstimatorTest()
      : model_(&catalog_, StatsMode::kForced, StorageConfig{}) {}
  Catalog catalog_;
  CostModel model_;
};

TEST_F(CostModelEstimatorTest, RangeSelectivityIsMonotoneInTheValue) {
  ScanEstimate e = TrustedEstimate(0, 1000, 200);
  double prev_lt = -1, prev_gt = 2;
  for (double v : {50.0, 250.0, 500.0, 750.0, 950.0}) {
    double lt = model_.EstimateSelectivity(e, ZoneCompare::kLt, v);
    double gt = model_.EstimateSelectivity(e, ZoneCompare::kGt, v);
    EXPECT_GE(lt, prev_lt) << v;
    EXPECT_LE(gt, prev_gt) << v;
    EXPECT_GT(lt, 0) << v;
    EXPECT_LT(lt, 1) << v;
    prev_lt = lt;
    prev_gt = gt;
  }
}

TEST_F(CostModelEstimatorTest, EqSelectivityShrinksWithDistincts) {
  double few = model_.EstimateSelectivity(TrustedEstimate(0, 1000, 10),
                                          ZoneCompare::kEq, 500);
  double many = model_.EstimateSelectivity(TrustedEstimate(0, 1000, 2000),
                                           ZoneCompare::kEq, 500);
  EXPECT_GT(few, many);
  // Out of the observed range: near-zero but never exactly zero.
  double outside = model_.EstimateSelectivity(TrustedEstimate(0, 1000, 10),
                                              ZoneCompare::kEq, 5000);
  EXPECT_GT(outside, 0);
  EXPECT_LT(outside, few);
}

TEST_F(CostModelEstimatorTest, UntrustedEstimatesFallBackToDefault) {
  ScanEstimate unknown;  // no stats at all
  EXPECT_DOUBLE_EQ(
      model_.EstimateSelectivity(unknown, ZoneCompare::kLt, 5),
      CostModel::kDefaultSelectivity);
  EXPECT_FALSE(model_.Trust(unknown));
}

TEST_F(CostModelEstimatorTest, NonNumericSampleMakesNumericPredicateRare) {
  ScanEstimate e;
  e.from_stats = true;
  e.confident = true;
  e.coverage = 1.0;
  auto merged = std::make_shared<PathStats>();
  for (int i = 0; i < 100; ++i) merged->Observe(Item::String("s"));
  e.merged = merged;
  EXPECT_LE(model_.EstimateSelectivity(e, ZoneCompare::kGt, 5), 0.01);
}

TEST_F(CostModelEstimatorTest, HintsAreMonotoneAndClamped) {
  EXPECT_EQ(model_.SpillFanoutHint(-1), 0);
  EXPECT_EQ(model_.SpillFanoutHint(10), 2);          // floor
  EXPECT_EQ(model_.SpillFanoutHint(1e12), 64);       // ceiling
  int prev = 0;
  for (double rows : {1e4, 1e5, 1e6}) {
    int f = model_.SpillFanoutHint(rows);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_EQ(model_.MorselBytesHint(-1), 0u);
  EXPECT_EQ(model_.MorselBytesHint(1024), 64u * 1024);          // floor
  EXPECT_EQ(model_.MorselBytesHint(1e12), 4u * 1024 * 1024);    // ceiling
  EXPECT_LE(model_.MorselBytesHint(1e6), model_.MorselBytesHint(1e8));
}

TEST(CostModelTest, DisabledModelEstimatesNothing) {
  Catalog catalog;
  CostModel off(&catalog, StatsMode::kOff, StorageConfig{});
  EXPECT_FALSE(off.enabled());
  ScanEstimate e = off.EstimateScan("/missing", {});
  EXPECT_FALSE(e.from_stats);
  EXPECT_LT(e.rows, 0);
  EXPECT_EQ(off.SpillFanoutHint(1e6), 0);
  EXPECT_EQ(off.MorselBytesHint(1e6), 0u);

  CostModel null_catalog(nullptr, StatsMode::kForced, StorageConfig{});
  EXPECT_FALSE(null_catalog.enabled());
}

// ---------------------------------------------------------------------
// Compile-time plan annotations

struct PlanProbe {
  Engine engine;
  TempCollectionDir dir;
  StorageMode storage_mode = StorageMode::kAuto;

  void RegisterNdjson(const std::string& coll, const std::string& stem,
                      int files, int records, int base) {
    Collection c;
    for (int f = 0; f < files; ++f) {
      c.files.push_back(JsonFile::FromPath(
          dir.Write(stem + std::to_string(f) + ".ndjson",
                    Ndjson(records, base + f * records))));
    }
    engine.catalog()->RegisterCollection(coll, std::move(c));
  }

  /// Runs `query` once with stats building on so the cache learns the
  /// scanned paths. Stats build with or without the storage tier.
  void WarmStats(const std::string& query) {
    ExecOptions exec;
    exec.partitions = 2;
    exec.stats_mode = StatsMode::kAuto;
    exec.storage_mode = storage_mode;
    auto compiled = engine.Compile(query, RuleOptions::All());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto out = engine.Execute(*compiled, exec);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
};

TEST(CostAnnotationTest, SelectiveZonePredicateRoutesToColumnar) {
  for (StorageMode storage : {StorageMode::kAuto, StorageMode::kOff}) {
    SCOPED_TRACE(storage == StorageMode::kOff ? "storage off"
                                              : "storage on");
    StorageManager::Instance().Clear();
    PlanProbe probe;
    probe.storage_mode = storage;
    probe.RegisterNdjson("/vals", "vals_", 2, 2000, 0);
    const char* scan_all = R"(for $v in collection("/vals")("v") return $v)";
    probe.WarmStats(scan_all);

    // Values are 0..3999 uniform; `gt 3900` keeps ~2.5% of rows.
    const char* selective = R"(
      for $v in collection("/vals")("v")
      where $v gt 3900
      return $v)";
    ExecOptions exec;
    exec.stats_mode = StatsMode::kForced;
    auto plan = probe.engine.Compile(selective, RuleOptions::All(), exec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::string rendered = plan->physical.root->ToString();
    EXPECT_NE(rendered.find("[access: columnar]"), std::string::npos)
        << rendered;
    EXPECT_GE(plan->physical.est_result_rows, 0);
    EXPECT_FALSE(plan->physical.cost_choices.empty());

    // An unselective predicate must not claim the columnar hint.
    const char* broad = R"(
      for $v in collection("/vals")("v")
      where $v gt 100
      return $v)";
    auto plan2 = probe.engine.Compile(broad, RuleOptions::All(), exec);
    ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
    EXPECT_EQ(plan2->physical.root->ToString().find("[access: columnar]"),
              std::string::npos);

    // Stats off: no annotations at all, the historical plan rendering.
    ExecOptions off = exec;
    off.stats_mode = StatsMode::kOff;
    auto plan3 = probe.engine.Compile(selective, RuleOptions::All(), off);
    ASSERT_TRUE(plan3.ok());
    EXPECT_EQ(plan3->physical.root->ToString().find("[access:"),
              std::string::npos);
    EXPECT_EQ(plan3->physical.root->ToString().find("[est-rows:"),
              std::string::npos);
    EXPECT_TRUE(plan3->physical.cost_choices.empty());
    EXPECT_LT(plan3->physical.est_result_rows, 0);
  }
}

TEST(CostAnnotationTest, SkewedJoinBuildsOnTheSmallSide) {
  for (StorageMode storage : {StorageMode::kAuto, StorageMode::kOff}) {
    SCOPED_TRACE(storage == StorageMode::kOff ? "storage off"
                                              : "storage on");
    StorageManager::Instance().Clear();
    PlanProbe probe;
    probe.storage_mode = storage;
    probe.RegisterNdjson("/small", "small_", 1, 40, 0);
    probe.RegisterNdjson("/big", "big_", 2, 3000, 0);
    // Warm with whole-document scans — the join below also scans whole
    // documents, and stats are keyed by (file, projected path), so the
    // warm shape must match the probe shape to share the sample.
    probe.WarmStats(R"(for $a in collection("/small") return $a)");
    probe.WarmStats(R"(for $b in collection("/big") return $b)");

    const char* join = R"(
      for $a in collection("/small")
      for $b in collection("/big")
      where $a("k") eq $b("k")
      return $a("v") + $b("v"))";
    ExecOptions exec;
    exec.stats_mode = StatsMode::kForced;
    auto with_stats = probe.engine.Compile(join, RuleOptions::All(), exec);
    ASSERT_TRUE(with_stats.ok()) << with_stats.status().ToString();
    EXPECT_NE(with_stats->physical.root->ToString().find("[build: left]"),
              std::string::npos)
        << with_stats->physical.root->ToString();

    ExecOptions off = exec;
    off.stats_mode = StatsMode::kOff;
    auto without = probe.engine.Compile(join, RuleOptions::All(), off);
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(without->physical.root->ToString().find("[build: left]"),
              std::string::npos);

    // The flipped build must reproduce the canonical emit order byte for
    // byte — the core answer-preservation claim of the build-side lever.
    for (ExecOptions run_exec : {exec, off}) {
      run_exec.partitions = 2;
      run_exec.storage_mode = storage;
      auto a = probe.engine.Execute(*with_stats, run_exec);
      auto b = probe.engine.Execute(*without, run_exec);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(a->items.size(), b->items.size());
      for (size_t i = 0; i < a->items.size(); ++i) {
        EXPECT_EQ(a->items[i].ToJsonString(), b->items[i].ToJsonString()) << i;
      }
    }
  }
}

TEST(CostAnnotationTest, GroupByGetsAFanoutHintFromInputCardinality) {
  for (StorageMode storage : {StorageMode::kAuto, StorageMode::kOff}) {
    SCOPED_TRACE(storage == StorageMode::kOff ? "storage off"
                                              : "storage on");
    StorageManager::Instance().Clear();
    PlanProbe probe;
    probe.storage_mode = storage;
    probe.RegisterNdjson("/groups", "groups_", 2, 30000, 0);
    // Whole-document warm scan: matches the group-by's scan shape (see
    // the join test above).
    probe.WarmStats(R"(for $g in collection("/groups") return $g)");

    const char* groupby = R"(
      for $g in collection("/groups")
      group by $k := $g("k")
      return count($g))";
    ExecOptions exec;
    exec.stats_mode = StatsMode::kForced;
    auto plan = probe.engine.Compile(groupby, RuleOptions::All(), exec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    bool found = false;
    for (const std::string& c : plan->physical.cost_choices) {
      if (c.find("fanout-hint") != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << "group-by over a trusted 60k-row scan should "
                          "carry a spill-fanout hint";
  }
}

TEST(CostAnnotationTest, MorselHintAnnotatesTrustedScans) {
  for (StorageMode storage : {StorageMode::kAuto, StorageMode::kOff}) {
    SCOPED_TRACE(storage == StorageMode::kOff ? "storage off"
                                              : "storage on");
    StorageManager::Instance().Clear();
    PlanProbe probe;
    probe.storage_mode = storage;
    probe.RegisterNdjson("/m", "m_", 1, 500, 0);
    const char* q = R"(for $v in collection("/m")("v") return $v)";
    probe.WarmStats(q);
    ExecOptions exec;
    exec.stats_mode = StatsMode::kForced;
    auto plan = probe.engine.Compile(q, RuleOptions::All(), exec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    bool scan_choice = false;
    for (const std::string& c : plan->physical.cost_choices) {
      if (c.find("scan /m") != std::string::npos &&
          c.find("morsel-hint") != std::string::npos) {
        scan_choice = true;
      }
    }
    EXPECT_TRUE(scan_choice) << "trusted scan should record its choice";
    std::string rendered = plan->physical.root->ToString();
    EXPECT_NE(rendered.find("[est-rows:"), std::string::npos) << rendered;
  }
}

}  // namespace
}  // namespace jpar
