// Property-based tests: randomized documents and queries checked
// against independent oracles, parameterized over seeds.
//
//  * JSON text and binary serde round-trips on random documents.
//  * Streaming path projection == DOM navigation on random paths.
//  * Rewrite soundness: random path/filter/group-by queries return the
//    same multiset of rows with every rule configuration and partition
//    count.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/compression.h"
#include "core/engine.h"
#include "json/binary_serde.h"
#include "json/parser.h"
#include "json/projecting_reader.h"
#include "runtime/operators.h"
#include "stats/cost_model.h"

namespace jpar {
namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int NextInt(int bound) {
    return static_cast<int>(Next() % static_cast<uint64_t>(bound));
  }
  std::string NextName() {
    static const char* kNames[] = {"a", "b", "cc", "dd", "key", "v"};
    return kNames[NextInt(6)];
  }

 private:
  uint64_t state_;
};

Item RandomItem(Rng* rng, int depth) {
  int pick = rng->NextInt(depth <= 0 ? 5 : 8);
  switch (pick) {
    case 0:
      return Item::Null();
    case 1:
      return Item::Boolean(rng->NextInt(2) == 0);
    case 2:
      return Item::Int64(rng->NextInt(2001) - 1000);
    case 3:
      return Item::Double((rng->NextInt(4001) - 2000) / 8.0);
    case 4:
      return Item::String(std::string(
          static_cast<size_t>(rng->NextInt(12)),
          static_cast<char>('a' + rng->NextInt(26))));
    case 5: {  // array
      Item::ItemVector elems;
      int n = rng->NextInt(5);
      for (int i = 0; i < n; ++i) elems.push_back(RandomItem(rng, depth - 1));
      return Item::MakeArray(std::move(elems));
    }
    default: {  // object
      Item::Object fields;
      int n = rng->NextInt(5);
      std::set<std::string> used;
      for (int i = 0; i < n; ++i) {
        std::string key = rng->NextName() + std::to_string(i);
        if (!used.insert(key).second) continue;
        fields.push_back({std::move(key), RandomItem(rng, depth - 1)});
      }
      return Item::MakeObject(std::move(fields));
    }
  }
}

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededTest, JsonTextRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Item item = RandomItem(&rng, 4);
    if (item.is_sequence()) continue;
    auto back = ParseJson(item.ToJsonString());
    ASSERT_TRUE(back.ok()) << item.ToJsonString();
    EXPECT_TRUE(item.Equals(*back)) << item.ToJsonString();
  }
}

TEST_P(SeededTest, BinarySerdeRoundTrip) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int i = 0; i < 50; ++i) {
    Item item = RandomItem(&rng, 4);
    auto back = DeserializeItem(SerializeItem(item));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(item.Equals(*back)) << item.ToJsonString();
    EXPECT_EQ(item.kind(), back->kind());
  }
}

TEST_P(SeededTest, LzRoundTripOnRandomBytes) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  for (int i = 0; i < 20; ++i) {
    std::string data;
    int n = rng.NextInt(5000);
    for (int b = 0; b < n; ++b) {
      // Mix of repetitive and random content.
      data.push_back(rng.NextInt(3) == 0
                         ? static_cast<char>(rng.Next())
                         : static_cast<char>('a' + (b % 7)));
    }
    auto back = LzDecompress(LzCompress(data));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data);
  }
}

TEST_P(SeededTest, ProjectionMatchesDomNavigation) {
  Rng rng(GetParam() ^ 0xDADA);
  for (int i = 0; i < 30; ++i) {
    Item doc = RandomItem(&rng, 4);
    if (!doc.is_object() && !doc.is_array()) continue;
    std::string text = doc.ToJsonString();
    // Random path of 0..3 steps.
    std::vector<PathStep> steps;
    int len = rng.NextInt(4);
    for (int s = 0; s < len; ++s) {
      switch (rng.NextInt(3)) {
        case 0:
          steps.push_back(PathStep::Key(rng.NextName() + "0"));
          break;
        case 1:
          steps.push_back(PathStep::Index(1 + rng.NextInt(3)));
          break;
        default:
          steps.push_back(PathStep::KeysOrMembers());
      }
    }
    std::vector<Item> streamed, navigated;
    Status s1 = ProjectJson(text, steps, [&](Item item) {
      streamed.push_back(std::move(item));
      return Status::OK();
    });
    Status s2 = NavigateItemPath(doc, steps, 0, [&](Item item) {
      navigated.push_back(std::move(item));
      return Status::OK();
    });
    ASSERT_TRUE(s1.ok()) << s1.ToString();
    ASSERT_TRUE(s2.ok()) << s2.ToString();
    ASSERT_EQ(streamed.size(), navigated.size())
        << text << " path " << PathToString(steps);
    for (size_t k = 0; k < streamed.size(); ++k) {
      EXPECT_TRUE(streamed[k].Equals(navigated[k]));
    }
  }
}

// ---------------------------------------------------------------------
// Rewrite soundness on randomized queries over randomized data.
// ---------------------------------------------------------------------

Collection RandomSensorish(Rng* rng, int files) {
  // Documents shaped loosely like the sensor data, with some
  // irregularity (missing fields, varying array sizes).
  Collection out;
  for (int f = 0; f < files; ++f) {
    Item::ItemVector records;
    int nrec = 1 + rng->NextInt(4);
    for (int r = 0; r < nrec; ++r) {
      Item::ItemVector results;
      int nres = rng->NextInt(6);
      for (int m = 0; m < nres; ++m) {
        Item::Object fields;
        fields.push_back(
            {"g", Item::String(std::string(1, 'a' + rng->NextInt(3)))});
        if (rng->NextInt(5) != 0) {
          fields.push_back({"v", Item::Int64(rng->NextInt(100))});
        }
        results.push_back(Item::MakeObject(std::move(fields)));
      }
      records.push_back(Item::MakeObject(
          {{"results", Item::MakeArray(std::move(results))}}));
    }
    Item doc = Item::MakeObject({{"root", Item::MakeArray(std::move(records))}});
    out.files.push_back(JsonFile::FromText(doc.ToJsonString()));
  }
  return out;
}

TEST_P(SeededTest, RewritePreservesSemantics) {
  Rng rng(GetParam() ^ 0xF00D);
  Collection data = RandomSensorish(&rng, 3);
  const char* queries[] = {
      R"(collection("/d")("root")()("results")())",
      R"(for $r in collection("/d")("root")()("results")()
         return $r("g"))",
      R"(for $r in collection("/d")("root")()("results")()
         where $r("v") ge 50 return $r)",
      R"(for $r in collection("/d")("root")()("results")()
         group by $g := $r("g") return count($r("v")))",
      R"(for $r in collection("/d")("root")()("results")()
         group by $g := $r("g") return sum($r("v")))",
  };
  for (const char* query : queries) {
    std::vector<std::string> baseline;
    for (int config = 0; config < 3; ++config) {
      EngineOptions options;
      options.rules = config == 0 ? RuleOptions::None() : RuleOptions::All();
      options.exec.partitions = config == 2 ? 3 : 1;
      Engine engine(options);
      engine.catalog()->RegisterCollection("/d", data);
      auto result = engine.Run(query);
      ASSERT_TRUE(result.ok())
          << query << " config " << config << ": "
          << result.status().ToString();
      std::vector<std::string> rows;
      for (const Item& item : result->items) {
        rows.push_back(item.ToJsonString());
      }
      std::sort(rows.begin(), rows.end());
      if (config == 0) {
        baseline = rows;
      } else {
        EXPECT_EQ(rows, baseline) << query << " config " << config;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Spill soundness (DESIGN.md §10): randomized NDJSON batches with
// controlled group cardinality and skew, aggregated with and without a
// spilling budget. Values are integers, so sums are exact in doubles
// and the comparison can demand byte-identical rows.
// ---------------------------------------------------------------------

Collection RandomNdjsonBatch(Rng* rng) {
  // Cardinality from "one giant group" to "every row its own group";
  // half the rows land on one hot key so some buckets are skewed enough
  // to force recursive repartitions at small fan-outs.
  int cardinality = 1 + rng->NextInt(60);
  bool skewed = rng->NextInt(2) == 0;
  int files = 1 + rng->NextInt(3);
  int rows_per_file = 30 + rng->NextInt(90);
  Collection c;
  for (int f = 0; f < files; ++f) {
    std::string text;
    for (int i = 0; i < rows_per_file; ++i) {
      int group = skewed && rng->NextInt(2) == 0 ? 0 : rng->NextInt(cardinality);
      text += "{\"g\": \"key" + std::to_string(group) +
              "\", \"v\": " + std::to_string(rng->NextInt(20001) - 10000) +
              "}\n";
    }
    c.files.push_back(JsonFile::FromText(std::move(text)));
  }
  return c;
}

TEST_P(SeededTest, SpillMatchesInMemoryOnRandomGroupBys) {
  Rng rng(GetParam() ^ 0x5B111);
  const char* queries[] = {
      R"(for $d in collection("/b") group by $g := $d("g")
         return count($d("v")))",
      R"(for $d in collection("/b") group by $g := $d("g")
         return sum($d("v")))",
      R"(for $d in collection("/b") group by $g := $d("g")
         return min($d("v")))",
      R"(for $d in collection("/b") group by $g := $d("g")
         return max($d("v")))",
      R"(for $d in collection("/b") group by $g := $d("g")
         return avg($d("v")))",
  };
  for (int round = 0; round < 3; ++round) {
    Collection data = RandomNdjsonBatch(&rng);
    uint64_t budget = 256u << rng.NextInt(4);
    int fanout = rng.NextInt(2) == 0 ? 2 : 8;
    int partitions = 1 + rng.NextInt(3);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " round=" + std::to_string(round) +
                 " budget=" + std::to_string(budget) +
                 " fanout=" + std::to_string(fanout) +
                 " partitions=" + std::to_string(partitions));
    for (const char* query : queries) {
      SCOPED_TRACE(query);
      std::vector<std::string> baseline;
      for (bool spill : {false, true}) {
        EngineOptions options;
        options.exec.partitions = partitions;
        if (spill) {
          options.exec.memory_limit_bytes = budget;
          options.exec.spill = SpillMode::kEnabled;
          options.exec.spill_fanout = fanout;
        }
        Engine engine(options);
        engine.catalog()->RegisterCollection("/b", data);
        auto result = engine.Run(query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::vector<std::string> rows;
        for (const Item& item : result->items) {
          rows.push_back(item.ToJsonString());
        }
        std::sort(rows.begin(), rows.end());
        if (!spill) {
          baseline = rows;
        } else {
          EXPECT_EQ(rows, baseline);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Estimator accuracy (DESIGN.md §15): selectivity estimates from
// sampled stats must track the true fraction on random uniform data,
// and sub-minimum samples must never be trusted in kAuto.

TEST_P(SeededTest, RangeSelectivityTracksTrueFractionOnUniformData) {
  Rng rng(GetParam() ^ 0xE57);
  Catalog catalog;
  CostModel model(&catalog, StatsMode::kForced, StorageConfig{});
  for (int round = 0; round < 8; ++round) {
    const int n = 500 + rng.NextInt(4000);
    const int lo = rng.NextInt(1000) - 500;
    const int width = 100 + rng.NextInt(5000);
    auto merged = std::make_shared<PathStats>();
    std::vector<int> values;
    values.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      int v = lo + rng.NextInt(width);
      values.push_back(v);
      merged->Observe(Item::Int64(v));
    }
    merged->documents = static_cast<uint64_t>(n);
    ScanEstimate est;
    est.rows = n;
    est.bytes = n * 16.0;
    est.from_stats = true;
    est.confident = true;
    est.coverage = 1.0;
    est.merged = merged;

    const int probe = lo + rng.NextInt(width);
    const double sel =
        model.EstimateSelectivity(est, ZoneCompare::kGt, probe);
    double actual = 0;
    for (int v : values) {
      if (v > probe) ++actual;
    }
    actual /= n;
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " round=" + std::to_string(round) + " n=" +
                 std::to_string(n) + " probe=" + std::to_string(probe));
    // Uniform data, interpolated estimate: the sample stride and the
    // [0.02, 0.98] clamp allow a modest error band.
    EXPECT_NEAR(sel, actual, 0.12);
  }
}

TEST_P(SeededTest, EqSelectivityTracksUniformKeyCardinality) {
  Rng rng(GetParam() ^ 0xEC5);
  Catalog catalog;
  CostModel model(&catalog, StatsMode::kForced, StorageConfig{});
  for (int round = 0; round < 6; ++round) {
    const int distinct = 2 + rng.NextInt(200);
    const int n = distinct * (10 + rng.NextInt(40));
    auto merged = std::make_shared<PathStats>();
    for (int i = 0; i < n; ++i) {
      merged->Observe(Item::Int64(rng.NextInt(distinct)));
    }
    merged->documents = static_cast<uint64_t>(n);
    ScanEstimate est;
    est.rows = n;
    est.bytes = n * 16.0;
    est.from_stats = true;
    est.confident = true;
    est.coverage = 1.0;
    est.merged = merged;
    const double sel =
        model.EstimateSelectivity(est, ZoneCompare::kEq, rng.NextInt(distinct));
    const double ideal = 1.0 / distinct;
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " distinct=" + std::to_string(distinct) +
                 " n=" + std::to_string(n));
    // 1/HLL-estimate vs 1/true-cardinality: the sketch is ~6.5%
    // accurate, the stride sample may miss rare keys — a 2x band
    // catches real estimator breakage without flaking.
    EXPECT_GE(sel, ideal / 2.0);
    EXPECT_LE(sel, ideal * 2.0 + 0.02);
  }
}

TEST_P(SeededTest, TinySamplesAreNeverTrustedInAutoMode) {
  Rng rng(GetParam() ^ 0x71A);
  Catalog catalog;
  CostModel model(&catalog, StatsMode::kAuto, StorageConfig{});
  for (int round = 0; round < 10; ++round) {
    const int n =
        rng.NextInt(static_cast<int>(CostModel::kMinSampledRows));
    auto merged = std::make_shared<PathStats>();
    for (int i = 0; i < n; ++i) {
      merged->Observe(Item::Int64(rng.NextInt(1000)));
    }
    ScanEstimate est;
    est.rows = n;
    est.bytes = n * 16.0;
    est.from_stats = n > 0;
    est.coverage = 1.0;
    est.confident = merged->sampled >= CostModel::kMinSampledRows;
    est.merged = merged;
    EXPECT_FALSE(model.Trust(est))
        << "a " << n << "-row sample cleared kAuto's trust bar";
    // Degradation is graceful: the estimate falls back to the default
    // instead of extrapolating noise.
    EXPECT_EQ(model.EstimateSelectivity(est, ZoneCompare::kGt, 500.0),
              CostModel::kDefaultSelectivity);
  }
}

TEST_P(SeededTest, HllDistinctTracksRandomCardinalities) {
  Rng rng(GetParam() ^ 0x4117);
  for (int round = 0; round < 5; ++round) {
    const int distinct = 4 + rng.NextInt(3000);
    PathStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      for (int v = 0; v < distinct; ++v) {
        stats.Observe(Item::Int64(v * 7919 + round));
      }
    }
    const double est = stats.DistinctEstimate();
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " distinct=" + std::to_string(distinct));
    EXPECT_NEAR(est, distinct, distinct * 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace jpar
