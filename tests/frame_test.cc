#include "runtime/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace jpar {
namespace {

Tuple MakeTuple(std::initializer_list<Item> items) { return Tuple(items); }

std::vector<Tuple> ReadAll(const std::vector<Frame>& frames) {
  FrameReader reader(frames);
  std::vector<Tuple> out;
  Tuple t;
  while (true) {
    auto more = reader.Next(&t);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    out.push_back(t);
  }
  return out;
}

TEST(FrameTest, RoundTripTuples) {
  FrameBuilder builder(1024);
  std::vector<Tuple> tuples = {
      MakeTuple({Item::Int64(1), Item::String("a")}),
      MakeTuple({Item::Null()}),
      MakeTuple({}),
      MakeTuple({Item::MakeArray({Item::Boolean(true)}),
                 Item::Double(2.5), Item::Int64(-7)}),
  };
  for (const Tuple& t : tuples) builder.Append(t);
  std::vector<Frame> frames = builder.Finish();
  std::vector<Tuple> back = ReadAll(frames);
  ASSERT_EQ(back.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(back[i].size(), tuples[i].size());
    for (size_t c = 0; c < tuples[i].size(); ++c) {
      EXPECT_TRUE(back[i][c].Equals(tuples[i][c]));
    }
  }
}

TEST(FrameTest, SplitsAtTargetSize) {
  FrameBuilder builder(256);
  for (int i = 0; i < 100; ++i) {
    builder.Append(MakeTuple({Item::String(std::string(40, 'x'))}));
  }
  std::vector<Frame> frames = builder.Finish();
  EXPECT_GT(frames.size(), 10u);
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    // Every sealed frame crossed the target, but only by one tuple.
    EXPECT_GE(frames[i].bytes.size(), 256u);
    EXPECT_LT(frames[i].bytes.size(), 256u + 64u);
  }
  EXPECT_EQ(ReadAll(frames).size(), 100u);
}

TEST(FrameTest, OversizedTupleGetsItsOwnFrameAndIsCounted) {
  FrameBuilder builder(128);
  builder.Append(MakeTuple({Item::String("small")}));
  builder.Append(MakeTuple({Item::String(std::string(1000, 'y'))}));
  builder.Append(MakeTuple({Item::String("small2")}));
  EXPECT_EQ(builder.oversized_frames(), 1u);
  EXPECT_GT(builder.max_tuple_bytes(), 1000u);
  std::vector<Frame> frames = builder.Finish();
  EXPECT_EQ(ReadAll(frames).size(), 3u);
}

TEST(FrameTest, CountsBytesAndTuples) {
  FrameBuilder builder(1 << 20);
  builder.Append(MakeTuple({Item::Int64(1)}));
  builder.Append(MakeTuple({Item::Int64(2)}));
  EXPECT_EQ(builder.tuple_count(), 2u);
  EXPECT_GT(builder.total_bytes(), 0u);
  std::vector<Frame> frames = builder.Finish();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].tuple_count, 2u);
}

TEST(FrameTest, EmptyBuilderYieldsNoFrames) {
  FrameBuilder builder(1024);
  EXPECT_TRUE(builder.Finish().empty());
}

TEST(FrameTest, ReaderHandlesEmptyFrameList) {
  std::vector<Frame> frames;
  FrameReader reader(frames);
  Tuple t;
  auto more = reader.Next(&t);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(FrameTest, CorruptFrameReportsError) {
  Frame corrupt;
  corrupt.bytes = "\x02\xff\xff";  // arity 2, garbage items
  corrupt.tuple_count = 1;
  std::vector<Frame> frames = {corrupt};
  FrameReader reader(frames);
  Tuple t;
  EXPECT_FALSE(reader.Next(&t).ok());
}

// The in-process exchange counts frames with a bare FrameTally from
// each tuple's encoded size; FrameBuilder packs real frames. Over random
// streams — empty ones, tuples far larger than the frame, several frame
// sizes — the tally must report exactly the frames and counters that
// FrameBuilder::Finish() produces.
TEST(FrameTest, TallyMatchesBuiltFramesOnRandomStreams) {
  std::mt19937_64 rng(20181);
  auto random_tuple = [&]() {
    Tuple t;
    const int width = static_cast<int>(rng() % 4);  // 0 = empty tuple
    for (int c = 0; c < width; ++c) {
      switch (rng() % 4) {
        case 0:
          t.push_back(Item::Int64(static_cast<int64_t>(rng() % 100000)));
          break;
        case 1:
          t.push_back(Item::Double(static_cast<double>(rng() % 1000) / 7));
          break;
        case 2: {
          // Mostly short strings, now and then one of several KiB.
          size_t len = rng() % 8 == 0 ? 1000 + rng() % 5000 : rng() % 40;
          t.push_back(Item::String(std::string(len, 'a' + rng() % 26)));
          break;
        }
        default:
          t.push_back(Item::MakeArray({Item::Null(), Item::Boolean(true)}));
          break;
      }
    }
    return t;
  };
  for (size_t frame_bytes : {1u, 64u, 700u, 4096u, 32u * 1024u}) {
    for (int stream = 0; stream < 40; ++stream) {
      SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes) +
                   ", stream " + std::to_string(stream));
      const int n = stream % 10 == 0 ? 0 : static_cast<int>(rng() % 300);
      FrameBuilder builder(frame_bytes);
      FrameTally tally(frame_bytes);
      std::string encoded;
      for (int i = 0; i < n; ++i) {
        Tuple t = random_tuple();
        encoded.clear();
        size_t size = AppendTupleTo(t, &encoded);
        EXPECT_EQ(builder.Append(t), size);
        tally.Add(size);
      }
      const uint64_t tuples = builder.tuple_count();
      const uint64_t bytes = builder.total_bytes();
      const uint64_t oversized = builder.oversized_frames();
      const uint64_t max_tuple = builder.max_tuple_bytes();
      std::vector<Frame> frames = builder.Finish();
      uint64_t frame_bytes_sum = 0;
      uint64_t frame_tuples = 0;
      uint64_t largest_single = 0;
      for (const Frame& f : frames) {
        frame_bytes_sum += f.bytes.size();
        frame_tuples += f.tuple_count;
        if (f.tuple_count == 1) {
          largest_single = std::max<uint64_t>(largest_single, f.bytes.size());
        }
      }
      EXPECT_EQ(tally.frames(), frames.size());
      EXPECT_EQ(tally.total_bytes(), frame_bytes_sum);
      EXPECT_EQ(tally.total_bytes(), bytes);
      EXPECT_EQ(tally.tuple_count(), frame_tuples);
      EXPECT_EQ(tally.tuple_count(), tuples);
      EXPECT_EQ(tally.tuple_count(), static_cast<uint64_t>(n));
      EXPECT_EQ(tally.oversized_frames(), oversized);
      EXPECT_EQ(tally.max_tuple_bytes(), max_tuple);
      EXPECT_GE(tally.max_tuple_bytes(), largest_single);
      EXPECT_EQ(ReadAll(frames).size(), static_cast<size_t>(n));
    }
  }
}

// A random item of every kind, nested up to `depth` levels. Lengths,
// counts and integers cluster around the varint boundaries.
Item RandomItem(std::mt19937* rng, int depth) {
  auto pick = [&](int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(*rng));
  };
  auto edge_size = [&]() -> size_t {
    static constexpr size_t kSizes[] = {0, 1, 127, 128, 200, 16383, 16384};
    return kSizes[pick(7)];
  };
  switch (pick(depth > 0 ? 9 : 6)) {
    case 0:
      return Item::Null();
    case 1:
      return Item::Boolean(pick(2) == 1);
    case 2: {
      static constexpr int64_t kInts[] = {0,     -1,     63,      64,
                                          -64,   -65,    8191,    8192,
                                          INT64_MAX, INT64_MIN, 123456789};
      return Item::Int64(kInts[pick(11)]);
    }
    case 3:
      return Item::Double(pick(1000) / 7.0);
    case 4:
      return Item::String(std::string(edge_size(), 'a' + pick(26)));
    case 5: {
      DateTimeValue dt;
      dt.year = 1990 + pick(40);
      return Item::DateTime(dt);
    }
    case 6:
    case 7: {
      // Wide containers only one level down, to bound the tuple size.
      size_t n = depth > 1 ? static_cast<size_t>(pick(4)) : edge_size() % 200;
      Item::ItemVector elems;
      for (size_t i = 0; i < n; ++i) {
        elems.push_back(RandomItem(rng, depth - 1));
      }
      return pick(2) == 0 ? Item::MakeArray(std::move(elems))
                          : Item::MakeSequence(std::move(elems));
    }
    default: {
      Item::Object fields;
      for (int i = pick(5); i > 0; --i) {
        fields.push_back(
            {std::string(edge_size() % 200, 'k'), RandomItem(rng, depth - 1)});
      }
      return Item::MakeObject(std::move(fields));
    }
  }
}

TEST(FrameTest, EncodedTupleSizeMatchesAppendTupleTo) {
  std::mt19937 rng(20260418);
  std::vector<Tuple> tuples = {
      {},
      Tuple(127, Item::Null()),  // the arity varint's boundary
      Tuple(128, Item::Int64(64)),
      {Item::String(std::string(1 << 20, 'x'))},  // a long string
  };
  for (int i = 0; i < 400; ++i) {
    Tuple t;
    for (int c = static_cast<int>(rng() % 6); c > 0; --c) {
      t.push_back(RandomItem(&rng, 3));
    }
    tuples.push_back(std::move(t));
  }
  std::string bytes;
  for (const Tuple& t : tuples) {
    bytes.clear();
    size_t written = AppendTupleTo(t, &bytes);
    ASSERT_EQ(written, bytes.size());
    EXPECT_EQ(EncodedTupleSize(t), written);
  }
}

}  // namespace
}  // namespace jpar
