// Wire layer of the distributed runtime (src/dist): payload codecs,
// message framing over a real socketpair, corrupt-input rejection,
// credit-window semantics, and the deterministic plan splitter.

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/engine.h"
#include "data/sensor_generator.h"
#include "dist/dispatcher.h"
#include "dist/exchange.h"
#include "dist/fragment.h"
#include "dist/protocol.h"
#include "dist/wire.h"
#include "dist/worker.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Payload primitives

TEST(PayloadTest, VarintRoundTrip) {
  std::string buf;
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                     ~0ull}) {
    PutVarint(v, &buf);
  }
  PayloadReader reader(buf);
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                     ~0ull}) {
    auto got = reader.Varint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(PayloadTest, SignedAndDoubleAndBytesRoundTrip) {
  std::string buf;
  PutVarintSigned(-12345, &buf);
  PutDouble(3.25, &buf);
  PutBytes("hello \0 world", &buf);
  PayloadReader reader(buf);
  auto i = reader.VarintSigned();
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(*i, -12345);
  auto d = reader.Double();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 3.25);
  auto s = reader.String();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, std::string("hello "));  // \0 truncates the literal
}

TEST(PayloadTest, TruncationRejected) {
  std::string buf;
  PutBytes("some payload bytes", &buf);
  // Every strict prefix must fail cleanly, never read out of bounds.
  for (size_t len = 0; len < buf.size(); ++len) {
    PayloadReader reader(std::string_view(buf.data(), len));
    auto got = reader.Bytes();
    EXPECT_FALSE(got.ok()) << "prefix of length " << len;
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kIOError);
    }
  }
}

// ---------------------------------------------------------------------
// Typed payloads

TEST(ProtocolTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.pid = 4242;
  auto got = DecodeHello(EncodeHello(msg));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->version, kProtocolVersion);
  EXPECT_EQ(got->pid, 4242);
}

TEST(ProtocolTest, FragmentRequestRoundTrip) {
  FragmentRequest req;
  req.query = "for $r in collection(\"/x\") return $r";
  req.rules = RuleOptions::None();
  req.rules.path_rules = true;
  req.exec.partitions = 7;
  req.exec.frame_bytes = 4096;
  req.exec.use_threads = true;
  req.exec.memory_limit_bytes = 123456;
  req.exec.spill = SpillMode::kEnabled;
  req.exec.deadline_ms = 1500;
  req.exec.expr_mode = ExprMode::kBytecode;
  req.exec.batch_size = 512;
  req.exec.storage_mode = StorageMode::kTape;
  req.exec.storage_cache_dir = "/tmp/jpar-cache";
  req.exec.storage_budget_bytes = 64ull << 20;
  req.stage_id = 2;
  req.worker_id = 3;
  req.worker_count = 4;
  req.fanout = 4;
  req.num_inputs = 2;
  req.deadline_remaining_ms = 987.5;
  req.credit_window = 16;

  auto got = DecodeFragmentRequest(EncodeFragmentRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->query, req.query);
  EXPECT_EQ(got->stage_id, 2);
  EXPECT_EQ(got->worker_id, 3);
  EXPECT_EQ(got->worker_count, 4);
  EXPECT_EQ(got->fanout, 4);
  EXPECT_EQ(got->num_inputs, 2);
  EXPECT_EQ(got->deadline_remaining_ms, 987.5);
  EXPECT_EQ(got->credit_window, 16u);
  EXPECT_EQ(got->exec.partitions, 7);
  EXPECT_EQ(got->exec.frame_bytes, 4096u);
  EXPECT_TRUE(got->exec.use_threads);
  EXPECT_EQ(got->exec.memory_limit_bytes, 123456u);
  EXPECT_EQ(got->exec.spill, SpillMode::kEnabled);
  EXPECT_EQ(got->exec.deadline_ms, 1500);
  EXPECT_EQ(got->exec.expr_mode, ExprMode::kBytecode);
  EXPECT_EQ(got->exec.batch_size, 512u);
  EXPECT_EQ(got->exec.storage_mode, StorageMode::kTape);
  EXPECT_EQ(got->exec.storage_cache_dir, "/tmp/jpar-cache");
  EXPECT_EQ(got->exec.storage_budget_bytes, 64ull << 20);
  // Rules round-trip exactly: compare the canonical encodings.
  std::string a, b;
  EncodeRuleOptions(req.rules, &a);
  EncodeRuleOptions(got->rules, &b);
  EXPECT_EQ(a, b);
}

// "name=value" for every counter of a stats.h list, in list order.
template <typename Counters>
std::vector<std::string> CounterValues(const Counters& c) {
  std::vector<std::string> out;
  c.ForEachCounter([&out](const char* name, auto v, CounterMerge) {
    out.push_back(std::string(name) + "=" + std::to_string(v));
  });
  return out;
}

TEST(ProtocolTest, OutputEofRoundTrip) {
  OutputEofMsg msg;
  msg.code = StatusCode::kDeadlineExceeded;
  msg.message = "deadline exceeded during SCAN";
  msg.stats.stages.resize(2);
  msg.stats.stages[1].name = "join";
  msg.stats.stages[1].partition_ms = {1.5, 2.5};
  msg.stats.stages[1].exchange_task_ms = {{0.25}, {0.5, 0.75}};
  // Every counter gets its own value, so a counter the codec drops,
  // truncates or swaps with a neighbour shows up below.
  uint64_t next = 1;
  auto fill = [&next](const char*, auto& v, CounterMerge) {
    using T = std::remove_reference_t<decltype(v)>;
    v = static_cast<T>(next++ * 1000003);
    if constexpr (std::is_floating_point_v<T>) v += 0.25;
  };
  msg.stats.ForEachCounter(fill);
  for (StageStats& s : msg.stats.stages) s.ForEachCounter(fill);

  auto got = DecodeOutputEof(EncodeOutputEof(msg));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(got->message, msg.message);
  EXPECT_EQ(CounterValues(got->stats), CounterValues(msg.stats));
  ASSERT_EQ(got->stats.stages.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const StageStats& want = msg.stats.stages[i];
    const StageStats& have = got->stats.stages[i];
    EXPECT_EQ(have.name, want.name);
    EXPECT_EQ(have.partition_ms, want.partition_ms);
    EXPECT_EQ(have.exchange_task_ms, want.exchange_task_ms);
    EXPECT_EQ(CounterValues(have), CounterValues(want)) << i;
  }
}

TEST(ProtocolTest, HugeCountsRejectedBeforeAllocating) {
  // An OutputEof whose one stage claims 2^40 partition times.
  std::string eof;
  PutVarint(0, &eof);           // kOk
  PutBytes("", &eof);           // message
  PutVarint(1, &eof);           // stages
  PutBytes("scan", &eof);       // stage name
  PutVarint(1ull << 40, &eof);  // partition_ms count, no values follow
  auto got = DecodeOutputEof(eof);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);

  // A catalog sync whose one collection claims 2^40 files.
  std::string sync;
  PutVarint(1, &sync);           // version
  PutVarint(1, &sync);           // collections
  PutBytes("/c", &sync);         // name
  PutVarint(1ull << 40, &sync);  // file count, no files follow
  Catalog catalog;
  uint64_t version = 0;
  Status st = DecodeCatalogSyncInto(sync, &catalog, &version);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(ProtocolTest, CancelAndCreditRoundTrip) {
  CancelMsg cancel;
  cancel.code = StatusCode::kCancelled;
  cancel.message = "client gave up";
  auto got = DecodeCancel(EncodeCancel(cancel));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->code, StatusCode::kCancelled);
  EXPECT_EQ(got->message, "client gave up");

  auto credit = DecodeCredit(EncodeCredit(17));
  ASSERT_TRUE(credit.ok());
  EXPECT_EQ(*credit, 17u);

  auto ack = DecodeSyncAck(EncodeSyncAck(99));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(*ack, 99u);
}

TEST(ProtocolTest, StatusFromCodeCoversEveryCode) {
  EXPECT_TRUE(StatusFromCode(StatusCode::kOk, "").ok());
  for (int c = 1; c < kStatusCodeCount; ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    Status st = StatusFromCode(code, "wire message");
    EXPECT_EQ(st.code(), code) << c;
    EXPECT_EQ(st.message(), "wire message") << c;
  }
}

TEST(ProtocolTest, CatalogSyncRoundTrip) {
  SensorDataSpec spec;
  spec.num_files = 2;
  spec.records_per_file = 4;
  spec.measurements_per_array = 6;
  spec.seed = 11;

  Engine source;
  source.catalog()->RegisterCollection("/sensors",
                                       GenerateSensorCollection(spec));
  std::string payload = EncodeCatalogSync(*source.catalog());

  Engine replica;
  uint64_t version = 0;
  Status st = DecodeCatalogSyncInto(payload, replica.catalog(), &version);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(version, source.catalog()->version());

  const char* count_query = R"(
    count(collection("/sensors")("root")()("results")()))";
  auto a = source.Run(count_query);
  auto b = replica.Run(count_query);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->items.size(), 1u);
  ASSERT_EQ(b->items.size(), 1u);
  EXPECT_EQ(a->items[0].int64_value(), b->items[0].int64_value());
  EXPECT_GT(a->items[0].int64_value(), 0);
}

// ---------------------------------------------------------------------
// Framing over a real socketpair

TEST(WireTest, MessageRoundTripOverSocketpair) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  Socket a = std::move(pair->first);
  Socket b = std::move(pair->second);

  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.push_back({Item::Int64(i), Item::String("row-" +
                                                   std::to_string(i))});
  }
  std::vector<FrameMsg> frames = TuplesToFrames(tuples, 3, 256);
  ASSERT_GT(frames.size(), 1u);  // small frame target => several frames

  for (const FrameMsg& f : frames) {
    ASSERT_TRUE(WriteMessage(&a, static_cast<uint8_t>(MsgType::kInputFrame),
                             EncodeFrameMsg(f))
                    .ok());
  }
  a.Close();  // clean EOF after the last message

  std::vector<Tuple> got;
  WireMessage msg;
  while (true) {
    auto more = ReadMessage(&b, &msg);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_EQ(msg.type, static_cast<uint8_t>(MsgType::kInputFrame));
    auto frame = DecodeFrameMsg(msg.payload);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->channel, 3u);
    ASSERT_TRUE(AppendFrameTuples(*frame, &got).ok());
  }
  ASSERT_EQ(got.size(), tuples.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), 2u);
    EXPECT_EQ(got[i][0].int64_value(), tuples[i][0].int64_value());
    EXPECT_EQ(got[i][1].string_value(), tuples[i][1].string_value());
  }
}

TEST(WireTest, CorruptMagicRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  const char garbage[] = "XXXXYYYYZZZZ";
  ASSERT_TRUE(pair->first.SendAll(garbage, sizeof(garbage)).ok());
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST(WireTest, OversizedLengthRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  // Valid magic and type, but a payload length beyond the cap.
  std::string header;
  uint32_t magic = kWireMagic;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header.push_back(static_cast<char>(MsgType::kPing));
  uint32_t len = kMaxWirePayload + 1;
  header.append(reinterpret_cast<const char*>(&len), 4);
  uint32_t crc = 0;  // never reached: the length check rejects first
  header.append(reinterpret_cast<const char*>(&crc), 4);
  ASSERT_EQ(header.size(), kWireHeaderBytes);
  ASSERT_TRUE(pair->first.SendAll(header.data(), header.size()).ok());
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST(WireTest, TruncatedPayloadRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  // Header promises 64 payload bytes; only 10 arrive before EOF.
  std::string partial;
  uint32_t magic = kWireMagic;
  partial.append(reinterpret_cast<const char*>(&magic), 4);
  partial.push_back(static_cast<char>(MsgType::kInputFrame));
  uint32_t len = 64;
  partial.append(reinterpret_cast<const char*>(&len), 4);
  uint32_t crc = 0;
  partial.append(reinterpret_cast<const char*>(&crc), 4);
  partial.append(10, 'x');
  ASSERT_TRUE(pair->first.SendAll(partial.data(), partial.size()).ok());
  pair->first.Close();
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST(WireTest, ChecksumMismatchRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  // A well-formed message whose payload was corrupted in flight: the
  // header carries the CRC of the original payload, the bytes on the
  // wire differ by one bit.
  std::string payload = "structurally valid payload bytes";
  std::string corrupted = payload;
  corrupted[5] ^= 0x01;
  std::string msg_bytes;
  uint32_t magic = kWireMagic;
  msg_bytes.append(reinterpret_cast<const char*>(&magic), 4);
  msg_bytes.push_back(static_cast<char>(MsgType::kInputFrame));
  uint32_t len = static_cast<uint32_t>(payload.size());
  msg_bytes.append(reinterpret_cast<const char*>(&len), 4);
  uint32_t crc = WireCrc32(payload);
  msg_bytes.append(reinterpret_cast<const char*>(&crc), 4);
  msg_bytes.append(corrupted);
  ASSERT_TRUE(pair->first.SendAll(msg_bytes.data(), msg_bytes.size()).ok());
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_NE(got.status().message().find("checksum"), std::string::npos)
      << got.status().ToString();

  // The uncorrupted bytes round-trip fine.
  auto pair2 = Socket::Pair();
  ASSERT_TRUE(pair2.ok());
  ASSERT_TRUE(WriteMessage(&pair2->first,
                           static_cast<uint8_t>(MsgType::kInputFrame), payload)
                  .ok());
  auto ok = ReadMessage(&pair2->second, &msg);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok);
  EXPECT_EQ(msg.payload, payload);
}

TEST(WireTest, Crc32MatchesKnownVectors) {
  // The standard CRC-32 (reflected, poly 0xEDB88320) check values.
  EXPECT_EQ(WireCrc32(""), 0x00000000u);
  EXPECT_EQ(WireCrc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(WireCrc32("a"), 0xE8B7BE43u);
  // Sensitive to every bit: flipping one payload bit changes the sum.
  EXPECT_NE(WireCrc32(std::string("ab")), WireCrc32(std::string("ac")));
}

TEST(WireTest, CleanEofReturnsFalse) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  pair->first.Close();
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(*got);
}

TEST(WireTest, TupleCountMismatchRejected) {
  std::vector<Tuple> tuples = {{Item::Int64(1)}, {Item::Int64(2)}};
  std::vector<FrameMsg> frames = TuplesToFrames(tuples, 0, 1 << 16);
  ASSERT_EQ(frames.size(), 1u);
  frames[0].tuple_count += 1;  // header lies about the tuple count
  std::vector<Tuple> out;
  Status st = AppendFrameTuples(frames[0], &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// Credit window

TEST(CreditWindowTest, AcquireGrantTimeout) {
  CreditWindow window;
  window.Reset(1);
  EXPECT_TRUE(window.Acquire(0).ok() || window.Acquire(-1).ok());
  // Empty window: a bounded wait times out with kUnavailable.
  Status st = window.Acquire(30);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  window.Grant(1);
  EXPECT_TRUE(window.Acquire(30).ok());
}

TEST(CreditWindowTest, PoisonWakesBlockedSender) {
  CreditWindow window;
  window.Reset(0);
  Status observed;
  std::thread sender([&] { observed = window.Acquire(-1); });
  // Give the sender time to block, then poison.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  window.Poison(Status::WorkerLost("worker 1 died"));
  sender.join();
  ASSERT_FALSE(observed.ok());
  EXPECT_EQ(observed.code(), StatusCode::kWorkerLost);

  // Poison latches for future acquires...
  EXPECT_EQ(window.Acquire(0).code(), StatusCode::kWorkerLost);
  // ...until the next Reset re-arms the window.
  window.Reset(1);
  EXPECT_TRUE(window.Acquire(0).ok());
}

// ---------------------------------------------------------------------
// Plan splitter

class SplitTest : public ::testing::Test {
 protected:
  static Result<StagePlan> Split(const std::string& query) {
    Engine engine;
    auto compiled = engine.Compile(query, RuleOptions::All());
    if (!compiled.ok()) return compiled.status();
    // The split references plan nodes; keep the plan alive via a
    // static cache for the duration of the assertion-only tests.
    static std::vector<CompiledQuery>* plans =
        new std::vector<CompiledQuery>();
    plans->push_back(*std::move(compiled));
    return SplitPlanForDistribution(plans->back().physical);
  }
};

TEST_F(SplitTest, PurePipelineIsOneGatherStage) {
  auto split = Split(R"(
    for $r in collection("/sensors")("root")()("results")()
    where $r("dataType") eq "TMIN"
    return $r("value"))");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_EQ(split->stages.size(), 1u);
  EXPECT_EQ(split->stages[0].core, FragmentStage::Core::kLeaf);
  EXPECT_FALSE(split->stages[0].shuffled);
  EXPECT_TRUE(split->stages[0].inputs.empty());
}

TEST_F(SplitTest, GroupByBecomesTwoStagesWithTwoStepShuffle) {
  auto split = Split(R"(
    for $r in collection("/sensors")("root")()("results")()
    where $r("dataType") eq "TMIN"
    group by $date := $r("date")
    return count($r("station")))");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_EQ(split->stages.size(), 2u);
  const FragmentStage& leaf = split->stages[0];
  const FragmentStage& merge = split->stages[1];
  EXPECT_EQ(leaf.core, FragmentStage::Core::kLeaf);
  EXPECT_TRUE(leaf.shuffled);
  // RuleOptions::All() enables two-step aggregation for count().
  EXPECT_NE(leaf.local_groupby, nullptr);
  EXPECT_EQ(merge.core, FragmentStage::Core::kGroupByMerge);
  EXPECT_TRUE(merge.from_partials);
  EXPECT_FALSE(merge.shuffled);
  ASSERT_EQ(merge.inputs.size(), 1u);
  EXPECT_EQ(merge.inputs[0], leaf.id);
}

TEST_F(SplitTest, JoinFansInTwoShuffledProducers) {
  auto split = Split(R"(
    avg(
      for $a in collection("/s")("root")()("results")()
      for $b in collection("/s")("root")()("results")()
      where $a("station") eq $b("station")
        and $a("dataType") eq "TMIN"
        and $b("dataType") eq "TMAX"
      return $b("value") - $a("value")
    ) div 10)");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const FragmentStage* join = nullptr;
  for (const FragmentStage& stage : split->stages) {
    if (stage.core == FragmentStage::Core::kJoin) join = &stage;
  }
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->inputs.size(), 2u);
  EXPECT_TRUE(split->stages[join->inputs[0]].shuffled);
  EXPECT_TRUE(split->stages[join->inputs[1]].shuffled);
  EXPECT_FALSE(split->stages.back().shuffled);  // final stage gathers
}

TEST_F(SplitTest, UnsupportedShapesFallBack) {
  // No collection scan at the leaf (EMPTY-TUPLE-SOURCE).
  auto constant = Split("1 + 1");
  ASSERT_FALSE(constant.ok());
  EXPECT_EQ(constant.status().code(), StatusCode::kUnsupported);

  // Sorts are not distributed.
  auto sorted = Split(R"(
    for $r in collection("/s")("root")()("results")()
    order by $r("date")
    return $r)");
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------
// Handshake and fragment-request checks

TEST(HandshakeTest, WorkerOfAnotherProtocolVersionIsDropped) {
  const std::string path = ::testing::TempDir() + "jpar-hello-" +
                           std::to_string(::getpid()) + ".sock";
  const std::string endpoint = "unix:" + path;
  auto listener = Socket::ListenOn(endpoint);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  // A stand-in for a jpar_worker from another build: it says hello with
  // a different version, then waits for the dispatcher to hang up.
  std::thread worker([&listener] {
    auto conn = listener->Accept();
    if (!conn.ok()) return;
    HelloMsg hello;
    hello.version = kProtocolVersion + 1;
    if (!WriteMessage(&*conn, static_cast<uint8_t>(MsgType::kHello),
                      EncodeHello(hello))
             .ok()) {
      return;
    }
    WireMessage msg;
    while (true) {
      Result<bool> more = ReadMessage(&*conn, &msg);
      if (!more.ok() || !*more) return;
    }
  });

  DistOptions dist;
  dist.endpoints = {endpoint};
  Cluster cluster(dist);
  Status st = cluster.Start();
  cluster.Stop();
  worker.join();
  ::unlink(path.c_str());
  EXPECT_EQ(st.code(), StatusCode::kWorkerLost) << st.ToString();
  EXPECT_NE(st.message().find("protocol version"), std::string::npos)
      << st.ToString();
}

// Plays the dispatcher against an in-process WorkerServer over a
// socketpair.
class WorkerRequestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pair = Socket::Pair();
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    sock_ = std::move(pair->first);
    server_ = std::thread([peer = std::move(pair->second)]() mutable {
      WorkerServer server;
      (void)server.Serve(std::move(peer));
    });
    WireMessage hello = Read();
    ASSERT_EQ(hello.type, static_cast<uint8_t>(MsgType::kHello));
    Send(MsgType::kHelloAck, "");
    Catalog catalog;
    Collection coll;
    coll.files.push_back(JsonFile::FromText("{\"a\": 1}\n{\"a\": 2}\n"));
    catalog.RegisterCollection("/c", std::move(coll));
    Send(MsgType::kSyncCatalog, EncodeCatalogSync(catalog));
    ASSERT_EQ(Read().type, static_cast<uint8_t>(MsgType::kSyncAck));
  }

  void TearDown() override {
    Send(MsgType::kShutdown, "");
    server_.join();
  }

  void Send(MsgType type, std::string_view payload) {
    Status st = WriteMessage(&sock_, static_cast<uint8_t>(type), payload);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  WireMessage Read() {
    WireMessage msg;
    Result<bool> more = ReadMessage(&sock_, &msg);
    EXPECT_TRUE(more.ok() && *more);
    return msg;
  }

  /// A valid request for the one-stage pipeline over "/c".
  static FragmentRequest Request() {
    FragmentRequest req;
    req.query = R"(for $r in collection("/c") return $r("a"))";
    req.rules = RuleOptions::All();
    return req;
  }

  /// Sends `req` plus one kInputEof per declared input, as the
  /// dispatcher does, and returns the status code the worker reports.
  StatusCode Run(const FragmentRequest& req) {
    Send(MsgType::kRunFragment, EncodeFragmentRequest(req));
    for (int i = 0; i < req.num_inputs; ++i) Send(MsgType::kInputEof, "");
    WireMessage msg;
    while (true) {
      Result<bool> more = ReadMessage(&sock_, &msg);
      if (!more.ok() || !*more) {
        ADD_FAILURE() << "worker hung up before kOutputEof";
        return StatusCode::kInternal;
      }
      if (msg.type == static_cast<uint8_t>(MsgType::kOutputEof)) {
        auto eof = DecodeOutputEof(msg.payload);
        EXPECT_TRUE(eof.ok()) << eof.status().ToString();
        return eof.ok() ? eof->code : StatusCode::kInternal;
      }
      if (msg.type == static_cast<uint8_t>(MsgType::kOutputFrame)) {
        Send(MsgType::kCredit, EncodeCredit(1));
      }
    }
  }

  Socket sock_;
  std::thread server_;
};

TEST_F(WorkerRequestTest, InvalidExecOptionsRejected) {
  FragmentRequest zero_partitions = Request();
  zero_partitions.exec.partitions = 0;
  EXPECT_EQ(Run(zero_partitions), StatusCode::kInvalidArgument);

  FragmentRequest bad_mode = Request();
  bad_mode.exec.scan_mode = static_cast<ScanMode>(99);
  EXPECT_EQ(Run(bad_mode), StatusCode::kInvalidArgument);

  // The connection stays usable after a rejection.
  EXPECT_EQ(Run(Request()), StatusCode::kOk);
}

TEST_F(WorkerRequestTest, InputCountOtherThanTheStagesRejected) {
  // The stage is a scan leaf: it takes no inputs.
  FragmentRequest req = Request();
  req.num_inputs = 3;
  EXPECT_EQ(Run(req), StatusCode::kInvalidArgument);

  EXPECT_EQ(Run(Request()), StatusCode::kOk);
}

}  // namespace
}  // namespace jpar
