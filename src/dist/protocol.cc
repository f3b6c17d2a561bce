#include "dist/protocol.h"

#include <cstring>

namespace jpar {

// ---------------------------------------------------------------------
// Primitive serde

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutVarintSigned(int64_t v, std::string* out) {
  PutVarint((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63),
            out);
}

void PutDouble(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void PutBytes(std::string_view v, std::string* out) {
  PutVarint(v.size(), out);
  out->append(v.data(), v.size());
}

Result<uint64_t> PayloadReader::Varint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      return Status::IOError("truncated varint in protocol payload");
    }
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) {
      return Status::IOError("overlong varint in protocol payload");
    }
  }
}

Result<int64_t> PayloadReader::VarintSigned() {
  JPAR_ASSIGN_OR_RETURN(uint64_t raw, Varint());
  return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

Result<uint8_t> PayloadReader::Byte() {
  if (pos_ >= data_.size()) {
    return Status::IOError("truncated byte in protocol payload");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<double> PayloadReader::Double() {
  if (pos_ + 8 > data_.size()) {
    return Status::IOError("truncated double in protocol payload");
  }
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
  }
  pos_ += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string_view> PayloadReader::Bytes() {
  JPAR_ASSIGN_OR_RETURN(uint64_t len, Varint());
  if (len > remaining()) {
    return Status::IOError("truncated bytes in protocol payload: need " +
                           std::to_string(len) + ", have " +
                           std::to_string(remaining()));
  }
  std::string_view v = data_.substr(pos_, len);
  pos_ += len;
  return v;
}

// ---------------------------------------------------------------------
// Hello

std::string EncodeHello(const HelloMsg& msg) {
  std::string out;
  PutVarint(msg.version, &out);
  PutVarintSigned(msg.pid, &out);
  return out;
}

Result<HelloMsg> DecodeHello(std::string_view payload) {
  PayloadReader r(payload);
  HelloMsg msg;
  JPAR_ASSIGN_OR_RETURN(uint64_t version, r.Varint());
  // A peer from another build would misdecode every later payload.
  if (version != kProtocolVersion) {
    return Status::IOError("peer speaks protocol version " +
                           std::to_string(version) + ", this build speaks " +
                           std::to_string(kProtocolVersion));
  }
  msg.version = static_cast<uint32_t>(version);
  JPAR_ASSIGN_OR_RETURN(msg.pid, r.VarintSigned());
  return msg;
}

// ---------------------------------------------------------------------
// Options / stats serde

void EncodeRuleOptions(const RuleOptions& rules, std::string* out) {
  uint8_t bits = 0;
  if (rules.path_rules) bits |= 1u << 0;
  if (rules.pipelining_rules) bits |= 1u << 1;
  if (rules.pipelining_pushdown) bits |= 1u << 2;
  if (rules.groupby_rules) bits |= 1u << 3;
  if (rules.two_step_aggregation) bits |= 1u << 4;
  if (rules.join_rules) bits |= 1u << 5;
  if (rules.index_rules) bits |= 1u << 6;
  if (rules.scan_filter) bits |= 1u << 7;
  out->push_back(static_cast<char>(bits));
}

Status DecodeRuleOptions(PayloadReader* reader, RuleOptions* out) {
  JPAR_ASSIGN_OR_RETURN(uint8_t bits, reader->Byte());
  out->path_rules = (bits & (1u << 0)) != 0;
  out->pipelining_rules = (bits & (1u << 1)) != 0;
  out->pipelining_pushdown = (bits & (1u << 2)) != 0;
  out->groupby_rules = (bits & (1u << 3)) != 0;
  out->two_step_aggregation = (bits & (1u << 4)) != 0;
  out->join_rules = (bits & (1u << 5)) != 0;
  out->index_rules = (bits & (1u << 6)) != 0;
  out->scan_filter = (bits & (1u << 7)) != 0;
  return Status::OK();
}

void EncodeExecOptions(const ExecOptions& exec, std::string* out) {
  PutVarintSigned(exec.partitions, out);
  PutVarintSigned(exec.partitions_per_node, out);
  PutVarintSigned(exec.cores_per_node, out);
  PutVarint(exec.frame_bytes, out);
  PutVarint(exec.memory_limit_bytes, out);
  out->push_back(static_cast<char>(exec.spill));
  PutVarintSigned(exec.spill_fanout, out);
  PutBytes(exec.spill_dir, out);
  out->push_back(exec.use_threads ? 1 : 0);
  PutDouble(exec.network_gbps, out);
  PutDouble(exec.network_latency_ms_per_frame, out);
  PutDouble(exec.deadline_ms, out);
  out->push_back(static_cast<char>(exec.on_parse_error));
  out->push_back(static_cast<char>(exec.scan_mode));
  PutVarint(exec.morsel_bytes, out);
  out->push_back(exec.cooperative_checks ? 1 : 0);
  out->push_back(static_cast<char>(exec.expr_mode));
  PutVarint(exec.batch_size, out);
  out->push_back(static_cast<char>(exec.storage_mode));
  PutBytes(exec.storage_cache_dir, out);
  out->push_back(static_cast<char>(exec.stats_mode));
}

Status DecodeExecOptions(PayloadReader* r, ExecOptions* out) {
  JPAR_ASSIGN_OR_RETURN(int64_t partitions, r->VarintSigned());
  out->partitions = static_cast<int>(partitions);
  JPAR_ASSIGN_OR_RETURN(int64_t ppn, r->VarintSigned());
  out->partitions_per_node = static_cast<int>(ppn);
  JPAR_ASSIGN_OR_RETURN(int64_t cores, r->VarintSigned());
  out->cores_per_node = static_cast<int>(cores);
  JPAR_ASSIGN_OR_RETURN(uint64_t frame_bytes, r->Varint());
  out->frame_bytes = static_cast<size_t>(frame_bytes);
  JPAR_ASSIGN_OR_RETURN(out->memory_limit_bytes, r->Varint());
  JPAR_ASSIGN_OR_RETURN(uint8_t spill, r->Byte());
  out->spill = static_cast<SpillMode>(spill);
  JPAR_ASSIGN_OR_RETURN(int64_t fanout, r->VarintSigned());
  out->spill_fanout = static_cast<int>(fanout);
  JPAR_ASSIGN_OR_RETURN(out->spill_dir, r->String());
  JPAR_ASSIGN_OR_RETURN(uint8_t use_threads, r->Byte());
  out->use_threads = use_threads != 0;
  JPAR_ASSIGN_OR_RETURN(out->network_gbps, r->Double());
  JPAR_ASSIGN_OR_RETURN(out->network_latency_ms_per_frame, r->Double());
  JPAR_ASSIGN_OR_RETURN(out->deadline_ms, r->Double());
  JPAR_ASSIGN_OR_RETURN(uint8_t on_parse_error, r->Byte());
  out->on_parse_error = static_cast<ParseErrorPolicy>(on_parse_error);
  JPAR_ASSIGN_OR_RETURN(uint8_t scan_mode, r->Byte());
  out->scan_mode = static_cast<ScanMode>(scan_mode);
  JPAR_ASSIGN_OR_RETURN(uint64_t morsel_bytes, r->Varint());
  out->morsel_bytes = static_cast<size_t>(morsel_bytes);
  JPAR_ASSIGN_OR_RETURN(uint8_t coop, r->Byte());
  out->cooperative_checks = coop != 0;
  JPAR_ASSIGN_OR_RETURN(uint8_t expr_mode, r->Byte());
  out->expr_mode = static_cast<ExprMode>(expr_mode);
  JPAR_ASSIGN_OR_RETURN(uint64_t batch_size, r->Varint());
  out->batch_size = static_cast<size_t>(batch_size);
  JPAR_ASSIGN_OR_RETURN(uint8_t storage_mode, r->Byte());
  out->storage_mode = static_cast<StorageMode>(storage_mode);
  JPAR_ASSIGN_OR_RETURN(out->storage_cache_dir, r->String());
  JPAR_ASSIGN_OR_RETURN(uint8_t stats_mode, r->Byte());
  out->stats_mode = static_cast<StatsMode>(stats_mode);
  return Status::OK();
}

namespace {

void EncodeDoubleVec(const std::vector<double>& v, std::string* out) {
  PutVarint(v.size(), out);
  for (double d : v) PutDouble(d, out);
}

Status DecodeDoubleVec(PayloadReader* r, std::vector<double>* out) {
  JPAR_ASSIGN_OR_RETURN(uint64_t n, r->Varint());
  // Checked before reserving: a corrupt count must not size a buffer.
  if (n > r->remaining() / 8) {
    return Status::IOError("corrupt double vector: " + std::to_string(n) +
                           " values in " + std::to_string(r->remaining()) +
                           " bytes");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    JPAR_ASSIGN_OR_RETURN(double d, r->Double());
    out->push_back(d);
  }
  return Status::OK();
}

void PutCounter(uint64_t v, std::string* out) { PutVarint(v, out); }
void PutCounter(double v, std::string* out) { PutDouble(v, out); }

Status ReadCounter(PayloadReader* r, uint64_t* v) {
  JPAR_ASSIGN_OR_RETURN(*v, r->Varint());
  return Status::OK();
}
Status ReadCounter(PayloadReader* r, double* v) {
  JPAR_ASSIGN_OR_RETURN(*v, r->Double());
  return Status::OK();
}

/// Every counter of a StageStats or ExecCounters, in list order.
template <typename Counters>
void EncodeCounters(const Counters& c, std::string* out) {
  c.ForEachCounter(
      [out](const char*, auto v, CounterMerge) { PutCounter(v, out); });
}

template <typename Counters>
Status DecodeCounters(PayloadReader* r, Counters* c) {
  Status st;
  c->ForEachCounter([&](const char*, auto& v, CounterMerge) {
    if (st.ok()) st = ReadCounter(r, &v);
  });
  return st;
}

}  // namespace

void EncodeExecStats(const ExecStats& stats, std::string* out) {
  PutVarint(stats.stages.size(), out);
  for (const StageStats& s : stats.stages) {
    PutBytes(s.name, out);
    EncodeDoubleVec(s.partition_ms, out);
    PutVarint(s.exchange_task_ms.size(), out);
    for (const std::vector<double>& phase : s.exchange_task_ms) {
      EncodeDoubleVec(phase, out);
    }
    EncodeCounters(s, out);
  }
  EncodeCounters(stats, out);
}

Status DecodeExecStats(PayloadReader* r, ExecStats* out) {
  JPAR_ASSIGN_OR_RETURN(uint64_t nstages, r->Varint());
  out->stages.clear();
  for (uint64_t i = 0; i < nstages; ++i) {
    StageStats s;
    JPAR_ASSIGN_OR_RETURN(s.name, r->String());
    JPAR_RETURN_NOT_OK(DecodeDoubleVec(r, &s.partition_ms));
    JPAR_ASSIGN_OR_RETURN(uint64_t nphases, r->Varint());
    for (uint64_t p = 0; p < nphases; ++p) {
      std::vector<double> phase;
      JPAR_RETURN_NOT_OK(DecodeDoubleVec(r, &phase));
      s.exchange_task_ms.push_back(std::move(phase));
    }
    JPAR_RETURN_NOT_OK(DecodeCounters(r, &s));
    out->stages.push_back(std::move(s));
  }
  return DecodeCounters(r, out);
}

// ---------------------------------------------------------------------
// FragmentRequest

std::string EncodeFragmentRequest(const FragmentRequest& req) {
  std::string out;
  PutBytes(req.query, &out);
  EncodeRuleOptions(req.rules, &out);
  EncodeExecOptions(req.exec, &out);
  PutVarintSigned(req.stage_id, &out);
  PutVarintSigned(req.worker_id, &out);
  PutVarintSigned(req.worker_count, &out);
  PutVarintSigned(req.fanout, &out);
  PutVarintSigned(req.num_inputs, &out);
  PutDouble(req.deadline_remaining_ms, &out);
  PutVarint(req.credit_window, &out);
  return out;
}

Result<FragmentRequest> DecodeFragmentRequest(std::string_view payload) {
  PayloadReader r(payload);
  FragmentRequest req;
  JPAR_ASSIGN_OR_RETURN(req.query, r.String());
  JPAR_RETURN_NOT_OK(DecodeRuleOptions(&r, &req.rules));
  JPAR_RETURN_NOT_OK(DecodeExecOptions(&r, &req.exec));
  JPAR_ASSIGN_OR_RETURN(int64_t stage_id, r.VarintSigned());
  req.stage_id = static_cast<int>(stage_id);
  JPAR_ASSIGN_OR_RETURN(int64_t worker_id, r.VarintSigned());
  req.worker_id = static_cast<int>(worker_id);
  JPAR_ASSIGN_OR_RETURN(int64_t worker_count, r.VarintSigned());
  req.worker_count = static_cast<int>(worker_count);
  JPAR_ASSIGN_OR_RETURN(int64_t fanout, r.VarintSigned());
  req.fanout = static_cast<int>(fanout);
  JPAR_ASSIGN_OR_RETURN(int64_t num_inputs, r.VarintSigned());
  req.num_inputs = static_cast<int>(num_inputs);
  JPAR_ASSIGN_OR_RETURN(req.deadline_remaining_ms, r.Double());
  JPAR_ASSIGN_OR_RETURN(uint64_t credit_window, r.Varint());
  req.credit_window = static_cast<uint32_t>(credit_window);
  if (req.worker_count < 1 || req.worker_id < 0 ||
      req.worker_id >= req.worker_count || req.stage_id < 0 ||
      req.num_inputs < 0 || req.fanout < 0) {
    return Status::IOError("corrupt fragment request: bad topology fields");
  }
  return req;
}

// ---------------------------------------------------------------------
// Frames

std::string EncodeFrameMsg(const FrameMsg& msg) {
  std::string out;
  PutVarint(msg.channel, &out);
  PutVarint(msg.tuple_count, &out);
  PutBytes(msg.bytes, &out);
  return out;
}

Result<FrameMsg> DecodeFrameMsg(std::string_view payload) {
  PayloadReader r(payload);
  FrameMsg msg;
  JPAR_ASSIGN_OR_RETURN(uint64_t channel, r.Varint());
  msg.channel = static_cast<uint32_t>(channel);
  JPAR_ASSIGN_OR_RETURN(uint64_t tuples, r.Varint());
  msg.tuple_count = static_cast<uint32_t>(tuples);
  JPAR_ASSIGN_OR_RETURN(std::string_view bytes, r.Bytes());
  msg.bytes.assign(bytes.data(), bytes.size());
  return msg;
}

// ---------------------------------------------------------------------
// Completion / cancel / credit

std::string EncodeOutputEof(const OutputEofMsg& msg) {
  std::string out;
  PutVarint(static_cast<uint64_t>(msg.code), &out);
  PutBytes(msg.message, &out);
  EncodeExecStats(msg.stats, &out);
  return out;
}

Result<OutputEofMsg> DecodeOutputEof(std::string_view payload) {
  PayloadReader r(payload);
  OutputEofMsg msg;
  JPAR_ASSIGN_OR_RETURN(uint64_t code, r.Varint());
  if (code >= static_cast<uint64_t>(kStatusCodeCount)) {
    return Status::IOError("corrupt output eof: unknown status code " +
                           std::to_string(code));
  }
  msg.code = static_cast<StatusCode>(code);
  JPAR_ASSIGN_OR_RETURN(msg.message, r.String());
  JPAR_RETURN_NOT_OK(DecodeExecStats(&r, &msg.stats));
  return msg;
}

std::string EncodeCancel(const CancelMsg& msg) {
  std::string out;
  PutVarint(static_cast<uint64_t>(msg.code), &out);
  PutBytes(msg.message, &out);
  return out;
}

Result<CancelMsg> DecodeCancel(std::string_view payload) {
  PayloadReader r(payload);
  CancelMsg msg;
  JPAR_ASSIGN_OR_RETURN(uint64_t code, r.Varint());
  if (code >= static_cast<uint64_t>(kStatusCodeCount)) {
    return Status::IOError("corrupt cancel: unknown status code " +
                           std::to_string(code));
  }
  msg.code = static_cast<StatusCode>(code);
  JPAR_ASSIGN_OR_RETURN(msg.message, r.String());
  return msg;
}

Status StatusFromCode(StatusCode code, std::string message) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(message));
    case StatusCode::kTypeError:
      return Status::TypeError(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kIOError:
      return Status::IOError(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kWorkerLost:
      return Status::WorkerLost(std::move(message));
  }
  return Status::Internal("unknown status code " +
                          std::to_string(static_cast<int>(code)));
}

std::string EncodeCredit(uint32_t frames) {
  std::string out;
  PutVarint(frames, &out);
  return out;
}

Result<uint32_t> DecodeCredit(std::string_view payload) {
  PayloadReader r(payload);
  JPAR_ASSIGN_OR_RETURN(uint64_t frames, r.Varint());
  return static_cast<uint32_t>(frames);
}

// ---------------------------------------------------------------------
// Catalog sync

namespace {

// File kinds on the wire.
constexpr uint8_t kFileText = 0;
constexpr uint8_t kFilePath = 1;
constexpr uint8_t kFileBinary = 2;

void EncodeFile(const JsonFile& file, std::string* out) {
  if (file.is_binary()) {
    out->push_back(static_cast<char>(kFileBinary));
    PutBytes(*file.binary(), out);
  } else if (file.in_memory()) {
    out->push_back(static_cast<char>(kFileText));
    // Load() never fails for in-memory files.
    PutBytes(**file.Load(), out);
  } else {
    out->push_back(static_cast<char>(kFilePath));
    PutBytes(file.path(), out);
  }
}

Result<JsonFile> DecodeFile(PayloadReader* r) {
  JPAR_ASSIGN_OR_RETURN(uint8_t kind, r->Byte());
  JPAR_ASSIGN_OR_RETURN(std::string_view data, r->Bytes());
  switch (kind) {
    case kFileText:
      return JsonFile::FromText(std::string(data));
    case kFilePath:
      return JsonFile::FromPath(std::string(data));
    case kFileBinary:
      return JsonFile::FromBinaryItem(std::string(data));
    default:
      return Status::IOError("corrupt catalog sync: unknown file kind " +
                             std::to_string(kind));
  }
}

}  // namespace

std::string EncodeCatalogSync(const Catalog& catalog) {
  std::string out;
  PutVarint(catalog.version(), &out);
  PutVarint(catalog.collections().size(), &out);
  for (const auto& [name, coll] : catalog.collections()) {
    PutBytes(name, &out);
    PutVarint(coll.files.size(), &out);
    for (const JsonFile& file : coll.files) EncodeFile(file, &out);
  }
  PutVarint(catalog.documents().size(), &out);
  for (const auto& [name, file] : catalog.documents()) {
    PutBytes(name, &out);
    EncodeFile(file, &out);
  }
  return out;
}

Status DecodeCatalogSyncInto(std::string_view payload, Catalog* catalog,
                             uint64_t* version) {
  PayloadReader r(payload);
  JPAR_ASSIGN_OR_RETURN(*version, r.Varint());
  JPAR_ASSIGN_OR_RETURN(uint64_t ncolls, r.Varint());
  for (uint64_t c = 0; c < ncolls; ++c) {
    JPAR_ASSIGN_OR_RETURN(std::string name, r.String());
    JPAR_ASSIGN_OR_RETURN(uint64_t nfiles, r.Varint());
    // No reserve(nfiles): a corrupt count must not size a buffer; the
    // loop fails at the first missing file instead.
    Collection coll;
    for (uint64_t f = 0; f < nfiles; ++f) {
      JPAR_ASSIGN_OR_RETURN(JsonFile file, DecodeFile(&r));
      coll.files.push_back(std::move(file));
    }
    catalog->RegisterCollection(name, std::move(coll));
  }
  JPAR_ASSIGN_OR_RETURN(uint64_t ndocs, r.Varint());
  for (uint64_t d = 0; d < ndocs; ++d) {
    JPAR_ASSIGN_OR_RETURN(std::string name, r.String());
    JPAR_ASSIGN_OR_RETURN(JsonFile file, DecodeFile(&r));
    catalog->RegisterDocument(name, std::move(file));
  }
  return Status::OK();
}

std::string EncodeSyncAck(uint64_t version) {
  std::string out;
  PutVarint(version, &out);
  return out;
}

Result<uint64_t> DecodeSyncAck(std::string_view payload) {
  PayloadReader r(payload);
  return r.Varint();
}

}  // namespace jpar
