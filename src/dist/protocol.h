#ifndef JPAR_DIST_PROTOCOL_H_
#define JPAR_DIST_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/rewriter.h"
#include "common/result.h"
#include "runtime/catalog.h"
#include "runtime/executor.h"
#include "runtime/frame.h"
#include "runtime/stats.h"

namespace jpar {

/// Message types of the dispatcher <-> worker protocol (DESIGN.md §11).
/// Control and data share one ordered connection per worker; credits
/// bound the data frames in flight so control messages (cancel, ping)
/// are never starved behind an unbounded data backlog.
enum class MsgType : uint8_t {
  kHello = 1,        // worker -> dispatcher: version, pid
  kHelloAck = 2,     // dispatcher -> worker: version accepted
  kSyncCatalog = 3,  // dispatcher -> worker: full catalog snapshot
  kSyncAck = 4,      // worker -> dispatcher: synced to version
  kRunFragment = 5,  // dispatcher -> worker: run one plan fragment
  kInputFrame = 6,   // dispatcher -> worker: tuples for an input slot
  kInputEof = 7,     // dispatcher -> worker: input slot complete
  kOutputFrame = 8,  // worker -> dispatcher: tuples for an output bucket
  kOutputEof = 9,    // worker -> dispatcher: fragment done (status+stats)
  kCredit = 10,      // either direction: replenish the send window
  kCancel = 11,      // dispatcher -> worker: abort current fragment
  kPing = 12,        // dispatcher -> worker: liveness probe
  kPong = 13,        // worker -> dispatcher: liveness answer
  kShutdown = 14,    // dispatcher -> worker: exit cleanly
};

/// Bumped whenever a payload layout changes (e.g. a counter is added to
/// runtime/stats.h). DecodeHello rejects any other version, so the
/// dispatcher drops a worker from another build.
inline constexpr uint32_t kProtocolVersion = 4;

/// Bounds-checked little decoder for protocol payloads. Every read
/// fails with kIOError on truncation — corrupt input is rejected, never
/// trusted.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  Result<uint64_t> Varint();
  Result<int64_t> VarintSigned();  // zigzag
  Result<uint8_t> Byte();
  Result<double> Double();                 // 8 bytes LE bit pattern
  Result<std::string_view> Bytes();        // varint length + bytes
  Result<std::string> String() {
    JPAR_ASSIGN_OR_RETURN(std::string_view v, Bytes());
    return std::string(v);
  }
  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Encoding counterparts (append to *out).
void PutVarint(uint64_t v, std::string* out);
void PutVarintSigned(int64_t v, std::string* out);
void PutDouble(double v, std::string* out);
void PutBytes(std::string_view v, std::string* out);

// ---------------------------------------------------------------------
// Typed payloads

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  int64_t pid = 0;
};
std::string EncodeHello(const HelloMsg& msg);
/// Fails with kIOError unless the hello carries kProtocolVersion.
Result<HelloMsg> DecodeHello(std::string_view payload);

/// One plan fragment assignment. Plans hold compiled expression trees
/// that do not serialize; instead the dispatcher ships the query text
/// plus the exact compile configuration, and the worker recompiles —
/// deterministic in the same binary, so both sides derive the identical
/// stage split (workers cache compilations keyed on query+rules).
struct FragmentRequest {
  std::string query;
  RuleOptions rules;
  ExecOptions exec;
  int stage_id = 0;      // which stage of the split this worker runs
  int worker_id = 0;     // this worker's rank
  int worker_count = 1;  // cluster width W
  int fanout = 0;        // output buckets; 0 = gather (single bucket)
  int num_inputs = 0;    // input slots to expect before running
  double deadline_remaining_ms = 0;  // 0 = no deadline
  uint32_t credit_window = 64;       // initial send credits per direction
};
std::string EncodeFragmentRequest(const FragmentRequest& req);
Result<FragmentRequest> DecodeFragmentRequest(std::string_view payload);

/// A data frame bound to an input slot (dispatcher -> worker) or an
/// output bucket (worker -> dispatcher). `bytes` is the frame.h tuple
/// encoding, reused verbatim on the wire.
struct FrameMsg {
  uint32_t channel = 0;  // input slot or output bucket
  uint32_t tuple_count = 0;
  std::string bytes;
};
std::string EncodeFrameMsg(const FrameMsg& msg);
Result<FrameMsg> DecodeFrameMsg(std::string_view payload);

/// Fragment completion: the worker's final status plus its ExecStats,
/// merged dispatcher-side into the query's aggregate stats.
struct OutputEofMsg {
  StatusCode code = StatusCode::kOk;
  std::string message;
  ExecStats stats;
};
std::string EncodeOutputEof(const OutputEofMsg& msg);
Result<OutputEofMsg> DecodeOutputEof(std::string_view payload);

/// Cancel (dispatcher -> worker): the reason the fragment must stop.
struct CancelMsg {
  StatusCode code = StatusCode::kCancelled;
  std::string message;
};
std::string EncodeCancel(const CancelMsg& msg);
Result<CancelMsg> DecodeCancel(std::string_view payload);

std::string EncodeCredit(uint32_t frames);
Result<uint32_t> DecodeCredit(std::string_view payload);

/// Rebuilds a Status from a wire (code, message) pair — the inverse of
/// shipping status.code()/message() in OutputEof and Cancel payloads.
Status StatusFromCode(StatusCode code, std::string message);

/// Catalog snapshot. In-memory text/binary files ship their bytes;
/// path-backed files ship the path (workers must see the same
/// filesystem — the local-cluster deployment this PR targets).
std::string EncodeCatalogSync(const Catalog& catalog);
Status DecodeCatalogSyncInto(std::string_view payload, Catalog* catalog,
                             uint64_t* version);
std::string EncodeSyncAck(uint64_t version);
Result<uint64_t> DecodeSyncAck(std::string_view payload);

/// ExecOptions / RuleOptions / ExecStats serde used inside the typed
/// payloads (exposed for the wire tests).
void EncodeExecOptions(const ExecOptions& exec, std::string* out);
Status DecodeExecOptions(PayloadReader* reader, ExecOptions* out);
void EncodeRuleOptions(const RuleOptions& rules, std::string* out);
Status DecodeRuleOptions(PayloadReader* reader, RuleOptions* out);
void EncodeExecStats(const ExecStats& stats, std::string* out);
Status DecodeExecStats(PayloadReader* reader, ExecStats* out);

}  // namespace jpar

#endif  // JPAR_DIST_PROTOCOL_H_
