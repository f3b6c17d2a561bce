#ifndef JPAR_RUNTIME_FRAME_H_
#define JPAR_RUNTIME_FRAME_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "runtime/tuple.h"

namespace jpar {

/// A fixed-target-size byte buffer of serialized tuples — the unit of
/// data movement at exchange boundaries (Hyracks frames). Tuples are
/// encoded back to back as: varint column-count, then each column as a
/// binary item (see json/binary_serde.h).
struct Frame {
  std::string bytes;
  uint32_t tuple_count = 0;
};

/// Serializes `tuple` and appends it to `out`; returns the encoded size.
size_t AppendTupleTo(const Tuple& tuple, std::string* out);

/// The size AppendTupleTo would return for `tuple`, without encoding it.
size_t EncodedTupleSize(const Tuple& tuple);

/// The frame-packing rule of one exchange stream, without the bytes:
/// tuples go into the open frame back to back, and the frame is sealed
/// once it holds at least `target_bytes`. A tuple larger than
/// target_bytes seals the frame it lands in and counts as an oversized
/// frame — the situation the paper's pipelining rules are designed to
/// avoid.
/// FrameBuilder packs real frames with it; the in-process exchange,
/// which moves tuples instead of encoding them into frames, counts with
/// it directly, so both report the same frames and bytes.
class FrameTally {
 public:
  explicit FrameTally(size_t target_bytes) : target_bytes_(target_bytes) {}

  /// Counts one tuple of `encoded` bytes. Returns true when it filled
  /// the open frame, which is then sealed.
  bool Add(size_t encoded) {
    ++tuple_count_;
    total_bytes_ += encoded;
    if (encoded > max_tuple_bytes_) max_tuple_bytes_ = encoded;
    if (encoded > target_bytes_) ++oversized_frames_;
    ++open_tuples_;
    open_bytes_ += encoded;
    if (open_bytes_ < target_bytes_) return false;
    ++sealed_frames_;
    open_tuples_ = 0;
    open_bytes_ = 0;
    return true;
  }

  /// Frames the stream ships: the sealed ones plus a partial last one.
  uint64_t frames() const { return sealed_frames_ + (open_tuples_ > 0); }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t max_tuple_bytes() const { return max_tuple_bytes_; }
  uint64_t oversized_frames() const { return oversized_frames_; }
  uint64_t tuple_count() const { return tuple_count_; }

 private:
  size_t target_bytes_;
  uint64_t open_bytes_ = 0;
  uint64_t open_tuples_ = 0;
  uint64_t sealed_frames_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t max_tuple_bytes_ = 0;
  uint64_t oversized_frames_ = 0;
  uint64_t tuple_count_ = 0;
};

/// Accumulates tuples into frames of approximately `target_bytes`, by
/// the FrameTally packing rule.
class FrameBuilder {
 public:
  explicit FrameBuilder(size_t target_bytes) : tally_(target_bytes) {}

  /// Appends a tuple; if the current frame is full it is sealed into the
  /// finished list. Returns the serialized tuple size in bytes.
  size_t Append(const Tuple& tuple);

  /// Seals any partial frame and returns all finished frames.
  std::vector<Frame> Finish();

  uint64_t total_bytes() const { return tally_.total_bytes(); }
  uint64_t max_tuple_bytes() const { return tally_.max_tuple_bytes(); }
  uint64_t oversized_frames() const { return tally_.oversized_frames(); }
  uint64_t tuple_count() const { return tally_.tuple_count(); }

 private:
  FrameTally tally_;
  Frame current_;
  std::vector<Frame> finished_;
};

/// Iterates the tuples of a frame sequence, deserializing one at a time.
class FrameReader {
 public:
  explicit FrameReader(const std::vector<Frame>& frames) : frames_(frames) {}

  /// Reads the next tuple into *tuple. Returns true when a tuple was
  /// produced, false at end of stream; parse failures return a Status.
  Result<bool> Next(Tuple* tuple);

 private:
  const std::vector<Frame>& frames_;
  size_t frame_index_ = 0;
  size_t byte_pos_ = 0;
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_FRAME_H_
