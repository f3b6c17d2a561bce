#include "runtime/frame.h"

#include "json/binary_serde.h"

namespace jpar {

size_t AppendTupleTo(const Tuple& tuple, std::string* out) {
  size_t start = out->size();
  ItemWriter::AppendVarint(tuple.size(), out);
  ItemWriter writer(out);
  for (const Item& item : tuple) writer.Write(item);
  return out->size() - start;
}

size_t EncodedTupleSize(const Tuple& tuple) {
  size_t total = ItemWriter::VarintSize(tuple.size());
  for (const Item& item : tuple) total += ItemWriter::EncodedSize(item);
  return total;
}

size_t FrameBuilder::Append(const Tuple& tuple) {
  size_t encoded = AppendTupleTo(tuple, &current_.bytes);
  ++current_.tuple_count;
  if (tally_.Add(encoded)) {
    finished_.push_back(std::move(current_));
    current_ = Frame();
  }
  return encoded;
}

std::vector<Frame> FrameBuilder::Finish() {
  if (current_.tuple_count > 0) {
    finished_.push_back(std::move(current_));
    current_ = Frame();
  }
  return std::move(finished_);
}

Result<bool> FrameReader::Next(Tuple* tuple) {
  while (frame_index_ < frames_.size()) {
    const Frame& frame = frames_[frame_index_];
    if (byte_pos_ >= frame.bytes.size()) {
      ++frame_index_;
      byte_pos_ = 0;
      continue;
    }
    std::string_view rest(frame.bytes.data() + byte_pos_,
                          frame.bytes.size() - byte_pos_);
    uint64_t arity = 0;
    {
      // Decode the leading column-count varint, then the column items.
      int shift = 0;
      size_t p = 0;
      bool done = false;
      while (p < rest.size()) {
        uint8_t b = static_cast<uint8_t>(rest[p++]);
        arity |= static_cast<uint64_t>(b & 0x7F) << shift;
        if ((b & 0x80) == 0) {
          done = true;
          break;
        }
        shift += 7;
      }
      if (!done) return Status::Internal("corrupt frame: truncated arity");
      ItemReader body(rest.substr(p));
      tuple->clear();
      tuple->reserve(arity);
      for (uint64_t i = 0; i < arity; ++i) {
        JPAR_ASSIGN_OR_RETURN(Item item, body.Read());
        tuple->push_back(std::move(item));
      }
      byte_pos_ += p + body.position();
    }
    return true;
  }
  return false;
}

}  // namespace jpar
