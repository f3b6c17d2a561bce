#ifndef JPAR_COMMON_KEY_TABLE_H_
#define JPAR_COMMON_KEY_TABLE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jpar {

/// A sequence of byte-string keys with their hashes, kept in one arena:
/// key i is bytes [ends[i-1], ends[i]) with hash hashes[i]. The hash
/// exchange fills one per destination partition, in the order of that
/// partition's tuples, so the join reads each key where it was encoded
/// (DESIGN.md §6).
struct EncodedKeys {
  std::string arena;
  std::vector<size_t> ends;
  std::vector<size_t> hashes;

  size_t size() const { return ends.size(); }
  std::string_view key(size_t i) const {
    size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(arena).substr(begin, ends[i] - begin);
  }
  size_t hash(size_t i) const { return hashes[i]; }

  void Append(std::string_view key, size_t hash) {
    arena.append(key);
    ends.push_back(arena.size());
    hashes.push_back(hash);
  }
  /// Moves every key of `other`, in order, to the end of this sequence.
  void Take(EncodedKeys&& other) {
    if (ends.empty()) {
      *this = std::move(other);
    } else {
      const size_t base = arena.size();
      arena.append(other.arena);
      for (size_t end : other.ends) ends.push_back(base + end);
      hashes.insert(hashes.end(), other.hashes.begin(), other.hashes.end());
    }
    other = EncodedKeys();
  }
};

/// A flat open-addressing index from byte strings to dense ids
/// 0, 1, 2, ... in insertion order. It holds no key bytes: a slot holds
/// 32 bits of the key's hash and its id inline, and a probe compares
/// bytes, through the caller's key_of(id), only on a hash match. The
/// caller supplies the hash, so a key hashed once (say, to route it) is
/// never hashed again.
class KeyIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  size_t size() const { return size_; }

  /// The id of `key`, or kAbsent.
  template <typename KeyOf>
  uint32_t Find(std::string_view key, uint64_t hash,
                const KeyOf& key_of) const {
    if (slots_.empty()) return kAbsent;
    const uint32_t tag = Tag(hash);
    for (size_t s = Home(tag);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id == kAbsent) return kAbsent;
      if (slot.tag == tag && key_of(slot.id) == key) return slot.id;
    }
  }

  /// The id of `key`, inserting it as id size() when absent (the
  /// caller then makes key_of(size() - 1) return `key`); the bool says
  /// whether it was inserted.
  template <typename KeyOf>
  std::pair<uint32_t, bool> Insert(std::string_view key, uint64_t hash,
                                   const KeyOf& key_of) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const uint32_t tag = Tag(hash);
    size_t s = Home(tag);
    for (;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id == kAbsent) break;
      if (slot.tag == tag && key_of(slot.id) == key) return {slot.id, false};
    }
    slots_[s] = Slot{tag, static_cast<uint32_t>(size_)};
    return {static_cast<uint32_t>(size_++), true};
  }

  /// Forgets every key; keeps the slot array's capacity.
  void Clear() {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = kAbsent;
  };

  /// Fibonacci hashing: the top 32 bits of hash * 2^64/phi, of which
  /// the top log2(capacity) pick the home slot. The caller's hash may
  /// share its low bits across a whole table (an exchange partition
  /// holds only keys with one value of hash % fanout), so the slot must
  /// not come from the low bits alone.
  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>((hash * 0x9E3779B97F4A7C15ull) >> 32);
  }
  size_t Home(uint32_t tag) const { return tag >> shift_; }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    mask_ = capacity - 1;
    shift_ = 32 - std::countr_zero(capacity);
    slots_.assign(capacity, Slot{});
    for (const Slot& slot : old) {
      if (slot.id == kAbsent) continue;
      size_t s = Home(slot.tag);
      while (slots_[s].id != kAbsent) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  size_t mask_ = 0;
  int shift_ = 32;
  size_t size_ = 0;
};

/// A set of byte strings held in its own arena, each with a dense id.
class KeySet {
 public:
  size_t size() const { return keys_.size(); }
  uint32_t Find(std::string_view key, uint64_t hash) const {
    return index_.Find(key, hash, KeyOf{&keys_});
  }
  /// The id of `key`, inserting a copy when absent.
  std::pair<uint32_t, bool> Insert(std::string_view key, uint64_t hash) {
    auto found = index_.Insert(key, hash, KeyOf{&keys_});
    if (found.second) keys_.Append(key, hash);
    return found;
  }
  /// The bytes of the key with id `id` (< size()).
  std::string_view key(uint32_t id) const { return keys_.key(id); }
  void Clear() {
    index_.Clear();
    keys_ = EncodedKeys();
  }

 private:
  struct KeyOf {
    const EncodedKeys* keys;
    std::string_view operator()(uint32_t id) const { return keys->key(id); }
  };

  KeyIndex index_;
  EncodedKeys keys_;
};

/// The build side of a hash join: the row numbers of `keys` grouped by
/// key, over the keys' own bytes and hashes (no copy). Rows are added in
/// ascending order and each key's rows are returned in that order, so a
/// probe emits matches exactly as a per-key row list would.
class JoinTable {
 public:
  explicit JoinTable(const EncodedKeys* keys) : keys_(keys) {}

  /// Adds the next row (0, 1, 2, ...) of `keys` under its key.
  void Add() {
    const uint32_t row = static_cast<uint32_t>(row_key_.size());
    auto [k, inserted] =
        index_.Insert(keys_->key(row), keys_->hash(row), KeyOf{this});
    if (inserted) first_row_.push_back(row);
    row_key_.push_back(k);
  }

  /// Groups the rows by key; call once, after the last Add.
  void Seal() {
    starts_.assign(index_.size() + 1, 0);
    for (uint32_t k : row_key_) ++starts_[k + 1];
    for (size_t k = 1; k < starts_.size(); ++k) starts_[k] += starts_[k - 1];
    rows_.resize(row_key_.size());
    std::vector<uint32_t> fill(starts_.begin(), starts_.end() - 1);
    for (uint32_t row = 0; row < row_key_.size(); ++row) {
      rows_[fill[row_key_[row]]++] = row;
    }
    std::vector<uint32_t>().swap(row_key_);
  }

  /// The rows added under `key`, ascending; empty when there are none.
  std::span<const uint32_t> Rows(std::string_view key, uint64_t hash) const {
    const uint32_t k = index_.Find(key, hash, KeyOf{this});
    if (k == KeyIndex::kAbsent) return {};
    return std::span<const uint32_t>(rows_).subspan(
        starts_[k], starts_[k + 1] - starts_[k]);
  }

 private:
  struct KeyOf {
    const JoinTable* table;
    std::string_view operator()(uint32_t k) const {
      return table->keys_->key(table->first_row_[k]);
    }
  };

  const EncodedKeys* keys_;
  KeyIndex index_;
  std::vector<uint32_t> first_row_;  // a row of each key, for its bytes
  std::vector<uint32_t> row_key_;    // key id of each row, until Seal
  std::vector<uint32_t> starts_;  // key k's rows: [starts_[k], starts_[k+1])
  std::vector<uint32_t> rows_;
};

}  // namespace jpar

#endif  // JPAR_COMMON_KEY_TABLE_H_
