#ifndef ADALSH_CORE_BUCKET_TABLE_H_
#define ADALSH_CORE_BUCKET_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "record/record.h"
#include "util/check.h"

namespace adalsh {

/// One hash table of a transitive hashing function in the bucket
/// representation of Appendix B.2: each bucket remembers only the record
/// added to it last.
///
/// Open addressing with linear probing over a power-of-two slot array that
/// doubles when it would pass half load, so memory follows the number of
/// distinct keys, not the number of records hashed. Every 64-bit key is a
/// valid key (an empty slot is marked in its record field), and keys are
/// mixed before probing, so keys that share their low bits still spread out.
class BucketTable {
 public:
  /// Exchange's answer for a bucket that was empty. Never a valid record id.
  static constexpr RecordId kNone = std::numeric_limits<RecordId>::max();

  /// Makes `r` the record last added under `key` and returns the record
  /// that held the bucket before, or kNone if the bucket was empty.
  RecordId Exchange(uint64_t key, RecordId r) {
    ADALSH_DCHECK_NE(r, kNone);
    if (slots_.empty()) Rehash(kMinSlots);
    size_t i = Home(key);
    for (; slots_[i].record != kNone; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return std::exchange(slots_[i].record, r);
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      i = Home(key);
      while (slots_[i].record != kNone) i = (i + 1) & mask_;
    }
    slots_[i] = Slot{key, r};
    ++size_;
    return kNone;
  }

  /// Grows the slot array, if needed, so that `keys` distinct keys fit
  /// without a further rehash.
  void Reserve(size_t keys) {
    const size_t slots = std::max(kMinSlots, std::bit_ceil(2 * keys));
    if (slots > slots_.size()) Rehash(slots);
  }

  /// Hints the cache to load the slot a later Exchange(key, ...) probes
  /// first. No effect on contents.
  void Prefetch(uint64_t key) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[Home(key)]);
  }

  /// Number of distinct keys stored.
  size_t size() const { return size_; }

  /// Number of slots allocated (a power of two, at least twice size()).
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t key = 0;
    RecordId record = kNone;
  };

  static constexpr size_t kMinSlots = 16;

  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Rehash(size_t num_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(num_slots, Slot{});
    mask_ = num_slots - 1;
    shift_ = 64 - std::countr_zero(num_slots);
    for (const Slot& slot : old) {
      if (slot.record == kNone) continue;
      size_t i = Home(slot.key);
      while (slots_[i].record != kNone) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_BUCKET_TABLE_H_
