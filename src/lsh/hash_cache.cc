#include "lsh/hash_cache.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace adalsh {

HashCache::HashCache(std::unique_ptr<HashFamily> family, size_t num_records)
    : family_(std::move(family)) {
  ADALSH_CHECK(family_ != nullptr);
  binary_ = family_->is_binary();
  if (binary_) {
    bits_.resize(num_records);
  } else {
    values_.resize(num_records);
  }
  computed_.assign(num_records, 0);
}

HashCache::HashCache(HashCache&& other) noexcept
    : family_(std::move(other.family_)),
      binary_(other.binary_),
      bits_(std::move(other.bits_)),
      values_(std::move(other.values_)),
      computed_(std::move(other.computed_)),
      total_computed_(
          other.total_computed_.load(std::memory_order_relaxed)) {}

void HashCache::GrowTo(size_t num_records) {
  if (num_records <= computed_.size()) return;
  if (binary_) {
    bits_.resize(num_records);
  } else {
    values_.resize(num_records);
  }
  computed_.resize(num_records, 0);
}

void HashCache::Ensure(const Record& record, RecordId r, size_t count) {
  ADALSH_CHECK_LT(r, computed_.size());
  size_t have = computed_[r];
  if (have >= count) return;
  // Per-thread scratch, not a member: Ensure runs concurrently for distinct
  // records, and only this buffer would be shared between them.
  thread_local std::vector<uint64_t> scratch;
  scratch.resize(count - have);
  family_->HashRange(record, have, count, scratch.data());
  total_computed_.fetch_add(count - have, std::memory_order_relaxed);
  if (binary_) {
    std::vector<uint64_t>& blocks = bits_[r];
    blocks.resize((count + 63) / 64, 0);
    for (size_t j = have; j < count; ++j) {
      if (scratch[j - have] & 1) blocks[j / 64] |= uint64_t{1} << (j % 64);
    }
  } else {
    std::vector<uint32_t>& vals = values_[r];
    vals.resize(count);
    for (size_t j = have; j < count; ++j) {
      vals[j] = static_cast<uint32_t>(SplitMix64(scratch[j - have]));
    }
  }
  computed_[r] = count;
}

void HashCache::Drop(RecordId r) {
  ADALSH_CHECK_LT(r, computed_.size());
  if (binary_) {
    bits_[r].clear();
  } else {
    values_[r].clear();
  }
  computed_[r] = 0;
}

void HashCache::AdoptPrefix(const HashCache& src, RecordId src_record,
                            RecordId dst_record) {
  ADALSH_CHECK_LT(src_record, src.computed_.size());
  ADALSH_CHECK_LT(dst_record, computed_.size());
  ADALSH_CHECK_EQ(binary_, src.binary_);
  const size_t have = src.computed_[src_record];
  if (have <= computed_[dst_record]) return;
  if (binary_) {
    bits_[dst_record] = src.bits_[src_record];
  } else {
    values_[dst_record] = src.values_[src_record];
  }
  computed_[dst_record] = have;
}

uint64_t HashCache::CombineRange(RecordId r, size_t begin, size_t end,
                                 uint64_t key) const {
  ADALSH_CHECK_LT(r, computed_.size());
  ADALSH_CHECK_LE(end, computed_[r]) << "CombineRange past computed prefix";
  if (binary_) {
    const std::vector<uint64_t>& blocks = bits_[r];
    // Fold whole and partial 64-bit blocks of the bit range.
    size_t j = begin;
    while (j < end) {
      size_t block = j / 64;
      size_t bit = j % 64;
      size_t take = std::min<size_t>(64 - bit, end - j);
      uint64_t chunk = blocks[block] >> bit;
      if (take < 64) chunk &= (uint64_t{1} << take) - 1;
      key = SplitMix64(key ^ chunk);
      j += take;
    }
    return key;
  }
  // Wide values fold word-at-a-time: two 32-bit mixed values pack into one
  // 64-bit word per SplitMix64 round, halving the mix chain that dominates
  // bucket-key construction. Packing is relative to `begin`, so two records
  // combining the same range get equal keys iff their values agree on the
  // whole range — the same equality semantics as the value-at-a-time fold.
  const std::vector<uint32_t>& vals = values_[r];
  size_t j = begin;
  for (; j + 2 <= end; j += 2) {
    uint64_t word = static_cast<uint64_t>(vals[j]) |
                    (static_cast<uint64_t>(vals[j + 1]) << 32);
    key = SplitMix64(key ^ word);
  }
  if (j < end) key = SplitMix64(key ^ vals[j]);
  return key;
}

uint64_t HashCache::ValueForTest(RecordId r, size_t j) const {
  ADALSH_CHECK_LT(r, computed_.size());
  ADALSH_CHECK_LT(j, computed_[r]);
  if (binary_) return (bits_[r][j / 64] >> (j % 64)) & 1;
  return values_[r][j];
}

}  // namespace adalsh
