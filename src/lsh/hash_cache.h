#ifndef ADALSH_LSH_HASH_CACHE_H_
#define ADALSH_LSH_HASH_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "lsh/hash_family.h"
#include "record/record.h"

namespace adalsh {

/// Per-record cache of one hash family's raw values — the mechanism behind
/// the sequence's incremental-computation property (Section 2.2, Property 4
/// and Appendix B.2): "the computation of hashes is incremental and uses the
/// hashes computed from the previous function in the sequence".
///
/// Each record owns a growing prefix of the family's function stream. A
/// transitive hashing function asks the cache to Ensure() the prefix it
/// needs; anything already computed by earlier functions is reused for free.
///
/// Storage is compressed: binary families (random hyperplanes) pack one bit
/// per value; wide families (MinHash) keep 32 mixed bits per value, which
/// preserves equality semantics with 2^-32 per-function false-collision
/// probability — negligible next to the LSH scheme's own design error.
///
/// Concurrency contract (docs/threading.md): distinct records are independent
/// slots — Ensure/CombineRange for different RecordIds may run on different
/// threads concurrently, provided no two threads touch the same record inside
/// one fork/join region. The only cross-record state is the cost counter,
/// which is a relaxed atomic (its total is order-independent, so parallel and
/// serial runs report identical hash counts).
class HashCache {
 public:
  HashCache(std::unique_ptr<HashFamily> family, size_t num_records);

  HashCache(const HashCache&) = delete;
  HashCache& operator=(const HashCache&) = delete;
  HashCache(HashCache&& other) noexcept;

  /// Ensures values [0, count) are computed for record r. `record` must be
  /// the dataset record with id r.
  void Ensure(const Record& record, RecordId r, size_t count);

  /// Materializes the family's parameters for function indices [0, count).
  /// Must be called (from one thread) before Ensure runs concurrently for
  /// prefixes up to `count` — see HashFamily::Prepare.
  void Prepare(size_t count) { family_->Prepare(count); }

  /// Extends the per-record slot tables to `num_records` (no-op when already
  /// at least that large) so long-lived engines can ingest records appended
  /// to the dataset after construction. New slots start with an empty prefix;
  /// existing slots — and every cached value — are untouched, which is what
  /// makes cross-batch hash reuse sound: values depend only on record content
  /// and the family seed, never on when the record arrived. Call from the
  /// ingesting thread only, outside any concurrent Ensure region.
  void GrowTo(size_t num_records);

  /// Empties record r's computed prefix; the next Ensure recomputes (and
  /// counts) every value again.
  void Drop(RecordId r);

  /// Number of values computed so far for record r.
  size_t computed_count(RecordId r) const { return computed_[r]; }

  /// Copies record `src_record`'s computed prefix from `src` (a cache built
  /// over the same family seed and function stream) into this cache's slot
  /// for `dst_record`, replacing whatever shorter prefix it held. Hash
  /// values depend only on record content and the family seed, so when both
  /// caches index the same underlying record the copied prefix is exactly
  /// what this cache would have computed itself — the cross-shard merge uses
  /// this to assemble a global cache from shard caches without recomputing a
  /// single hash. Does NOT count toward total_hashes_computed(): adoption
  /// moves already-paid-for work. Call from one thread, outside any
  /// concurrent Ensure region.
  void AdoptPrefix(const HashCache& src, RecordId src_record,
                   RecordId dst_record);

  /// Folds values [begin, end) of record r into a running bucket key,
  /// word-at-a-time: binary families fold 64 packed bits per mix round, wide
  /// families two 32-bit values. Requires Ensure(record, r, end) to have
  /// happened. Two records receive equal results iff (with overwhelming
  /// probability) their raw values agree on the whole range — this builds
  /// the AND-construction's concatenated bucket index.
  uint64_t CombineRange(RecordId r, size_t begin, size_t end,
                        uint64_t key) const;

  /// Total raw hash evaluations performed through this cache (cost metric:
  /// the "number of hash functions applied" the paper's cost model counts).
  uint64_t total_hashes_computed() const {
    return total_computed_.load(std::memory_order_relaxed);
  }

  bool is_binary() const { return binary_; }

  /// Direct value access for tests: the stored (packed/mixed) value of
  /// function j for record r.
  uint64_t ValueForTest(RecordId r, size_t j) const;

 private:
  std::unique_ptr<HashFamily> family_;
  bool binary_;
  /// binary: bit-packed blocks per record; wide: 32-bit mixed values.
  std::vector<std::vector<uint64_t>> bits_;
  std::vector<std::vector<uint32_t>> values_;
  std::vector<size_t> computed_;
  std::atomic<uint64_t> total_computed_{0};
};

}  // namespace adalsh

#endif  // ADALSH_LSH_HASH_CACHE_H_
