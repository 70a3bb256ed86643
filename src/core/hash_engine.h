#ifndef ADALSH_CORE_HASH_ENGINE_H_
#define ADALSH_CORE_HASH_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "lsh/composite_scheme.h"
#include "lsh/hash_cache.h"
#include "obs/observer.h"
#include "record/dataset.h"
#include "util/thread_pool.h"

namespace adalsh {

/// Owns one HashCache per hash unit of a compiled rule and turns cached raw
/// hashes into table bucket keys. A single engine is shared by every
/// transitive hashing function in a run, which is what makes the sequence
/// incremental: H_{i+1}'s plan asks for a longer prefix of the same per-unit
/// streams H_i already computed.
class HashEngine {
 public:
  /// `structure` must come from CompileRuleForHashing on the rule used by
  /// the run; `seed` determines all hash functions.
  HashEngine(const Dataset& dataset, RuleHashStructure structure,
             uint64_t seed);

  HashEngine(const HashEngine&) = delete;
  HashEngine& operator=(const HashEngine&) = delete;

  /// Ensures record r's caches cover every prefix `plan` needs.
  void EnsureHashes(RecordId r, const SchemePlan& plan);

  /// Batch form: ensures every record in `records` covers `plan`,
  /// partitioning the records across `pool`'s workers (serial when `pool` is
  /// null). Safe because each record owns independent cache slots; family
  /// parameters are Prepare()d before forking. The total hash count is
  /// identical to calling EnsureHashes serially — per-record prefix
  /// extensions are order-independent.
  void EnsureHashesParallel(std::span<const RecordId> records,
                            const SchemePlan& plan, ThreadPool* pool);

  /// Serially materializes every unit's family parameters up to the prefix
  /// `plan` needs. After this, EnsureHashes calls covered by `plan` may run
  /// concurrently for distinct records (EnsureHashesParallel does both steps;
  /// this is for callers that fold hashing into their own ParallelFor).
  void PreparePlan(const SchemePlan& plan);

  /// Extends every unit's cache to cover records [old, num_records) appended
  /// to the dataset since construction (no-op when nothing was appended).
  /// Existing cached prefixes are untouched — see HashCache::GrowTo. Call
  /// from the ingesting thread, outside any concurrent hash pass.
  void GrowTo(size_t num_records);

  /// Forgets every cached hash of `records`, so the next EnsureHashes
  /// recomputes them from scratch (the incremental-reuse ablation).
  void DropHashes(std::span<const RecordId> records);

  /// Bucket key of record r for one table of `plan`. EnsureHashes must have
  /// covered the plan for r.
  uint64_t TableKey(RecordId r, const TablePlan& table) const;

  /// Adopts record `src_r`'s computed hash prefixes from `src` — an engine
  /// built over the same rule structure and seed whose record `src_r` has
  /// the same content as this engine's record `dst_r` — into this engine's
  /// slots for `dst_r` (see HashCache::AdoptPrefix). The cross-shard merge
  /// uses this to assemble a global engine from shard engines with zero
  /// recomputation; adopted hashes never count toward
  /// total_hashes_computed(). Single-threaded, outside any hash pass.
  void AdoptRecordHashes(const HashEngine& src, RecordId src_r,
                         RecordId dst_r);

  /// Total raw hash evaluations across all units (cost accounting).
  uint64_t total_hashes_computed() const;

  /// Attaches observability sinks: EnsureHashesParallel emits a `hash_pass`
  /// trace span and a `hashes_computed` counter delta. Callers that drive
  /// EnsureHashes through their own loops (TransitiveHasher) report at their
  /// level instead, so counters are never double-counted.
  void set_instrumentation(Instrumentation instr) { instr_ = instr; }

  const RuleHashStructure& structure() const { return structure_; }
  const Dataset& dataset() const { return *dataset_; }

 private:
  const Dataset* dataset_;
  RuleHashStructure structure_;
  std::vector<HashCache> caches_;  // one per unit
  Instrumentation instr_;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_HASH_ENGINE_H_
