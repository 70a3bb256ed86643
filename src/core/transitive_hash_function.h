#ifndef ADALSH_CORE_TRANSITIVE_HASH_FUNCTION_H_
#define ADALSH_CORE_TRANSITIVE_HASH_FUNCTION_H_

#include <cstdint>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "core/hash_engine.h"
#include "lsh/composite_scheme.h"
#include "obs/observer.h"
#include "util/run_controller.h"

namespace adalsh {

/// Applies transitive hashing functions (Definition 1) with the efficient
/// implementation of Appendix B.2:
///   * each invocation uses fresh hash tables (so clusters from different
///     invocations never merge);
///   * every bucket stores only the record last added to it;
///   * record/tree bookkeeping follows the four cases of Fig. 19, building
///     parent-pointer trees in the shared forest.
///
/// One TransitiveHasher is reused for all invocations in a run; it keeps the
/// epoch-stamped record->leaf scratch map so per-invocation setup is O(1).
///
/// Parallel execution (docs/threading.md): hash evaluation and bucket-key
/// construction — the run's hot path — are farmed out to `pool` in blocks of
/// kKeyBlock records. The bucket/forest merge then runs serially on the
/// driving thread, in two steps per block:
///   * predecessor pass — per table, in record order, each key is exchanged
///     in a flat BucketTable (core/bucket_table.h) for the record its bucket
///     held before, written in place over the key buffer;
///   * replay — in record order, then table order, the predecessors drive
///     Fig. 19's four cases, issuing exactly the MakeTree/AddLeaf/Merge
///     calls a bucket-at-a-time loop would, minus steps that are provably
///     no-ops (a predecessor equal to the one just joined).
/// The merge is the only stateful step ("bucket remembers the last-added
/// record"), so keeping it serial makes the output byte-identical to a
/// single-threaded run at any thread count.
class TransitiveHasher {
 public:
  /// Records whose keys are computed per fork/join region. Bounds the key
  /// buffer to kKeyBlock * num_tables values no matter how large the dataset
  /// is, while keeping each fork large enough to amortize the join.
  static constexpr size_t kKeyBlock = 8192;

  /// `pool` may be null for strictly serial execution. `instr` attaches
  /// observability sinks: each Apply emits a `hash_pass` trace span (plus a
  /// `merge` span per serial merge block), an Observer::OnFunctionApplied
  /// event and metric counters; empty instrumentation costs one boolean test
  /// per Apply.
  TransitiveHasher(HashEngine* engine, ParentPointerForest* forest,
                   size_t num_records, ThreadPool* pool = nullptr,
                   Instrumentation instr = {},
                   RunController* controller = nullptr);

  TransitiveHasher(const TransitiveHasher&) = delete;
  TransitiveHasher& operator=(const TransitiveHasher&) = delete;

  /// Attaches/detaches the cooperative-cancellation controller (borrowed,
  /// may be null). Long-lived hashers (streaming) point this at the
  /// controller of the current TopK call.
  void set_controller(RunController* controller) { controller_ = controller; }

  /// Extends the per-record scratch maps after records were appended to the
  /// dataset (resident-engine ingest). New entries start unstamped, so they
  /// are invisible until an Apply touches them. Ingesting thread only.
  void GrowTo(size_t num_records);

  /// Applies the function described by `plan` to `records`, producing one new
  /// tree per output cluster, each tagged with `producer` (the function's
  /// 0-based sequence index). Returns the new roots. Hash computation goes
  /// through the engine's caches, so values computed by earlier functions are
  /// reused (incremental computation, Appendix B.2).
  ///
  /// Anytime behavior: the attached RunController is checked once per
  /// kKeyBlock record block, on the driving thread, at input-deterministic
  /// boundaries. A stopped Apply sets last_apply_interrupted() and returns
  /// an empty root set: records in unprocessed blocks were never hashed, so
  /// the invocation's partial trees are incomplete and callers must discard
  /// the round (the input records' previous trees are untouched — see
  /// docs/robustness.md).
  std::vector<NodeId> Apply(const std::vector<RecordId>& records,
                            const SchemePlan& plan, int producer);

  /// True when the last Apply was stopped mid-pass by the controller.
  bool last_apply_interrupted() const { return interrupted_; }

 private:
  /// Case 1 of Fig. 19a: a new single-leaf tree for r; returns its root.
  NodeId MakeLeafTree(RecordId r, int producer);

  HashEngine* engine_;
  ParentPointerForest* forest_;
  ThreadPool* pool_;
  Instrumentation instr_;
  RunController* controller_;
  bool interrupted_ = false;
  /// Record -> its leaf in the current invocation: valid when `epoch` is
  /// the invocation's epoch_. One slot per record, so the check and the
  /// leaf share a cache line.
  struct LeafStamp {
    NodeId leaf = kInvalidNode;
    uint32_t epoch = 0;
  };
  std::vector<LeafStamp> leaf_of_;
  /// Reused per-block buffer: bucket keys, then (after the predecessor
  /// pass) the predecessor record of each (record, table) pair.
  std::vector<uint64_t> key_block_;
  uint32_t epoch_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_TRANSITIVE_HASH_FUNCTION_H_
