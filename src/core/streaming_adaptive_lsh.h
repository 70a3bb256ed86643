#ifndef ADALSH_CORE_STREAMING_ADAPTIVE_LSH_H_
#define ADALSH_CORE_STREAMING_ADAPTIVE_LSH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/adaptive_lsh.h"
#include "core/bucket_table.h"
#include "core/cost_model.h"
#include "core/filter_output.h"
#include "core/function_sequence.h"
#include "core/hash_engine.h"
#include "core/pairwise.h"
#include "core/transitive_hash_function.h"
#include "distance/rule.h"
#include "record/dataset.h"
#include "util/thread_pool.h"

namespace adalsh {

/// Online Adaptive LSH — the paper's first future-work direction (Section 9):
/// "adaLSH can offer large performance gains in online settings, where we do
/// not have a fixed dataset and input records arrive dynamically".
///
/// Records are ingested one at a time with Add(); TopK(k) can be asked at any
/// point and runs the Algorithm 1 refinement loop on the *current* cluster
/// state. The design follows the paper's sketch ("decide, for a new record,
/// between applying hashing or comparing with existing clusters"):
///
///   * One set of H_1 tables is kept alive across the whole stream; a new
///     record is hashed with the cheapest function only and merged into the
///     clusters it collides with. Cost per arrival: budget_1 hash functions.
///   * A cluster that absorbs new records has its verification level reset
///     to H_1 (the new membership evidence is only level-1), so a later
///     TopK() re-verifies it — conservative, never silently wrong.
///   * TopK() runs exactly the batch refinement loop (Largest-First, cost
///     model, jump-to-P), reusing every hash value computed by previous
///     calls: a TopK() after a few arrivals costs little more than the
///     arrivals themselves.
///
/// The dataset acts as the record store; Add() takes ids of records already
/// present in it (each id at most once).
class StreamingAdaptiveLsh {
 public:
  StreamingAdaptiveLsh(const Dataset& dataset, const MatchRule& rule,
                       const AdaptiveLshConfig& config);

  StreamingAdaptiveLsh(const StreamingAdaptiveLsh&) = delete;
  StreamingAdaptiveLsh& operator=(const StreamingAdaptiveLsh&) = delete;

  /// Ingests record r: applies H_1's hash functions and merges r into the
  /// clusters sharing a bucket. O(budget_1) hashes plus table operations.
  /// Aborts where Extend would return an error (the first Add included, when
  /// the config sets a field TopK's refinement loop does not honor).
  void Add(RecordId r);

  /// Batch-ingest hook for long-lived owners (the resident engine): validates
  /// the whole batch up front, then ingests every record via Add() in the
  /// given order. Transparently grows the per-record state when the dataset
  /// gained records since construction. All-or-nothing: a validation failure
  /// returns before any record is ingested.
  ///   * InvalidArgument — before the first record is ingested: the config
  ///     sets selection, jump_model or ablate_incremental_reuse, which TopK's
  ///     refinement loop does not honor (AdaptiveLshConfig::
  ///     ValidateForRefineLoop).
  ///   * FailedPrecondition — the attached controller holds a sticky
  ///     Cancel(); an extend must not race a pending cancellation.
  ///   * OutOfRange — an id is >= dataset.num_records().
  ///   * InvalidArgument — an id appears twice in the batch or was already
  ///     ingested.
  Status Extend(std::span<const RecordId> records);

  /// Runs the adaptive refinement loop over the current clusters and returns
  /// the k largest (all verified by H_L or P as in Algorithm 1). Idempotent:
  /// calling again without new arrivals reuses all verification work.
  FilterOutput TopK(int k);

  /// Number of records ingested so far.
  size_t num_added() const { return num_added_; }

  /// Cumulative hash evaluations across all arrivals and TopK calls.
  uint64_t total_hashes_computed() const {
    return engine_.total_hashes_computed();
  }

  /// Cumulative rule evaluations across all TopK calls.
  uint64_t total_similarities() const {
    return pairwise_.total_similarities();
  }

  /// Replaces the calibrated cost model (tests pin the jump-to-P schedule).
  void set_cost_model(const CostModel& model) { cost_model_ = model; }

  const FunctionSequence& sequence() const { return sequence_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  const Dataset* dataset_;
  MatchRule rule_;
  AdaptiveLshConfig config_;
  /// Resolved from config_.threads; outlives hasher_, which borrows it for
  /// the TopK() refinement loop's hash hot path.
  ScopedThreadPool pool_;
  FunctionSequence sequence_;
  CostModel cost_model_;

  HashEngine engine_;
  ParentPointerForest forest_;
  TransitiveHasher hasher_;
  PairwiseComputer pairwise_;

  /// Persistent H_1 tables: bucket key -> record last added (Appendix B.2's
  /// bucket representation, kept alive across the stream).
  std::vector<BucketTable> level1_tables_;

  /// Record -> its current leaf node (kInvalidNode until added).
  std::vector<NodeId> leaf_of_;

  /// Record -> sequence index of the last function applied to it (0 on Add,
  /// updated by TopK refinement rounds, kLastFunctionPairwise once P treated
  /// it). Only meaningful for added records; feeds the Definition 3
  /// records_last_hashed_at accounting of every TopK call.
  std::vector<int> last_fn_;
  size_t num_added_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_STREAMING_ADAPTIVE_LSH_H_
