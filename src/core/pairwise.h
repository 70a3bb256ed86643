#ifndef ADALSH_CORE_PAIRWISE_H_
#define ADALSH_CORE_PAIRWISE_H_

#include <cstdint>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "distance/feature_cache.h"
#include "distance/rule.h"
#include "distance/rule_evaluator.h"
#include "obs/observer.h"
#include "record/dataset.h"
#include "util/run_controller.h"
#include "util/thread_pool.h"

namespace adalsh {

/// The pairwise computation function P (Definition 2) with the
/// transitive-closure optimization of Appendix B.3: records already in the
/// same tree skip their distance computation. Output trees are tagged with
/// kProducerPairwise, which Algorithm 1's termination rule treats as final.
///
/// Engine design (docs/threading.md, "Parallel pairwise"): the i<j triangle
/// is swept in row stripes. Per stripe, the current roots are snapshotted,
/// the stripe's pairs are split into fixed column tiles evaluated on the
/// worker pool (rule evaluations are pure: compiled RuleEvaluator over the
/// per-dataset FeatureCache), and the recorded decisions are replayed
/// serially in canonical (i, j) order, re-checking live roots before each
/// merge. Tile boundaries depend only on the input size — never on the
/// thread count — so forests, clusters and similarity counts are
/// byte-identical from 1 thread to any N.
///
/// Closure skipping survives tiling at two levels: the stripe snapshot skips
/// pairs connected by earlier stripes, and a tile-local union-find over
/// snapshot roots skips pairs connected by matches found earlier (in
/// canonical order) within the same tile. Inputs that fit a single tile
/// therefore perform exactly the evaluations of the strictly serial sweep.
///
/// Because both paths are byte-identical, the choice between them is purely
/// a performance decision: sweeps below a minimum size run serially even
/// when a pool is attached (the fork/join and snapshot overhead exceeds the
/// kernel work and made small benches slower at 2-4 threads than at 1 —
/// see kParallelMinRecords in pairwise.cc and docs/threading.md).
class PairwiseComputer {
 public:
  /// `pool` (borrowed, may be null) runs the tile evaluations; null means
  /// strictly serial. The dataset must outlive the computer and be fully
  /// built (the FeatureCache holds pointers into its records). `instr`
  /// attaches observability sinks: each Apply emits a `pairwise_sweep` trace
  /// span, an Observer::OnPairwiseBatch event and metric counters. With the
  /// default (empty) instrumentation the only cost is one boolean test per
  /// Apply — nothing per pair.
  PairwiseComputer(const Dataset& dataset, const MatchRule& rule,
                   ThreadPool* pool = nullptr, Instrumentation instr = {},
                   RunController* controller = nullptr);

  PairwiseComputer(const PairwiseComputer&) = delete;
  PairwiseComputer& operator=(const PairwiseComputer&) = delete;

  /// Attaches/detaches the cooperative-cancellation controller (borrowed,
  /// may be null). Long-lived computers (streaming) point this at the
  /// controller of the current TopK call; per-run computers pass it at
  /// construction.
  void set_controller(RunController* controller) { controller_ = controller; }

  /// Re-syncs the FeatureCache after records were appended to the dataset
  /// (resident-engine ingest). Call from the ingesting thread, outside any
  /// concurrent Apply.
  void NotifyDatasetGrown() { cache_.GrowTo(*dataset_); }

  /// Splits `records` into the connected components of the exact match graph,
  /// building trees in `forest`. Returns the component roots.
  ///
  /// Anytime behavior: the sweep checks the attached RunController once per
  /// kRowBlock row stripe — the same record-index boundaries on the serial
  /// and the tiled path, so a stop lands after an identical completed prefix
  /// of canonical-order merges at any thread count. When stopped,
  /// last_apply_interrupted() turns true and the returned roots describe the
  /// partially merged components (every applied merge is a P-certified
  /// match; callers treating interruption as "round discarded" simply ignore
  /// the returned roots — the input records' previous trees are untouched).
  std::vector<NodeId> Apply(const std::vector<RecordId>& records,
                            ParentPointerForest* forest);

  /// True when the last Apply was stopped mid-sweep by the controller.
  bool last_apply_interrupted() const { return interrupted_; }

  /// Overrides the minimum sweep size at which Apply dispatches the tiled
  /// parallel path (0 restores the built-in threshold; the override never
  /// drops below the single-stripe cutoff). Returns the previous override.
  /// Process-global, for tests only: the equivalence suites use it to force
  /// the tiled path on few-hundred-record inputs that real runs sweep
  /// serially — which is safe precisely because both paths produce
  /// byte-identical output.
  static size_t OverrideParallelCutoffForTest(size_t cutoff);

  /// Rule evaluations actually performed (pairs skipped via transitive
  /// closure are not counted) — the n_P of the Definition 3 cost accounting.
  /// Deterministic for a given input at any thread count.
  uint64_t total_similarities() const { return total_similarities_; }

  const MatchRule& rule() const { return *rule_; }

 private:
  /// The seed's strictly serial sweep (closure check, evaluate, merge per
  /// pair) — the semantic reference the tiled path must reproduce.
  void SweepSerial(const std::vector<RecordId>& records,
                   const std::vector<NodeId>& leaf_of,
                   ParentPointerForest* forest);

  /// Stripe / tile / replay pipeline; see the class comment.
  void SweepTiled(const std::vector<RecordId>& records,
                  const std::vector<NodeId>& leaf_of,
                  ParentPointerForest* forest);

  /// Evaluates one tile's pairs against the stripe snapshot, recording a
  /// per-pair decision for the serial replay. Pure with respect to the
  /// forest; safe to run concurrently with other tiles.
  void EvaluateTile(const std::vector<RecordId>& records,
                    const std::vector<NodeId>& snapshot, size_t row_begin,
                    size_t row_end, size_t col_tile_begin, size_t col_tile_end,
                    size_t col_begin, uint8_t* decisions) const;

  /// Stripe-boundary cooperative check (fault-injection site
  /// kPairwiseTile): reports progress and returns true when the sweep must
  /// stop. Hit once per kRowBlock rows on both sweep paths.
  bool StripeCheck();

  const Dataset* dataset_;
  const MatchRule* rule_;
  FeatureCache cache_;
  RuleEvaluator evaluator_;
  ThreadPool* pool_;
  Instrumentation instr_;
  RunController* controller_;
  bool interrupted_ = false;
  uint64_t total_similarities_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_PAIRWISE_H_
