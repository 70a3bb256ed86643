#ifndef ADALSH_CORE_REFINE_LOOP_H_
#define ADALSH_CORE_REFINE_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "core/cost_model.h"
#include "core/filter_output.h"
#include "core/function_sequence.h"
#include "core/hash_engine.h"
#include "core/pairwise.h"
#include "core/transitive_hash_function.h"
#include "obs/observer.h"
#include "obs/trace_recorder.h"
#include "util/rng.h"
#include "util/run_controller.h"

namespace adalsh {

/// State of Line 5 under JumpModel::kSampledPurity, which persists across
/// rounds: the probe RNG and the probe evaluations charged so far. Probes
/// count toward their round's and the run's pairwise similarities and toward
/// the controller's pairwise budget.
struct SampledPurityJump {
  explicit SampledPurityJump(uint64_t seed) : rng(seed) {}
  Rng rng;
  uint64_t evaluations = 0;
};

/// The only implementation of Algorithm 1's lines 2-10: pop the largest
/// pending cluster (Largest-First), certify it when H_L or P produced it,
/// otherwise decide by Line 5 between the next hashing function H_{i+1} and
/// the pairwise function P, apply it and re-file the pieces — until k finals
/// are certified or the candidates drain. Four callers drive it, so every
/// execution context that must agree with another byte for byte runs the
/// same code:
///   * AdaptiveLsh::Run, after its whole-dataset H_1 pass (line 1);
///   * StreamingAdaptiveLsh::TopK, over the clusters ingested so far;
///   * ResidentEngine::RefineLocked, once per mutation batch (every shard of
///     a ShardedEngine is one);
///   * the ShardedEngine's cross-shard merge (docs/sharding.md).
/// AdaptiveLsh's non-Largest-First selection ablation calls RefineRound
/// (lines 4-10) directly in its own order.
///
/// Two selection queues stay, because both schedules are pinned:
///   * with RefineLoopDeps::order_key, a canonical total order — size
///     descending, ties by the smallest per-record order key — that makes
///     the engines' schedule independent of engine history (the engine_smoke
///     golden, the confluence suites and the benchmark's serve counts);
///   * without it, the log-bin BinIndex of Appendix B.4, where insertion
///     order breaks ties (batch and streaming: tests/golden/
///     adalsh_schedule.golden and the benchmark's batch counts).
/// Selection order never changes final cluster membership — refining a
/// (member set, level) cluster is deterministic in isolation — only the
/// schedule, its cost and which clusters an anytime stop returns.
///
/// Controller contract: the caller resolves and arms the RunController
/// (core/termination.h ResolveController) with the zero points its budgets
/// count from — the batch run at entry, so its H_1 pass counts against the
/// budget and the deadline; the engines and streaming with their cumulative
/// counters — and passes it in (null: uncontrolled). The loop attaches it to
/// the hasher and the pairwise computer for its duration, checks it at every
/// round boundary and never re-arms it.
struct RefineLoopDeps {
  const FunctionSequence* sequence = nullptr;
  const CostModel* cost_model = nullptr;
  HashEngine* engine = nullptr;
  TransitiveHasher* hasher = nullptr;
  PairwiseComputer* pairwise = nullptr;
  ParentPointerForest* forest = nullptr;

  /// Per internal record: last function applied (kLastFunctionPairwise for
  /// P). Updated as rounds complete.
  std::vector<int>* last_fn = nullptr;

  /// Per internal record: the canonical tie-break key (the resident engine's
  /// external id; the sharded merge's global external id), unique per record
  /// so the selection order is total. Null selects the BinIndex queue.
  const std::vector<uint64_t>* order_key = nullptr;

  /// Optional per-record record->leaf map, refreshed for every tree a
  /// completed round produces (engine and streaming bookkeeping).
  std::vector<NodeId>* leaf_of = nullptr;

  /// Line 5 under JumpModel::kSampledPurity; null is Definition 3's
  /// conservative rule (see SampledPurityJump).
  SampledPurityJump* sampled_jump = nullptr;

  /// AdaptiveLshConfig::ablate_incremental_reuse: every H_{i+1} application
  /// first drops the cluster's cached hashes, so it recomputes them from
  /// scratch instead of extending them.
  bool ablate_incremental_reuse = false;

  Instrumentation instrumentation;
};

/// Round-boundary cooperative check: reports the hash and pairwise totals
/// (jump probes included) to `controller` and asks whether to stop. False
/// when `controller` is null.
bool StopAtRoundBoundary(const RefineLoopDeps& deps, RunController* controller);

/// Closes one round whose record already carries its counter deltas and
/// timings: annotates `span`, adds the counters to the totals of `stats`,
/// appends the record to stats->round_records, records the round metrics and
/// fires Observer::OnRoundEnd. The batch H_1 pass closes its round with it.
void FinishRound(const Instrumentation& instr, const RoundRecord& round,
                 TraceRecorder::Span* span, FilterStats* stats);

/// Lines 4-10 on the non-final cluster `root`: Line 5's jump decision, then
/// H_{i+1} (Line 8) or P (Line 6) as one round of `stats`. Returns the roots
/// to re-file: the new clusters, or `root` itself when the controller
/// interrupted the sweep — the round is discarded and the cluster keeps its
/// level and leaf_of entries (docs/robustness.md).
std::vector<NodeId> RefineRound(const RefineLoopDeps& deps, NodeId root,
                                FilterStats* stats);

/// Lines 2-10 from `initial_roots` (deduplicated current tree roots, any mix
/// of verification levels). `on_final(rank, root)` (optional) fires as each
/// certified final is popped, the Section 4.2 incremental mode. When the
/// controller stops the loop, the largest pending clusters fill `finals` up
/// to k at whatever level they reached (no callback); the engines keep their
/// previous snapshot on such a pass and ignore `finals`. Otherwise `finals`
/// holds the certified roots in pop (non-increasing size) order.
///
/// Adds the loop's rounds and counters to the totals already in `stats` and
/// its wall time to filtering_seconds, then closes the stats with
/// FinishRefinement. The caller owns the per-record Definition 3 snapshot
/// (CountLastFunctions) and the ReportTermination epilogue.
TerminationReason RunRefineLoop(
    const RefineLoopDeps& deps, int k, const std::vector<NodeId>& initial_roots,
    RunController* controller, std::vector<NodeId>* finals, FilterStats* stats,
    const std::function<void(size_t rank, NodeId root)>& on_final = {});

/// Sets the refinement's termination_reason, its Definition 3 modeled_cost
/// over the totals of `stats` (a batch run's H_1 round included) and its
/// cluster_verification, parallel to `finals`.
void FinishRefinement(const RefineLoopDeps& deps, RunController* controller,
                      const std::vector<NodeId>& finals, FilterStats* stats);

/// Definition 3's per-record snapshot: every record `include(r)` accepts is
/// counted once, under the last function applied to it (filter_output.h
/// invariants).
template <typename Include>
void CountLastFunctions(const std::vector<int>& last_fn, size_t num_functions,
                        Include include, FilterStats* stats) {
  stats->records_last_hashed_at.assign(num_functions, 0);
  for (RecordId r = 0; r < last_fn.size(); ++r) {
    if (!include(r)) continue;
    if (last_fn[r] == kLastFunctionPairwise) {
      ++stats->records_finished_by_pairwise;
    } else {
      ++stats->records_last_hashed_at[last_fn[r]];
    }
  }
}

}  // namespace adalsh

#endif  // ADALSH_CORE_REFINE_LOOP_H_
