#include "core/refine_loop.h"

#include <algorithm>
#include <limits>
#include <set>

#include "clustering/bin_index.h"
#include "core/termination.h"
#include "obs/metrics_registry.h"
#include "util/check.h"
#include "util/timer.h"

namespace adalsh {
namespace {

/// Line 3's queue (see the header): the canonical order when the deps carry
/// order keys, the Appendix B.4 bins otherwise.
class SelectionQueue {
 public:
  explicit SelectionQueue(const RefineLoopDeps& deps)
      : forest_(*deps.forest),
        order_key_(deps.order_key),
        bins_(deps.last_fn->size()) {}

  void Insert(NodeId root) {
    const uint32_t size = forest_.LeafCount(root);
    if (order_key_ == nullptr) {
      bins_.Insert(root, size);
      return;
    }
    // Smallest order key among the leaves: unique per cluster, so the order
    // is total and the root id never actually decides.
    uint64_t min_key = std::numeric_limits<uint64_t>::max();
    forest_.ForEachLeaf(root, [&](RecordId r) {
      min_key = std::min(min_key, (*order_key_)[r]);
    });
    canonical_.insert({size, min_key, root});
  }

  bool empty() const {
    return order_key_ == nullptr ? bins_.empty() : canonical_.empty();
  }

  NodeId PopLargest() {
    if (order_key_ == nullptr) return bins_.PopLargest();
    const NodeId root = canonical_.begin()->root;
    canonical_.erase(canonical_.begin());
    return root;
  }

 private:
  struct Candidate {
    uint32_t size;
    uint64_t min_key;
    NodeId root;
  };
  struct CandidateLess {
    bool operator()(const Candidate& a, const Candidate& b) const {
      if (a.size != b.size) return a.size > b.size;
      if (a.min_key != b.min_key) return a.min_key < b.min_key;
      return a.root < b.root;
    }
  };

  const ParentPointerForest& forest_;
  const std::vector<uint64_t>* order_key_;
  BinIndex bins_;
  std::set<Candidate, CandidateLess> canonical_;
};

}  // namespace

bool StopAtRoundBoundary(const RefineLoopDeps& deps,
                         RunController* controller) {
  if (controller == nullptr) return false;
  const uint64_t probes =
      deps.sampled_jump != nullptr ? deps.sampled_jump->evaluations : 0;
  controller->ReportHashes(deps.engine->total_hashes_computed());
  controller->ReportPairwise(deps.pairwise->total_similarities() + probes);
  return controller->ShouldStop();
}

void FinishRound(const Instrumentation& instr, const RoundRecord& round,
                 TraceRecorder::Span* span, FilterStats* stats) {
  span->AddArg("round", static_cast<double>(round.round));
  span->AddArg("cluster_size", static_cast<double>(round.cluster_size));
  span->AddArg("hashes", static_cast<double>(round.hashes_computed));
  span->AddArg("pairwise", static_cast<double>(round.pairwise_similarities));
  ++stats->rounds;
  stats->hashes_computed += round.hashes_computed;
  stats->pairwise_similarities += round.pairwise_similarities;
  if (instr.metrics != nullptr) {
    instr.metrics->AddCounter("rounds", 1);
    instr.metrics->RecordValue("round_cluster_size",
                               static_cast<double>(round.cluster_size));
    instr.metrics->RecordValue("round_wall_seconds", round.wall_seconds);
    // Exact-tail view of the same data: `round_seconds` (histogram) next to
    // `round_wall_seconds` (mean/stddev), split by the action taken.
    instr.metrics->RecordLatency("round_seconds", round.wall_seconds);
    if (round.action == RoundAction::kPairwise) {
      instr.metrics->RecordLatency("round_pairwise_seconds",
                                   round.pairwise_seconds);
    } else {
      instr.metrics->RecordLatency("round_hash_seconds", round.hash_seconds);
    }
  }
  stats->round_records.push_back(round);
  if (instr.observer != nullptr) {
    instr.observer->OnRoundEnd(stats->round_records.back());
  }
}

std::vector<NodeId> RefineRound(const RefineLoopDeps& deps, NodeId root,
                                FilterStats* stats) {
  const Instrumentation& instr = deps.instrumentation;
  const FunctionSequence& sequence = *deps.sequence;
  const CostModel& cost_model = *deps.cost_model;
  ParentPointerForest& forest = *deps.forest;
  const std::vector<RecordId> records = forest.Leaves(root);
  const int producer = forest.Producer(root);
  const int next = producer + 1;

  RoundRecord round;
  round.round = stats->rounds + 1;
  round.cluster_size = records.size();
  const uint64_t hashes_before = deps.engine->total_hashes_computed();
  const uint64_t sims_before = deps.pairwise->total_similarities();
  Timer round_timer;
  TraceRecorder::Span round_span(instr.trace, "round", "round");
  if (instr.observer != nullptr) {
    RoundStartInfo start;
    start.round = round.round;
    start.cluster_size = records.size();
    start.producer = producer;
    instr.observer->OnRoundStart(start);
  }

  // Line 5.
  uint64_t probes = 0;
  bool jump;
  if (deps.sampled_jump != nullptr) {
    jump = cost_model.ShouldJumpToPairwiseSampled(
        deps.engine->dataset(), deps.pairwise->rule(), records,
        sequence.budget(producer), sequence.budget(next),
        &deps.sampled_jump->rng, /*sample_pairs=*/20, &probes);
    deps.sampled_jump->evaluations += probes;
  } else {
    jump = cost_model.ShouldJumpToPairwise(
        sequence.budget(producer), sequence.budget(next), records.size());
  }

  // Interruption handling ("discard the round", docs/robustness.md): both
  // sweeps build fresh trees and never touch the treated cluster's own tree,
  // so a stopped sweep's partial trees are simply orphaned, and the cluster
  // keeps its tree, level and leaf_of entries. The round's counter deltas
  // are real work and are recorded (interrupted = true) so the FilterStats
  // sum invariants keep holding.
  std::vector<NodeId> new_roots;
  Timer stage_timer;
  if (jump) {
    round.action = RoundAction::kPairwise;
    round.modeled_cost = cost_model.PairwiseCost(records.size());
    new_roots = deps.pairwise->Apply(records, &forest);  // Line 6
    round.pairwise_seconds = stage_timer.ElapsedSeconds();
    round.interrupted = deps.pairwise->last_apply_interrupted();
  } else {
    round.action = RoundAction::kHash;
    round.function_index = next;
    round.modeled_cost = cost_model.HashUpgradeCost(sequence.budget(producer),
                                                    sequence.budget(next)) *
                         static_cast<double>(records.size());
    if (deps.ablate_incremental_reuse) deps.engine->DropHashes(records);
    // Line 8.
    new_roots = deps.hasher->Apply(records, sequence.plan(next), next);
    round.hash_seconds = stage_timer.ElapsedSeconds();
    round.interrupted = deps.hasher->last_apply_interrupted();
  }
  round.hashes_computed = deps.engine->total_hashes_computed() - hashes_before;
  round.pairwise_similarities =
      deps.pairwise->total_similarities() - sims_before + probes;
  round.wall_seconds = round_timer.ElapsedSeconds();
  FinishRound(instr, round, &round_span, stats);

  if (round.interrupted) return {root};
  const int level = jump ? kLastFunctionPairwise : next;
  for (RecordId r : records) (*deps.last_fn)[r] = level;
  if (deps.leaf_of != nullptr) {
    for (NodeId new_root : new_roots) {
      forest.ForEachLeafNode(new_root, [&](RecordId r, NodeId leaf) {
        (*deps.leaf_of)[r] = leaf;
      });
    }
  }
  return new_roots;
}

TerminationReason RunRefineLoop(
    const RefineLoopDeps& deps, int k, const std::vector<NodeId>& initial_roots,
    RunController* controller, std::vector<NodeId>* finals, FilterStats* stats,
    const std::function<void(size_t rank, NodeId root)>& on_final) {
  ADALSH_CHECK(deps.sequence != nullptr && deps.cost_model != nullptr &&
               deps.engine != nullptr && deps.hasher != nullptr &&
               deps.pairwise != nullptr && deps.forest != nullptr &&
               deps.last_fn != nullptr);
  Timer timer;
  const ParentPointerForest& forest = *deps.forest;
  const int last_function = static_cast<int>(deps.sequence->size()) - 1;
  SelectionQueue queue(deps);
  for (NodeId root : initial_roots) queue.Insert(root);
  deps.hasher->set_controller(controller);
  deps.pairwise->set_controller(controller);

  finals->clear();
  const size_t wanted = static_cast<size_t>(k);
  while (finals->size() < wanted && !queue.empty()) {
    if (StopAtRoundBoundary(deps, controller)) break;  // anytime exit
    const NodeId root = queue.PopLargest();  // Line 3 (Largest-First)
    const int producer = forest.Producer(root);
    if (producer == kProducerPairwise || producer == last_function) {
      finals->push_back(root);
      if (on_final) on_final(finals->size() - 1, root);
      continue;
    }
    for (NodeId piece : RefineRound(deps, root, stats)) queue.Insert(piece);
  }
  if (controller != nullptr && controller->stopped()) {
    // Graceful degradation: the largest pending clusters complete the top-k
    // at their current level. Pops stay non-increasing, so `finals` stays
    // ranked.
    while (finals->size() < wanted && !queue.empty()) {
      finals->push_back(queue.PopLargest());
    }
  }
  // Detach before returning: a request-local controller dies with the pass.
  deps.hasher->set_controller(nullptr);
  deps.pairwise->set_controller(nullptr);
  stats->filtering_seconds += timer.ElapsedSeconds();
  FinishRefinement(deps, controller, *finals, stats);
  return stats->termination_reason;
}

void FinishRefinement(const RefineLoopDeps& deps, RunController* controller,
                      const std::vector<NodeId>& finals, FilterStats* stats) {
  stats->termination_reason = controller != nullptr
                                  ? controller->reason()
                                  : TerminationReason::kCompleted;
  // Definition 3: sum_i n_i * cost_i + n_P * cost_P, from the exact counts.
  stats->modeled_cost = deps.cost_model->cost_per_hash() *
                            static_cast<double>(stats->hashes_computed) +
                        deps.cost_model->cost_per_pair() *
                            static_cast<double>(stats->pairwise_similarities);
  FillClusterVerification(*deps.forest, finals, stats);
}

}  // namespace adalsh
