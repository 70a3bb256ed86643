#include "core/adaptive_lsh.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/pairwise.h"
#include "core/refine_loop.h"
#include "core/termination.h"
#include "core/transitive_hash_function.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {

namespace {

/// The non-Largest-First selection orders of the ablation benchmark (see
/// SelectionStrategy): Lines 4-10 through RefineRound in the strategy's
/// order, with the family-of-algorithms termination rule — stop once the k
/// largest clusters overall are final.
void RunSelectionAblation(
    const RefineLoopDeps& deps, SelectionStrategy strategy, uint64_t seed,
    int k, const std::vector<NodeId>& initial, RunController* controller,
    const std::function<void(size_t, const std::vector<RecordId>&)>&
        on_cluster,
    std::vector<NodeId>* finals, FilterStats* stats) {
  const ParentPointerForest& forest = *deps.forest;
  const int last_function = static_cast<int>(deps.sequence->size()) - 1;
  auto is_final = [&](NodeId root) {
    const int producer = forest.Producer(root);
    return producer == kProducerPairwise || producer == last_function;
  };
  auto larger = [&](NodeId a, NodeId b) {
    return forest.LeafCount(a) > forest.LeafCount(b);
  };
  Rng selector(seed);
  std::vector<NodeId> pending;
  auto route = [&](NodeId root) {
    (is_final(root) ? *finals : pending).push_back(root);
  };
  for (NodeId root : initial) route(root);
  while (!pending.empty()) {
    if (StopAtRoundBoundary(deps, controller)) break;  // anytime exit
    // Termination: the k-th largest final dominates every pending cluster.
    uint32_t max_pending = 0;
    for (NodeId root : pending) {
      max_pending = std::max(max_pending, forest.LeafCount(root));
    }
    if (finals->size() >= static_cast<size_t>(k)) {
      std::vector<uint32_t> final_sizes;
      final_sizes.reserve(finals->size());
      for (NodeId root : *finals) final_sizes.push_back(forest.LeafCount(root));
      std::nth_element(final_sizes.begin(), final_sizes.begin() + (k - 1),
                       final_sizes.end(), std::greater<uint32_t>());
      if (final_sizes[k - 1] >= max_pending) break;
    }
    size_t pick = 0;
    switch (strategy) {
      case SelectionStrategy::kLargestFirst:
        ADALSH_CHECK(false);
        break;
      case SelectionStrategy::kSmallestFirst:
        for (size_t i = 1; i < pending.size(); ++i) {
          if (larger(pending[pick], pending[i])) pick = i;
        }
        break;
      case SelectionStrategy::kFifo:
        break;
      case SelectionStrategy::kRandom:
        pick = selector.NextBelow(pending.size());
        break;
    }
    const NodeId root = pending[pick];
    pending[pick] = pending.back();
    pending.pop_back();
    for (NodeId piece : RefineRound(deps, root, stats)) route(piece);
  }
  if (controller != nullptr && controller->stopped()) {
    // Graceful degradation: the largest pending clusters fill out the top-k
    // at their current level; the sort below ranks them with the finals.
    std::stable_sort(pending.begin(), pending.end(), larger);
    for (NodeId root : pending) {
      if (finals->size() >= static_cast<size_t>(k)) break;
      finals->push_back(root);
    }
  }
  // Rank, then fire the incremental callbacks in rank order (skipping the
  // unverified fill of an early stop).
  std::sort(finals->begin(), finals->end(), larger);
  if (finals->size() > static_cast<size_t>(k)) finals->resize(k);
  for (size_t rank = 0; rank < finals->size(); ++rank) {
    if (is_final((*finals)[rank])) {
      on_cluster(rank, forest.Leaves((*finals)[rank]));
    }
  }
  FinishRefinement(deps, controller, *finals, stats);
}

}  // namespace

Status AdaptiveLshConfig::Validate() const {
  Status sequence_valid = sequence.Validate();
  if (!sequence_valid.ok()) return sequence_valid;
  if (calibration_samples < 1) {
    return Status::InvalidArgument("calibration_samples must be >= 1");
  }
  if (!std::isfinite(pairwise_noise_factor) || pairwise_noise_factor <= 0.0) {
    return Status::InvalidArgument(
        "pairwise_noise_factor must be finite and > 0");
  }
  if (threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  return budget.Validate();
}

Status AdaptiveLshConfig::ValidateForRefineLoop() const {
  if (selection != SelectionStrategy::kLargestFirst) {
    return Status::InvalidArgument(
        "config.selection: only AdaptiveLsh::Run supports a selection other "
        "than kLargestFirst");
  }
  if (jump_model != JumpModel::kConservative) {
    return Status::InvalidArgument(
        "config.jump_model: only AdaptiveLsh::Run supports a jump model other "
        "than kConservative");
  }
  if (ablate_incremental_reuse) {
    return Status::InvalidArgument(
        "config.ablate_incremental_reuse: only AdaptiveLsh::Run supports the "
        "ablation");
  }
  return Status::Ok();
}

AdaptiveLsh::AdaptiveLsh(const Dataset& dataset, const MatchRule& rule,
                         const AdaptiveLshConfig& config)
    : dataset_(&dataset),
      rule_(rule),
      config_(config),
      sequence_([&] {
        Status valid = config.Validate();
        ADALSH_CHECK(valid.ok()) << valid.ToString();
        StatusOr<FunctionSequence> built =
            FunctionSequence::Build(rule, dataset.record(0), config.sequence);
        ADALSH_CHECK(built.ok()) << built.status().ToString();
        return std::move(built).value();
      }()),
      cost_model_([&] {
        ScopedThreadPool pool(config.threads);
        return CostModel::Calibrate(dataset, rule, config.calibration_samples,
                                    config.seed, pool.get(),
                                    config.instrumentation);
      }()) {
  cost_model_.set_pairwise_noise_factor(config.pairwise_noise_factor);
}

FilterOutput AdaptiveLsh::Run(int k) {
  return Run(k, [](size_t, const std::vector<RecordId>&) {});
}

FilterOutput AdaptiveLsh::Run(
    int k, const std::function<void(size_t rank, const std::vector<RecordId>&)>&
               on_cluster) {
  ADALSH_CHECK_GE(k, 1);
  const size_t num_records = dataset_->num_records();

  // Sinks are shared with the hasher/pairwise sweeps; TransitiveHasher
  // reports hash passes at its level, so the engine itself stays
  // uninstrumented (no double counting).
  const Instrumentation instr = config_.instrumentation;

  Timer timer;
  // Anytime execution (docs/robustness.md): the effective controller is
  // armed here, so the deadline excludes construction/calibration and the
  // H_1 pass counts against every budget. Null when neither a budget nor an
  // external controller is configured — that path is bit-identical to the
  // pre-controller behavior.
  std::optional<RunController> local_controller;
  RunController* controller =
      ResolveController(config_.controller, config_.budget, &local_controller);
  ParentPointerForest forest;
  ScopedThreadPool pool(config_.threads);
  HashEngine engine(*dataset_, sequence_.structure(), config_.seed);
  TransitiveHasher hasher(&engine, &forest, num_records, pool.get(), instr,
                          controller);
  PairwiseComputer pairwise(*dataset_, rule_, pool.get(), instr, controller);
  // last_fn[r]: sequence index of the last function applied to r, or
  // kLastFunctionPairwise once P has treated it (Definition 3 accounting).
  std::vector<int> last_fn(num_records, 0);
  SampledPurityJump sampled_jump(DeriveSeed(config_.seed, 0xd2aa));

  RefineLoopDeps deps;
  deps.sequence = &sequence_;
  deps.cost_model = &cost_model_;
  deps.engine = &engine;
  deps.hasher = &hasher;
  deps.pairwise = &pairwise;
  deps.forest = &forest;
  deps.last_fn = &last_fn;
  if (config_.jump_model == JumpModel::kSampledPurity) {
    deps.sampled_jump = &sampled_jump;
  }
  deps.ablate_incremental_reuse = config_.ablate_incremental_reuse;
  deps.instrumentation = instr;
  FilterStats stats;

  // Line 1: H_1 on the whole dataset. Skipped entirely when the controller
  // already fired (pre-round-1 stop: empty best-effort output, zero rounds).
  // An interrupted pass returns no roots: no record has a valid H_1 cluster
  // yet, so the run degrades to an empty clustering.
  std::vector<NodeId> initial;
  if (!StopAtRoundBoundary(deps, controller)) {
    RoundRecord round;
    round.round = 1;
    round.action = RoundAction::kHash;
    round.function_index = 0;
    round.cluster_size = num_records;
    round.modeled_cost = cost_model_.HashCost(sequence_.budget(0)) *
                         static_cast<double>(num_records);
    Timer round_timer;
    TraceRecorder::Span round_span(instr.trace, "round", "round");
    if (instr.observer != nullptr) {
      RoundStartInfo start;
      start.round = 1;
      start.cluster_size = num_records;
      start.producer = -1;
      instr.observer->OnRoundStart(start);
    }
    initial = hasher.Apply(dataset_->AllRecordIds(), sequence_.plan(0), 0);
    round.interrupted = hasher.last_apply_interrupted();
    round.hashes_computed = engine.total_hashes_computed();
    round.hash_seconds = round.wall_seconds = round_timer.ElapsedSeconds();
    FinishRound(instr, round, &round_span, &stats);
  }

  std::vector<NodeId> finals;
  if (config_.selection == SelectionStrategy::kLargestFirst) {
    RunRefineLoop(deps, k, initial, controller, &finals, &stats,
                  [&](size_t rank, NodeId root) {
                    on_cluster(rank, forest.Leaves(root));
                  });
  } else {
    RunSelectionAblation(deps, config_.selection,
                         DeriveSeed(config_.seed, 0xab1a7e), k, initial,
                         controller, on_cluster, &finals, &stats);
  }

  FilterOutput output;
  output.clusters = MaterializeClusters(forest, finals);
  // Finals are already ranked; the stable sort is a safety net that keeps
  // cluster_verification aligned.
  output.clusters.SortBySizeDescending();
  stats.filtering_seconds = timer.ElapsedSeconds();
  CountLastFunctions(last_fn, sequence_.size(), [](RecordId) { return true; },
                     &stats);
  ReportTermination(instr, stats, output.clusters.clusters.size());
  output.stats = std::move(stats);
  return output;
}

}  // namespace adalsh
