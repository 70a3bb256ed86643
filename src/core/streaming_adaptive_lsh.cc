#include "core/streaming_adaptive_lsh.h"

#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "clustering/clustering.h"
#include "core/refine_loop.h"
#include "core/termination.h"
#include "util/check.h"
#include "util/timer.h"

namespace adalsh {

StreamingAdaptiveLsh::StreamingAdaptiveLsh(const Dataset& dataset,
                                           const MatchRule& rule,
                                           const AdaptiveLshConfig& config)
    : dataset_(&dataset),
      rule_(rule),
      config_(config),
      pool_(config.threads),
      sequence_([&] {
        Status valid = config.Validate();
        ADALSH_CHECK(valid.ok()) << valid.ToString();
        StatusOr<FunctionSequence> built =
            FunctionSequence::Build(rule, dataset.record(0), config.sequence);
        ADALSH_CHECK(built.ok()) << built.status().ToString();
        return std::move(built).value();
      }()),
      cost_model_(CostModel::Calibrate(dataset, rule,
                                       config.calibration_samples,
                                       config.seed, pool_.get(),
                                       config.instrumentation)),
      engine_(dataset, sequence_.structure(), config.seed),
      hasher_(&engine_, &forest_, dataset.num_records(), pool_.get(),
              config.instrumentation),
      pairwise_(dataset, rule, pool_.get(), config.instrumentation) {
  cost_model_.set_pairwise_noise_factor(config.pairwise_noise_factor);
  level1_tables_.resize(sequence_.plan(0).tables.size());
  leaf_of_.assign(dataset.num_records(), kInvalidNode);
  last_fn_.assign(dataset.num_records(), 0);
}

void StreamingAdaptiveLsh::Add(RecordId r) {
  ADALSH_CHECK_LT(r, dataset_->num_records());
  ADALSH_CHECK_EQ(leaf_of_[r], kInvalidNode) << "record added twice";
  if (num_added_ == 0) {
    Status config = config_.ValidateForRefineLoop();
    ADALSH_CHECK(config.ok()) << config.ToString();
  }
  const SchemePlan& plan = sequence_.plan(0);
  engine_.EnsureHashes(r, plan);
  last_fn_[r] = 0;  // arrival evidence is level-1 only
  ++num_added_;

  for (size_t t = 0; t < plan.tables.size(); ++t) {
    RecordId other =
        level1_tables_[t].Exchange(engine_.TableKey(r, plan.tables[t]), r);
    if (other == BucketTable::kNone) {
      if (leaf_of_[r] == kInvalidNode) {
        forest_.MakeTree(r, /*producer=*/0, &leaf_of_[r]);
      }
      continue;
    }
    NodeId other_root = forest_.FindRoot(leaf_of_[other]);
    if (leaf_of_[r] == kInvalidNode) {
      leaf_of_[r] = forest_.AddLeaf(other_root, r);
      // New member joined on level-1 evidence: the cluster must be
      // re-verified by a later TopK().
      forest_.SetProducer(other_root, 0);
    } else {
      NodeId my_root = forest_.FindRoot(leaf_of_[r]);
      if (my_root != other_root) {
        NodeId survivor = forest_.Merge(my_root, other_root);
        forest_.SetProducer(survivor, 0);
      }
    }
  }
  if (plan.tables.empty() && leaf_of_[r] == kInvalidNode) {
    forest_.MakeTree(r, 0, &leaf_of_[r]);
  }
}

Status StreamingAdaptiveLsh::Extend(std::span<const RecordId> records) {
  if (num_added_ == 0) {
    Status config = config_.ValidateForRefineLoop();
    if (!config.ok()) return config;
  }
  if (config_.controller != nullptr &&
      config_.controller->cancel_requested()) {
    return Status::FailedPrecondition(
        "Extend after Cancel(): the attached controller is sticky-cancelled; "
        "attach a fresh controller to keep ingesting");
  }
  // Validate the full batch before touching any state (all-or-nothing).
  std::unordered_set<RecordId> batch;
  batch.reserve(records.size());
  for (RecordId r : records) {
    if (r >= dataset_->num_records()) {
      return Status::OutOfRange("Extend: record id " + std::to_string(r) +
                                " >= dataset size " +
                                std::to_string(dataset_->num_records()));
    }
    if (r < leaf_of_.size() && leaf_of_[r] != kInvalidNode) {
      return Status::InvalidArgument("Extend: record " + std::to_string(r) +
                                     " was already ingested");
    }
    if (!batch.insert(r).second) {
      return Status::InvalidArgument("Extend: record " + std::to_string(r) +
                                     " appears twice in the batch");
    }
  }
  // The dataset may have grown since construction (resident-engine append);
  // extend every per-record structure before ingesting.
  const size_t n = dataset_->num_records();
  if (n > leaf_of_.size()) {
    leaf_of_.resize(n, kInvalidNode);
    last_fn_.resize(n, 0);
    engine_.GrowTo(n);
    hasher_.GrowTo(n);
    pairwise_.NotifyDatasetGrown();
  }
  for (RecordId r : records) Add(r);
  return Status::Ok();
}

FilterOutput StreamingAdaptiveLsh::TopK(int k) {
  ADALSH_CHECK_GE(k, 1);
  ADALSH_CHECK_GT(num_added_, 0u) << "TopK before any Add";
  Timer timer;

  // Current clusters: distinct roots over all added records.
  std::vector<NodeId> roots;
  {
    std::unordered_set<NodeId> seen;
    for (RecordId r = 0; r < leaf_of_.size(); ++r) {
      if (leaf_of_[r] == kInvalidNode) continue;
      const NodeId root = forest_.FindRoot(leaf_of_[r]);
      if (seen.insert(root).second) roots.push_back(root);
    }
  }

  // Anytime execution (docs/robustness.md). The engine and the pairwise
  // computer are long-lived and their counters are cumulative across the
  // stream, so the controller is armed with the current totals as the zero
  // points of this call's budgets.
  std::optional<RunController> local_controller;
  RunController* controller = ResolveController(
      config_.controller, config_.budget, &local_controller,
      engine_.total_hashes_computed(), pairwise_.total_similarities());

  RefineLoopDeps deps;
  deps.sequence = &sequence_;
  deps.cost_model = &cost_model_;
  deps.engine = &engine_;
  deps.hasher = &hasher_;
  deps.pairwise = &pairwise_;
  deps.forest = &forest_;
  deps.last_fn = &last_fn_;
  // Track the new leaves so future arrivals and TopK calls resolve the
  // current cluster of every record.
  deps.leaf_of = &leaf_of_;
  deps.instrumentation = config_.instrumentation;
  std::vector<NodeId> finals;
  FilterStats stats;
  RunRefineLoop(deps, k, roots, controller, &finals, &stats);

  FilterOutput output;
  output.clusters = MaterializeClusters(forest_, finals);
  output.clusters.SortBySizeDescending();
  stats.filtering_seconds = timer.ElapsedSeconds();
  // Definition 3 snapshot over every added record.
  CountLastFunctions(
      last_fn_, sequence_.size(),
      [&](RecordId r) { return leaf_of_[r] != kInvalidNode; }, &stats);
  ReportTermination(config_.instrumentation, stats,
                    output.clusters.clusters.size());
  output.stats = std::move(stats);
  return output;
}

}  // namespace adalsh
