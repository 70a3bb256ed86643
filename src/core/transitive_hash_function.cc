#include "core/transitive_hash_function.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "core/bucket_table.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace adalsh {
namespace {

/// How many records ahead the predecessor pass prefetches a table's slot.
constexpr size_t kPrefetchAhead = 16;

}  // namespace

TransitiveHasher::TransitiveHasher(HashEngine* engine,
                                   ParentPointerForest* forest,
                                   size_t num_records, ThreadPool* pool,
                                   Instrumentation instr,
                                   RunController* controller)
    : engine_(engine),
      forest_(forest),
      pool_(pool),
      instr_(instr),
      controller_(controller) {
  ADALSH_CHECK(engine != nullptr && forest != nullptr);
  leaf_of_.assign(num_records, LeafStamp{});
}

void TransitiveHasher::GrowTo(size_t num_records) {
  if (num_records <= leaf_of_.size()) return;
  leaf_of_.resize(num_records, LeafStamp{});
}

NodeId TransitiveHasher::MakeLeafTree(RecordId r, int producer) {
  NodeId leaf = kInvalidNode;
  NodeId root = forest_->MakeTree(r, producer, &leaf);
  leaf_of_[r] = {leaf, epoch_};
  return root;
}

std::vector<NodeId> TransitiveHasher::Apply(
    const std::vector<RecordId>& records, const SchemePlan& plan,
    int producer) {
  ++epoch_;
  ADALSH_CHECK_NE(epoch_, 0u) << "epoch counter wrapped";
  interrupted_ = false;

  const bool observed = instr_.enabled();
  const uint64_t hashes_before = engine_->total_hashes_computed();
  Timer timer;  // read only when observed
  TraceRecorder::Span span(instr_.trace, "hash_pass", "hash");

  // Fresh tables for this invocation; buckets remember only the last-added
  // record (Appendix B.2).
  std::vector<BucketTable> tables(plan.tables.size());

  auto has_leaf = [this](RecordId r) { return leaf_of_[r].epoch == epoch_; };

  const size_t num_tables = plan.tables.size();
  engine_->PreparePlan(plan);

  for (size_t base = 0; base < records.size(); base += kKeyBlock) {
    // Block-boundary cooperative check, on the driving thread at
    // input-deterministic boundaries (fault-injection site kHashApply).
    FaultInjectionPoint(FaultSite::kHashApply);
    if (controller_ != nullptr) {
      controller_->ReportHashes(engine_->total_hashes_computed());
      if (controller_->ShouldStop()) {
        interrupted_ = true;
        break;
      }
    }
    const size_t count = std::min(kKeyBlock, records.size() - base);
    std::span<const RecordId> block(records.data() + base, count);

    // Hot path, fanned out over the pool: per-record hash prefixes and all
    // bucket keys of the block. Each record's cache slots are touched by
    // exactly one worker; the fork/join below orders these writes before the
    // merge reads them.
    key_block_.resize(count * num_tables);
    ParallelFor(pool_, count, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        engine_->EnsureHashes(block[i], plan);
        for (size_t t = 0; t < num_tables; ++t) {
          key_block_[i * num_tables + t] =
              engine_->TableKey(block[i], plan.tables[t]);
        }
      }
    });

    // Stateful merge over precomputed keys: strictly serial, in record order,
    // so any thread count reproduces the single-threaded forest exactly.
    FaultInjectionPoint(FaultSite::kMerge);
    TraceRecorder::Span merge_span(instr_.trace, "merge", "hash");
    merge_span.AddArg("records", static_cast<double>(count));

    // Predecessor pass, one table at a time: each key is overwritten with
    // the record its bucket held when this record arrived (kNone for an
    // empty bucket), and the record becomes the bucket's last-added one.
    // A function's tables see keys of one distribution, so each table is
    // sized from the previous one's distinct-key count, which saves most
    // of the doubling rehashes.
    for (size_t t = 0; t < num_tables; ++t) {
      BucketTable& table = tables[t];
      if (t > 0) table.Reserve(tables[t - 1].size());
      for (size_t i = 0; i < count; ++i) {
        if (i + kPrefetchAhead < count) {
          table.Prefetch(key_block_[(i + kPrefetchAhead) * num_tables + t]);
        }
        uint64_t& slot = key_block_[i * num_tables + t];
        slot = table.Exchange(slot, block[i]);
      }
    }

    // Replay of Fig. 19's four cases in record order, then table order —
    // the forest calls the bucket-at-a-time loop would make. `root` caches
    // r's root: only r's own steps touch the forest during its table loop.
    // A predecessor equal to the previous one is skipped: r already joined
    // its tree a step ago, trees only merge within a pass, so the step
    // would change nothing.
    for (size_t i = 0; i < count; ++i) {
      const RecordId r = block[i];
      NodeId root =
          has_leaf(r) ? forest_->FindRoot(leaf_of_[r].leaf) : kInvalidNode;
      RecordId last = BucketTable::kNone;
      for (size_t t = 0; t < num_tables; ++t) {
        const auto other =
            static_cast<RecordId>(key_block_[i * num_tables + t]);
        if (other == BucketTable::kNone) {
          // Cases 1/2 (Fig. 19a): empty bucket. Create r's tree if needed.
          if (root == kInvalidNode) root = MakeLeafTree(r, producer);
          continue;
        }
        if (other == last) continue;
        last = other;
        ADALSH_CHECK(has_leaf(other));
        NodeId other_root = forest_->FindRoot(leaf_of_[other].leaf);
        if (root == kInvalidNode) {
          // Case 3 (Fig. 19b): join the bucket's tree as a fresh leaf.
          leaf_of_[r] = {forest_->AddLeaf(other_root, r), epoch_};
          root = other_root;
        } else if (root != other_root) {
          // Case 4 (Fig. 19c): merge the two trees.
          root = forest_->Merge(root, other_root);
        }
      }
      // Degenerate plan with no tables: every record is its own cluster.
      if (root == kInvalidNode) MakeLeafTree(r, producer);
    }
  }

  // Collect the distinct roots of the invocation's trees. Skipped on an
  // interrupted pass: records in unprocessed blocks have no leaf, and the
  // empty root set tells callers the round must be discarded.
  std::vector<NodeId> roots;
  if (!interrupted_) {
    std::unordered_set<NodeId> seen;
    seen.reserve(records.size());
    for (RecordId r : records) {
      ADALSH_CHECK(has_leaf(r));
      NodeId root = forest_->FindRoot(leaf_of_[r].leaf);
      if (seen.insert(root).second) roots.push_back(root);
    }
  }

  if (observed) {
    const uint64_t hashes = engine_->total_hashes_computed() - hashes_before;
    span.AddArg("function_index", static_cast<double>(producer));
    span.AddArg("records", static_cast<double>(records.size()));
    span.AddArg("hashes", static_cast<double>(hashes));
    span.AddArg("clusters_out", static_cast<double>(roots.size()));
    if (instr_.metrics != nullptr) {
      instr_.metrics->AddCounter("hashes_computed", hashes);
      instr_.metrics->AddCounter("hash_passes", 1);
      instr_.metrics->RecordValue("hash_pass_records",
                                  static_cast<double>(records.size()));
    }
    if (instr_.observer != nullptr) {
      FunctionApplyInfo info;
      info.function_index = producer;
      info.records = records.size();
      info.hashes_computed = hashes;
      info.clusters_out = roots.size();
      info.seconds = timer.ElapsedSeconds();
      instr_.observer->OnFunctionApplied(info);
    }
  }
  return roots;
}

}  // namespace adalsh
