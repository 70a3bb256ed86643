#include "core/transitive_hash_function.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/bucket_table.h"
#include "core/scheme_optimizer.h"
#include "test_util.h"
#include "util/run_controller.h"
#include "util/thread_pool.h"

namespace adalsh {
namespace {

struct HasherFixture {
  GeneratedDataset generated;
  RuleHashStructure structure;

  explicit HasherFixture(std::vector<size_t> sizes, uint64_t seed = 5)
      : generated(test::MakePlantedDataset(sizes, seed)),
        structure(CompileRuleForHashing(generated.rule).value()) {}

  SchemePlan PlanForBudget(int budget) {
    OptimizerConfig config;
    return BuildPlan(structure,
                     OptimizeComposite(structure, budget, config, nullptr));
  }
};

TEST(TransitiveHasherTest, ClustersPlantedEntities) {
  HasherFixture setup({20, 10, 5, 1, 1});
  HashEngine engine(setup.generated.dataset, setup.structure, 7);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan plan = setup.PlanForBudget(640);
  std::vector<NodeId> roots =
      hasher.Apply(setup.generated.dataset.AllRecordIds(), plan, 0);

  // With a generous budget, the output should be (nearly) the ground truth:
  // 5 clusters with the planted sizes.
  std::vector<size_t> sizes;
  for (NodeId root : roots) sizes.push_back(forest.LeafCount(root));
  std::sort(sizes.rbegin(), sizes.rend());
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes[0], 20u);
  EXPECT_EQ(sizes[1], 10u);
  EXPECT_EQ(sizes[2], 5u);
}

TEST(TransitiveHasherTest, ConservativeEvaluation) {
  // Property 1: ground-truth clusters should (almost) never split, even for
  // small budgets — they may merge with others.
  HasherFixture setup({15, 15, 8});
  HashEngine engine(setup.generated.dataset, setup.structure, 11);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan plan = setup.PlanForBudget(40);
  std::vector<NodeId> roots =
      hasher.Apply(setup.generated.dataset.AllRecordIds(), plan, 0);
  GroundTruth truth = setup.generated.dataset.BuildGroundTruth();
  // Count how many output clusters each ground-truth entity spans.
  for (size_t rank = 0; rank < truth.num_entities(); ++rank) {
    std::set<NodeId> spanned;
    for (NodeId root : roots) {
      for (RecordId r : forest.Leaves(root)) {
        if (truth.entity_of(r) == truth.entity_at_rank(rank)) {
          spanned.insert(root);
        }
      }
    }
    EXPECT_LE(spanned.size(), 2u) << "entity rank " << rank << " split";
  }
}

TEST(TransitiveHasherTest, OutputPartitionsInput) {
  HasherFixture setup({9, 4, 2, 1});
  HashEngine engine(setup.generated.dataset, setup.structure, 13);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  std::vector<RecordId> input = setup.generated.dataset.AllRecordIds();
  std::vector<NodeId> roots = hasher.Apply(input, setup.PlanForBudget(80), 0);
  std::vector<RecordId> covered;
  for (NodeId root : roots) {
    for (RecordId r : forest.Leaves(root)) covered.push_back(r);
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, input);  // every record exactly once
}

TEST(TransitiveHasherTest, ProducerTagApplied) {
  HasherFixture setup({3, 2});
  HashEngine engine(setup.generated.dataset, setup.structure, 17);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  std::vector<NodeId> roots =
      hasher.Apply(setup.generated.dataset.AllRecordIds(),
                   setup.PlanForBudget(40), 3);
  for (NodeId root : roots) EXPECT_EQ(forest.Producer(root), 3);
}

TEST(TransitiveHasherTest, SubsetInvocationOnlyTouchesSubset) {
  HasherFixture setup({6, 6});
  HashEngine engine(setup.generated.dataset, setup.structure, 19);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  // Apply to the first entity's records only.
  std::vector<RecordId> subset = {0, 1, 2, 3, 4, 5};
  std::vector<NodeId> roots =
      hasher.Apply(subset, setup.PlanForBudget(160), 1);
  size_t total = 0;
  for (NodeId root : roots) total += forest.LeafCount(root);
  EXPECT_EQ(total, subset.size());
}

TEST(TransitiveHasherTest, FreshTablesPerInvocation) {
  // Two invocations over disjoint subsets must not merge across invocations.
  HasherFixture setup({4, 4});
  HashEngine engine(setup.generated.dataset, setup.structure, 23);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan plan = setup.PlanForBudget(160);
  std::vector<NodeId> first = hasher.Apply({0, 1, 2, 3}, plan, 0);
  std::vector<NodeId> second = hasher.Apply({4, 5, 6, 7}, plan, 0);
  for (NodeId root : second) {
    for (RecordId r : forest.Leaves(root)) EXPECT_GE(r, 4u);
  }
  // First invocation's trees still intact.
  size_t first_total = 0;
  for (NodeId root : first) first_total += forest.LeafCount(root);
  EXPECT_EQ(first_total, 4u);
}

TEST(TransitiveHasherTest, IncrementalReuseAcrossPlans) {
  // Applying a small plan then a large one computes only the delta.
  HasherFixture setup({10});
  HashEngine engine(setup.generated.dataset, setup.structure, 29);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan small = setup.PlanForBudget(40);
  SchemePlan large = setup.PlanForBudget(80);
  std::vector<RecordId> all = setup.generated.dataset.AllRecordIds();
  hasher.Apply(all, small, 0);
  uint64_t after_small = engine.total_hashes_computed();
  EXPECT_EQ(after_small, 40u * all.size());
  hasher.Apply(all, large, 1);
  uint64_t after_large = engine.total_hashes_computed();
  EXPECT_EQ(after_large, 80u * all.size());  // only the 40-hash delta added
}

// ---------------------------------------------------------------------------
// BucketTable

TEST(BucketTableTest, ExchangeReturnsThePreviousRecord) {
  BucketTable table;
  EXPECT_EQ(table.Exchange(42, 1), BucketTable::kNone);
  EXPECT_EQ(table.Exchange(42, 2), 1u);
  EXPECT_EQ(table.Exchange(7, 3), BucketTable::kNone);
  EXPECT_EQ(table.Exchange(42, 4), 2u);
  EXPECT_EQ(table.Exchange(7, 5), 3u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(BucketTableTest, GrowthKeepsEveryEntry) {
  BucketTable table;
  constexpr RecordId kKeys = 20000;
  auto key_of = [](RecordId i) { return 0x1234567ULL * i + 99; };
  for (RecordId i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.Exchange(key_of(i), i), BucketTable::kNone) << i;
    ASSERT_LE(2 * table.size(), table.capacity());
  }
  EXPECT_EQ(table.size(), kKeys);
  // Doubling at half load: never more than four slots per key.
  EXPECT_LE(table.capacity(), 4u * kKeys);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  for (RecordId i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.Exchange(key_of(i), kKeys + i), i) << i;
  }
  EXPECT_EQ(table.size(), kKeys);
  // An explicit Reserve rehashes into a larger array and keeps every entry.
  table.Reserve(4 * kKeys);
  EXPECT_GE(table.capacity(), 8u * kKeys);
  for (RecordId i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.Exchange(key_of(i), i), kKeys + i) << i;
  }
  EXPECT_EQ(table.size(), kKeys);
}

TEST(BucketTableTest, MemoryFollowsDistinctKeys) {
  BucketTable table;
  for (RecordId r = 0; r < 100000; ++r) table.Exchange(r % 3, r);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_LE(table.capacity(), 16u);
}

TEST(BucketTableTest, KeysSharingTheirLowBits) {
  // Keys that differ only above bit 40 (and only above bit 32 with equal low
  // words) must stay distinct and retrievable.
  BucketTable table;
  constexpr RecordId kKeys = 4096;
  for (RecordId i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.Exchange(static_cast<uint64_t>(i + 1) << 40, i),
              BucketTable::kNone);
    ASSERT_EQ(table.Exchange((static_cast<uint64_t>(i) << 32) | 0xabcu,
                             kKeys + i),
              BucketTable::kNone);
  }
  EXPECT_EQ(table.size(), 2u * kKeys);
  EXPECT_LE(table.capacity(), 8u * kKeys);
  for (RecordId i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.Exchange(static_cast<uint64_t>(i + 1) << 40, 0), i);
    ASSERT_EQ(table.Exchange((static_cast<uint64_t>(i) << 32) | 0xabcu, 0),
              kKeys + i);
  }
}

TEST(BucketTableTest, ZeroAndAllOnesAreOrdinaryKeys) {
  BucketTable table;
  EXPECT_EQ(table.Exchange(0, 5), BucketTable::kNone);
  EXPECT_EQ(table.Exchange(~uint64_t{0}, 6), BucketTable::kNone);
  EXPECT_EQ(table.Exchange(0, 7), 5u);
  EXPECT_EQ(table.Exchange(~uint64_t{0}, 8), 6u);
  EXPECT_EQ(table.size(), 2u);
  // Record 0 is a valid record, distinct from an empty bucket.
  EXPECT_EQ(table.Exchange(1, 0), BucketTable::kNone);
  EXPECT_EQ(table.Exchange(1, 9), 0u);
}

// ---------------------------------------------------------------------------
// Differential test: Apply against Appendix B.2's bucket merge written as one
// std::unordered_map per table, walked record by record. The flat tables and
// the predecessor replay must make the same forest calls, so the two forests
// agree node by node.

std::vector<NodeId> ReferenceApply(HashEngine* engine,
                                   ParentPointerForest* forest,
                                   const std::vector<RecordId>& records,
                                   const SchemePlan& plan, int producer) {
  std::unordered_map<RecordId, NodeId> leaf_of;
  std::vector<std::unordered_map<uint64_t, RecordId>> tables(
      plan.tables.size());
  engine->PreparePlan(plan);
  for (RecordId r : records) {
    engine->EnsureHashes(r, plan);
    for (size_t t = 0; t < plan.tables.size(); ++t) {
      uint64_t key = engine->TableKey(r, plan.tables[t]);
      auto [it, inserted] = tables[t].try_emplace(key, r);
      if (inserted) {
        if (!leaf_of.contains(r)) {
          forest->MakeTree(r, producer, &leaf_of[r]);
        }
        continue;
      }
      NodeId other_root = forest->FindRoot(leaf_of.at(it->second));
      if (!leaf_of.contains(r)) {
        leaf_of[r] = forest->AddLeaf(other_root, r);
      } else {
        NodeId my_root = forest->FindRoot(leaf_of[r]);
        if (my_root != other_root) forest->Merge(my_root, other_root);
      }
      it->second = r;
    }
    if (plan.tables.empty() && !leaf_of.contains(r)) {
      forest->MakeTree(r, producer, &leaf_of[r]);
    }
  }
  std::vector<NodeId> roots;
  std::unordered_set<NodeId> seen;
  for (RecordId r : records) {
    NodeId root = forest->FindRoot(leaf_of.at(r));
    if (seen.insert(root).second) roots.push_back(root);
  }
  return roots;
}

/// The roots in returned order, and per root its leaves, count and producer.
void ExpectSameRoots(const ParentPointerForest& want,
                     const std::vector<NodeId>& want_roots,
                     const ParentPointerForest& got,
                     const std::vector<NodeId>& got_roots) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got_roots, want_roots);
  for (NodeId root : want_roots) {
    EXPECT_EQ(got.LeafCount(root), want.LeafCount(root)) << root;
    EXPECT_EQ(got.Producer(root), want.Producer(root)) << root;
    EXPECT_EQ(got.Leaves(root), want.Leaves(root)) << root;
  }
}

/// Every node: same root, same depth, and on roots the same count and
/// producer.
void ExpectSameNodes(const ParentPointerForest& want,
                     const ParentPointerForest& got) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId n = 0; n < static_cast<NodeId>(want.num_nodes()); ++n) {
    ASSERT_EQ(got.FindRoot(n), want.FindRoot(n)) << n;
    ASSERT_EQ(got.DepthForTest(n), want.DepthForTest(n)) << n;
    if (got.IsRoot(n)) {
      ASSERT_EQ(got.LeafCount(n), want.LeafCount(n)) << n;
      ASSERT_EQ(got.Producer(n), want.Producer(n)) << n;
    }
  }
}

void ExpectSameForest(const ParentPointerForest& want,
                      const std::vector<NodeId>& want_roots,
                      const ParentPointerForest& got,
                      const std::vector<NodeId>& got_roots) {
  ExpectSameRoots(want, want_roots, got, got_roots);
  ExpectSameNodes(want, got);
}

/// Duplicate-heavy input for the differential tests: planted entities from
/// 8000 records down to pairs, with an exact copy right behind every fifth
/// record, so many buckets see the same predecessor in every table; more
/// than two key blocks of records, so buckets carry across blocks. Every
/// other entity is loose (a third of its core tokens replaced per record),
/// so its records collide in some tables and not others: Fig. 19c merges
/// then happen late in a record's table loop and between equal-size trees,
/// where the order of Merge's arguments picks the surviving root.
GeneratedDataset DuplicateHeavyDataset() {
  std::vector<size_t> sizes = {8000, 4000, 2000, 800, 200, 50, 1, 1, 1};
  for (int e = 0; e < 400; ++e) sizes.push_back(2 + e % 2);
  Rng rng(31);
  Dataset dataset("duplicate_heavy");
  uint64_t next_token = 1;
  for (size_t e = 0; e < sizes.size(); ++e) {
    std::vector<uint64_t> core;
    for (int t = 0; t < 30; ++t) core.push_back(next_token++);
    const int noise = e % 2 == 0 ? 2 : 10;
    for (size_t r = 0; r < sizes[e]; ++r) {
      std::vector<uint64_t> tokens = core;
      for (int n = 0; n < noise; ++n) {
        tokens[rng.NextBelow(tokens.size())] = next_token++;
      }
      for (int copies = r % 5 == 4 ? 2 : 1; copies > 0; --copies) {
        std::vector<Field> fields;
        fields.push_back(Field::TokenSet(tokens));
        dataset.AddRecord(Record(std::move(fields), std::to_string(e)),
                          static_cast<EntityId>(e));
      }
    }
  }
  return GeneratedDataset(std::move(dataset), MatchRule::Leaf(0, 0.5));
}

TEST(TransitiveHasherDifferentialTest, MatchesReferenceMergeNodeByNode) {
  GeneratedDataset generated = DuplicateHeavyDataset();
  RuleHashStructure structure =
      CompileRuleForHashing(generated.rule).value();
  auto plan_for = [&](int budget) {
    OptimizerConfig config;
    return BuildPlan(structure,
                     OptimizeComposite(structure, budget, config, nullptr));
  };
  const std::vector<SchemePlan> plans = {plan_for(20), plan_for(80)};
  const std::vector<RecordId> all = generated.dataset.AllRecordIds();
  ASSERT_GT(all.size(), 2 * TransitiveHasher::kKeyBlock);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    HashEngine engine(generated.dataset, structure, 37);
    HashEngine reference_engine(generated.dataset, structure, 37);
    ParentPointerForest forest;
    ParentPointerForest reference;
    TransitiveHasher hasher(&engine, &forest, all.size(), pool.get());

    // H_1 over everything, then H_2 over every cluster H_1 produced: fresh
    // tables per call, producers 0 and 1.
    std::vector<std::vector<RecordId>> inputs = {all};
    for (int level = 0; level < static_cast<int>(plans.size()); ++level) {
      std::vector<std::vector<RecordId>> next;
      for (const std::vector<RecordId>& input : inputs) {
        std::vector<NodeId> want = ReferenceApply(
            &reference_engine, &reference, input, plans[level], level);
        std::vector<NodeId> got = hasher.Apply(input, plans[level], level);
        ASSERT_FALSE(hasher.last_apply_interrupted());
        ExpectSameRoots(reference, want, forest, got);
        if (HasFatalFailure()) return;
        for (NodeId root : got) {
          if (forest.LeafCount(root) > 1) next.push_back(forest.Leaves(root));
        }
      }
      ExpectSameNodes(reference, forest);
      if (HasFatalFailure()) return;
      inputs = std::move(next);
    }
    EXPECT_EQ(engine.total_hashes_computed(),
              reference_engine.total_hashes_computed());
  }
}

TEST(TransitiveHasherDifferentialTest, EmptyPlanMakesSingletons) {
  GeneratedDataset generated = test::MakePlantedDataset({5, 3, 1}, 41);
  RuleHashStructure structure =
      CompileRuleForHashing(generated.rule).value();
  HashEngine engine(generated.dataset, structure, 43);
  HashEngine reference_engine(generated.dataset, structure, 43);
  ParentPointerForest forest;
  ParentPointerForest reference;
  TransitiveHasher hasher(&engine, &forest,
                          generated.dataset.num_records());
  const std::vector<RecordId> all = generated.dataset.AllRecordIds();
  // No tables, and no hashes drawn from the structure's single unit.
  SchemePlan empty;
  empty.hashes_per_unit.assign(structure.units.size(), 0);
  std::vector<NodeId> want =
      ReferenceApply(&reference_engine, &reference, all, empty, 4);
  std::vector<NodeId> got = hasher.Apply(all, empty, 4);
  EXPECT_EQ(got.size(), all.size());
  ExpectSameForest(reference, want, forest, got);
}

TEST(TransitiveHasherDifferentialTest, StopAtSecondBlockLeavesFirstBlock) {
  GeneratedDataset generated = DuplicateHeavyDataset();
  RuleHashStructure structure =
      CompileRuleForHashing(generated.rule).value();
  OptimizerConfig optimizer;
  const SchemePlan plan = BuildPlan(
      structure, OptimizeComposite(structure, 40, optimizer, nullptr));
  const std::vector<RecordId> all = generated.dataset.AllRecordIds();
  ASSERT_GT(all.size(), TransitiveHasher::kKeyBlock);

  // One hash of budget: the first block's check sees none computed yet, the
  // second block's check stops the pass.
  RunBudget budget;
  budget.max_hashes = 1;
  RunController controller(budget);
  HashEngine engine(generated.dataset, structure, 47);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest, all.size(), nullptr, {},
                          &controller);
  std::vector<NodeId> roots = hasher.Apply(all, plan, 0);
  EXPECT_TRUE(roots.empty());
  EXPECT_TRUE(hasher.last_apply_interrupted());
  EXPECT_EQ(controller.reason(), TerminationReason::kBudgetExhausted);

  // The forest holds exactly the first block's merge.
  const std::vector<RecordId> first_block(
      all.begin(), all.begin() + TransitiveHasher::kKeyBlock);
  HashEngine reference_engine(generated.dataset, structure, 47);
  ParentPointerForest reference;
  std::vector<NodeId> want =
      ReferenceApply(&reference_engine, &reference, first_block, plan, 0);
  EXPECT_EQ(engine.total_hashes_computed(),
            reference_engine.total_hashes_computed());
  ExpectSameForest(reference, want, forest, want);
}

}  // namespace
}  // namespace adalsh
