#include "core/streaming_adaptive_lsh.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "test_util.h"
#include "util/run_controller.h"

namespace adalsh {
namespace {

AdaptiveLshConfig SmallConfig() {
  AdaptiveLshConfig config;
  config.sequence.max_budget = 640;
  config.calibration_samples = 20;
  config.seed = 3;
  return config;
}

TEST(StreamingTest, AllAtOnceMatchesGroundTruth) {
  GeneratedDataset generated =
      test::MakePlantedDataset({20, 12, 7, 3, 1, 1}, 5);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  for (RecordId r = 0; r < generated.dataset.num_records(); ++r) {
    stream.Add(r);
  }
  EXPECT_EQ(stream.num_added(), generated.dataset.num_records());
  FilterOutput output = stream.TopK(3);
  GroundTruth truth = generated.dataset.BuildGroundTruth();
  EXPECT_EQ(output.clusters.UnionOfTopClusters(3), truth.TopKRecords(3));
}

TEST(StreamingTest, TopKReflectsArrivalsSoFar) {
  GeneratedDataset generated = test::MakePlantedDataset({16, 8, 4}, 7);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  // Add the first half of every cluster (record ids are contiguous per
  // entity: 0..15, 16..23, 24..27).
  for (RecordId r : {0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 24, 25}) {
    stream.Add(r);
  }
  FilterOutput early = stream.TopK(2);
  EXPECT_EQ(early.clusters.clusters[0].size(), 8u);
  EXPECT_EQ(early.clusters.clusters[1].size(), 4u);
  // Stream the rest; the clusters grow accordingly.
  for (RecordId r : {8, 9, 10, 11, 12, 13, 14, 15, 20, 21, 22, 23, 26, 27}) {
    stream.Add(r);
  }
  FilterOutput late = stream.TopK(2);
  EXPECT_EQ(late.clusters.clusters[0].size(), 16u);
  EXPECT_EQ(late.clusters.clusters[1].size(), 8u);
}

TEST(StreamingTest, NewArrivalsReopenVerifiedClusters) {
  GeneratedDataset generated = test::MakePlantedDataset({10, 6, 2}, 9);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  for (RecordId r = 0; r < 16; ++r) stream.Add(r);  // clusters 0 and 1
  FilterOutput before = stream.TopK(2);
  EXPECT_EQ(before.clusters.clusters[0].size(), 10u);
  stream.Add(16);  // a record of the third (smallest) entity
  stream.Add(17);
  FilterOutput after = stream.TopK(3);
  EXPECT_EQ(after.clusters.clusters.size(), 3u);
  EXPECT_EQ(after.clusters.clusters[2].size(), 2u);
}

TEST(StreamingTest, SecondTopKReusesVerification) {
  GeneratedDataset generated = test::MakePlantedDataset({15, 9, 4, 1, 1}, 11);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  for (RecordId r = 0; r < generated.dataset.num_records(); ++r) {
    stream.Add(r);
  }
  FilterOutput first = stream.TopK(2);
  FilterOutput second = stream.TopK(2);
  // Identical results, and the second call does (almost) no new hash work.
  EXPECT_EQ(first.clusters.UnionOfTopClusters(2),
            second.clusters.UnionOfTopClusters(2));
  EXPECT_EQ(second.stats.hashes_computed, 0u);
  EXPECT_EQ(second.stats.pairwise_similarities, 0u);
}

TEST(StreamingTest, ArrivalOrderInvariantResult) {
  GeneratedDataset generated = test::MakePlantedDataset({12, 6, 3, 1}, 13);
  AdaptiveLshConfig config = SmallConfig();
  StreamingAdaptiveLsh forward(generated.dataset, generated.rule, config);
  StreamingAdaptiveLsh backward(generated.dataset, generated.rule, config);
  size_t n = generated.dataset.num_records();
  for (RecordId r = 0; r < n; ++r) forward.Add(r);
  for (RecordId r = 0; r < n; ++r) backward.Add(static_cast<RecordId>(n - 1 - r));
  EXPECT_EQ(forward.TopK(2).clusters.UnionOfTopClusters(2),
            backward.TopK(2).clusters.UnionOfTopClusters(2));
}

TEST(StreamingTest, ExtendIngestsBatchLikeAddLoop) {
  GeneratedDataset generated = test::MakePlantedDataset({14, 8, 5, 2}, 19);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  std::vector<RecordId> ids(generated.dataset.num_records());
  std::iota(ids.begin(), ids.end(), 0u);
  Status status = stream.Extend(ids);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stream.num_added(), ids.size());
  FilterOutput output = stream.TopK(2);
  GroundTruth truth = generated.dataset.BuildGroundTruth();
  EXPECT_EQ(output.clusters.UnionOfTopClusters(2), truth.TopKRecords(2));
}

TEST(StreamingTest, ExtendValidatesTheWholeBatchBeforeIngesting) {
  GeneratedDataset generated = test::MakePlantedDataset({6, 3}, 21);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  const RecordId beyond =
      static_cast<RecordId>(generated.dataset.num_records());
  // A bad id anywhere in the batch rejects the batch with nothing ingested —
  // even the valid ids that precede it.
  std::vector<RecordId> out_of_range = {0, 1, beyond};
  Status status = stream.Extend(out_of_range);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.num_added(), 0u);

  std::vector<RecordId> duplicated = {0, 1, 1};
  status = stream.Extend(duplicated);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.num_added(), 0u);

  stream.Add(2);
  std::vector<RecordId> already_added = {0, 2};
  status = stream.Extend(already_added);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.num_added(), 1u);
}

TEST(StreamingTest, ExtendAfterStickyCancelReturnsFailedPrecondition) {
  GeneratedDataset generated = test::MakePlantedDataset({6, 3}, 23);
  AdaptiveLshConfig config = SmallConfig();
  RunController controller;
  config.controller = &controller;
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule, config);
  std::vector<RecordId> first = {0, 1, 2};
  ASSERT_TRUE(stream.Extend(first).ok());

  controller.Cancel();
  // Cancel() is sticky across Arm(); an extend must not race it, and the
  // failure is reported as a Status instead of aborting the process.
  std::vector<RecordId> second = {3, 4};
  Status status = stream.Extend(second);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stream.num_added(), 3u);
}

TEST(StreamingTest, BatchOnlyConfigFieldsAreRejectedOnFirstExtend) {
  // TopK runs the canonical refinement loop: Largest-First with
  // Definition 3's jump rule. A batch-only knob must fail loudly instead of
  // being silently ignored, before any record is ingested.
  GeneratedDataset generated = test::MakePlantedDataset({4, 2}, 9);
  struct Knob {
    const char* field;
    void (*set)(AdaptiveLshConfig*);
  };
  const Knob knobs[] = {
      {"config.selection",
       [](AdaptiveLshConfig* c) { c->selection = SelectionStrategy::kFifo; }},
      {"config.jump_model",
       [](AdaptiveLshConfig* c) {
         c->jump_model = JumpModel::kSampledPurity;
       }},
      {"config.ablate_incremental_reuse",
       [](AdaptiveLshConfig* c) { c->ablate_incremental_reuse = true; }},
  };
  const std::vector<RecordId> ids = generated.dataset.AllRecordIds();
  for (const Knob& knob : knobs) {
    AdaptiveLshConfig config = SmallConfig();
    knob.set(&config);
    StreamingAdaptiveLsh stream(generated.dataset, generated.rule, config);
    Status status = stream.Extend(ids);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << knob.field;
    EXPECT_NE(status.message().find(knob.field), std::string::npos)
        << status.ToString();
    EXPECT_EQ(stream.num_added(), 0u);
    EXPECT_EQ(stream.total_hashes_computed(), 0u);
  }
}

TEST(StreamingDeathTest, DoubleAddAborts) {
  GeneratedDataset generated = test::MakePlantedDataset({3}, 15);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  stream.Add(0);
  EXPECT_DEATH(stream.Add(0), "added twice");
}

TEST(StreamingDeathTest, AddWithBatchOnlyConfigFieldAborts) {
  GeneratedDataset generated = test::MakePlantedDataset({3}, 19);
  AdaptiveLshConfig config = SmallConfig();
  config.selection = SelectionStrategy::kRandom;
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule, config);
  EXPECT_DEATH(stream.Add(0), "config.selection");
}

TEST(StreamingDeathTest, TopKBeforeAddAborts) {
  GeneratedDataset generated = test::MakePlantedDataset({3}, 17);
  StreamingAdaptiveLsh stream(generated.dataset, generated.rule,
                              SmallConfig());
  EXPECT_DEATH(stream.TopK(1), "before any Add");
}

}  // namespace
}  // namespace adalsh
