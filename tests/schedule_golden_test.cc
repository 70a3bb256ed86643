// Pins the exact Algorithm 1 schedule — every round's action, function and
// cluster size plus the run totals — of AdaptiveLsh::Run (every selection
// strategy, both jump models, the incremental-reuse ablation, a hash budget)
// and StreamingAdaptiveLsh::TopK against tests/golden/adalsh_schedule.golden.
//
// The membership suites would not notice a refactor that changes which
// cluster a round expands or when Line 5 jumps to P; this one does. The cost
// model is pinned, so the schedule is a pure function of the code. Never
// re-bless the golden to make a refactor pass: a diff here is a behavior
// change. On mismatch the actual transcript is written to
// adalsh_schedule.golden.actual in the working directory for `diff -u`.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_lsh.h"
#include "core/cost_model.h"
#include "core/streaming_adaptive_lsh.h"
#include "datagen/cora_like.h"
#include "datagen/spotsigs_like.h"
#include "test_util.h"

namespace adalsh {
namespace {

struct NamedDataset {
  std::string name;
  GeneratedDataset generated;
  int k;
};

std::vector<NamedDataset> Datasets() {
  std::vector<NamedDataset> datasets;
  std::vector<size_t> sizes = {30, 20, 10, 5, 2};
  for (int i = 0; i < 60; ++i) sizes.push_back(1);
  datasets.push_back({"planted", test::MakePlantedDataset(sizes, 41), 3});

  CoraLikeConfig cora;
  cora.num_entities = 25;
  cora.num_records = 160;
  cora.vocabulary_size = 800;
  cora.seed = 7;
  datasets.push_back({"cora", GenerateCoraLike(cora), 5});

  SpotSigsLikeConfig spotsigs;
  spotsigs.num_story_entities = 12;
  spotsigs.records_in_stories = 90;
  spotsigs.num_singletons = 40;
  spotsigs.sentences_min = 8;
  spotsigs.sentences_max = 16;
  spotsigs.vocabulary_size = 1200;
  spotsigs.num_sites = 6;
  spotsigs.seed = 11;
  datasets.push_back({"spotsigs", GenerateSpotSigsLike(spotsigs), 5});
  return datasets;
}

/// Two pinned models: one rule evaluation ~ 100 hashes (representative:
/// clusters mostly climb the hash sequence), and a cheap P that Line 5 jumps
/// to on mid-sized clusters.
std::vector<std::pair<std::string, CostModel>> CostModels() {
  return {{"representative", CostModel(1e-8, 1e-6)},
          {"early_jump", CostModel(1e-7, 1e-7)}};
}

AdaptiveLshConfig BaseConfig() {
  AdaptiveLshConfig config;
  config.sequence.max_budget = 640;
  config.calibration_samples = 10;
  config.threads = 1;
  config.seed = 5;
  return config;
}

void Describe(const std::string& name, const FilterOutput& output,
              std::ostringstream* out) {
  const FilterStats& stats = output.stats;
  *out << "== " << name << "\n";
  *out << "rounds " << stats.rounds << " hashes " << stats.hashes_computed
       << " sims " << stats.pairwise_similarities << " termination "
       << TerminationReasonName(stats.termination_reason) << "\n";
  *out << "last_hashed_at";
  for (size_t n : stats.records_last_hashed_at) *out << " " << n;
  *out << " pairwise " << stats.records_finished_by_pairwise << "\n";
  for (const RoundRecord& round : stats.round_records) {
    *out << "round " << round.round << " "
         << (round.action == RoundAction::kHash ? "hash" : "pairwise")
         << " fn " << round.function_index << " size " << round.cluster_size
         << " hashes " << round.hashes_computed << " sims "
         << round.pairwise_similarities
         << (round.interrupted ? " interrupted" : "") << "\n";
  }
  *out << "clusters";
  for (size_t i = 0; i < output.clusters.clusters.size(); ++i) {
    *out << " " << output.clusters.clusters[i].size() << ":"
         << stats.cluster_verification[i];
  }
  *out << "\n";
}

std::string BatchTranscript() {
  std::ostringstream out;
  for (const NamedDataset& data : Datasets()) {
    for (const auto& [model_name, model] : CostModels()) {
      const std::string prefix = data.name + "/" + model_name + "/";
      auto run = [&](const std::string& name, AdaptiveLshConfig config) {
        AdaptiveLsh adalsh(data.generated.dataset, data.generated.rule,
                           config);
        adalsh.set_cost_model(model);
        // The Section 4.2 callback: which finals fire, in which order.
        std::ostringstream fired;
        FilterOutput output = adalsh.Run(
            data.k, [&](size_t rank, const std::vector<RecordId>& records) {
              fired << " " << rank << ":" << records.size();
            });
        Describe(prefix + name, output, &out);
        out << "on_cluster" << fired.str() << "\n";
      };
      AdaptiveLshConfig config = BaseConfig();
      run("largest_first", config);
      config.selection = SelectionStrategy::kSmallestFirst;
      run("smallest_first", config);
      config.selection = SelectionStrategy::kFifo;
      run("fifo", config);
      config.selection = SelectionStrategy::kRandom;
      run("random", config);
      config = BaseConfig();
      config.jump_model = JumpModel::kSampledPurity;
      run("sampled_purity", config);
      config = BaseConfig();
      config.ablate_incremental_reuse = true;
      run("ablate_incremental_reuse", config);
      config = BaseConfig();
      config.budget.max_hashes = 4 * data.generated.dataset.num_records() *
                                 static_cast<uint64_t>(640 / 16);
      run("hash_budget", config);
      config.selection = SelectionStrategy::kFifo;
      run("hash_budget_fifo", config);
    }
  }
  return out.str();
}

std::string StreamingTranscript() {
  std::ostringstream out;
  for (const NamedDataset& data : Datasets()) {
    for (const auto& [model_name, model] : CostModels()) {
      const std::string prefix =
          data.name + "/" + model_name + "/streaming_";
      const std::vector<RecordId> ids = data.generated.dataset.AllRecordIds();
      {
        // Even ids first, then odd ids: the second wave reopens clusters the
        // first TopK already verified.
        StreamingAdaptiveLsh streaming(data.generated.dataset,
                                       data.generated.rule, BaseConfig());
        streaming.set_cost_model(model);
        for (size_t i = 0; i < ids.size(); i += 2) streaming.Add(ids[i]);
        Describe(prefix + "even", streaming.TopK(data.k), &out);
        for (size_t i = 1; i < ids.size(); i += 2) streaming.Add(ids[i]);
        Describe(prefix + "all", streaming.TopK(data.k), &out);
        Describe(prefix + "again", streaming.TopK(data.k), &out);
      }
      {
        AdaptiveLshConfig config = BaseConfig();
        config.budget.max_hashes = 2 * data.generated.dataset.num_records() *
                                   static_cast<uint64_t>(640 / 16);
        StreamingAdaptiveLsh streaming(data.generated.dataset,
                                       data.generated.rule, config);
        streaming.set_cost_model(model);
        for (RecordId r : ids) streaming.Add(r);
        Describe(prefix + "budget_1", streaming.TopK(data.k), &out);
        Describe(prefix + "budget_2", streaming.TopK(data.k), &out);
      }
    }
  }
  return out.str();
}

TEST(ScheduleGoldenTest, MatchesCommittedSchedule) {
  const std::string actual = BatchTranscript() + StreamingTranscript();
  const std::string path =
      std::string(ADALSH_GOLDEN_DIR) + "/adalsh_schedule.golden";
  std::ifstream in(path);
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  std::ofstream("adalsh_schedule.golden.actual") << actual;
  // Point at the first differing line so the failure is readable on its own.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  std::string last_header;
  for (int line = 1;; ++line) {
    const bool have_want = static_cast<bool>(std::getline(want, want_line));
    const bool have_got = static_cast<bool>(std::getline(got, got_line));
    if (!have_want && !have_got) break;
    if (have_got && got_line.rfind("== ", 0) == 0) last_header = got_line;
    if (!have_want || !have_got || want_line != got_line) {
      FAIL() << path << " line " << line << " (in " << last_header
             << "):\n  golden: " << (have_want ? want_line : "<eof>")
             << "\n  actual: " << (have_got ? got_line : "<eof>")
             << "\nfull transcript: adalsh_schedule.golden.actual";
    }
  }
}

}  // namespace
}  // namespace adalsh
