#include "obs/trace_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/adaptive_lsh.h"
#include "core/cost_model.h"
#include "engine/resident_engine.h"
#include "engine_harness.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace adalsh {
namespace {

// Minimal structural JSON validator: walks the document, checking balanced
// braces/brackets and string quoting outside of strings. Good enough to
// catch comma/nesting bugs in the exporter without a JSON library.
bool IsStructurallyValidJson(const std::string& doc) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : doc) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

TEST(TraceRecorderTest, SpanRecordsWallAndArgs) {
  TraceRecorder recorder;
  {
    TraceRecorder::Span span(&recorder, "round", "round");
    span.AddArg("cluster_size", 42.0);
  }
  ASSERT_EQ(recorder.num_spans(), 1u);
  TraceRecorder::SpanRecord span = recorder.Spans()[0];
  EXPECT_EQ(span.name, "round");
  EXPECT_EQ(span.category, "round");
  EXPECT_GE(span.start_seconds, 0.0);
  EXPECT_GE(span.duration_seconds, 0.0);
  ASSERT_EQ(span.args.size(), 1u);
  EXPECT_EQ(span.args[0].first, "cluster_size");
  EXPECT_DOUBLE_EQ(span.args[0].second, 42.0);
}

TEST(TraceRecorderTest, NullRecorderIsNoOp) {
  TraceRecorder::Span span(nullptr, "round", "round");
  span.AddArg("ignored", 1.0);
  // Nothing to assert beyond "does not crash"; the null recorder contract is
  // what lets call sites skip branching.
}

TEST(TraceRecorderTest, ExportIsWellFormedJson) {
  TraceRecorder recorder;
  {
    TraceRecorder::Span outer(&recorder, "round", "round");
    TraceRecorder::Span inner(&recorder, "hash_pass", "hash");
    inner.AddArg("hashes", 128.0);
    // Names with JSON-hostile characters must be escaped by the exporter.
    TraceRecorder::Span hostile(&recorder, "we\"ird\\name", "cat");
  }
  std::string doc = recorder.ToChromeTraceJson();
  EXPECT_TRUE(IsStructurallyValidJson(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("thread_name"), std::string::npos);
  EXPECT_NE(doc.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceRecorderTest, NestedSpansAreMonotonicallyContained) {
  // RAII spans on one thread close inner-before-outer, so in export order
  // (sorted by start) each later span on the same lane either nests inside
  // or starts after the earlier one — never partially overlaps.
  TraceRecorder recorder;
  {
    TraceRecorder::Span round(&recorder, "round", "round");
    { TraceRecorder::Span hash(&recorder, "hash_pass", "hash"); }
    { TraceRecorder::Span sweep(&recorder, "pairwise_sweep", "pairwise"); }
  }
  std::vector<TraceRecorder::SpanRecord> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 3u);
  const auto& round = spans[2];  // destroyed last, recorded last
  EXPECT_EQ(round.name, "round");
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_GE(spans[i].start_seconds, round.start_seconds);
    EXPECT_LE(spans[i].start_seconds + spans[i].duration_seconds,
              round.start_seconds + round.duration_seconds + 1e-9);
  }
  // The two inner spans are disjoint and in order.
  EXPECT_LE(spans[0].start_seconds + spans[0].duration_seconds,
            spans[1].start_seconds + 1e-9);
}

TEST(TraceRecorderTest, ParallelForChunksGetWorkerLanes) {
  TraceRecorder recorder;
  {
    ScopedParallelForTrace scope(&recorder);
    ThreadPool pool(2);
    ParallelFor(&pool, 1000, [](size_t begin, size_t end) {
      volatile double sink = 0.0;
      for (size_t i = begin; i < end; ++i) sink = sink + 1e-9;
    });
  }
  std::vector<TraceRecorder::SpanRecord> spans = recorder.Spans();
  ASSERT_FALSE(spans.empty());
  size_t covered = 0;
  for (const auto& span : spans) {
    EXPECT_EQ(span.name, "parallel_chunk");
    ASSERT_EQ(span.args.size(), 2u);
    covered += static_cast<size_t>(span.args[1].second - span.args[0].second);
  }
  EXPECT_EQ(covered, 1000u);  // chunks partition the range exactly
  // The exported JSON carries a thread_name metadata record per lane.
  std::string doc = recorder.ToChromeTraceJson();
  EXPECT_TRUE(IsStructurallyValidJson(doc)) << doc;
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
}

TEST(TraceRecorderTest, ConcurrentAddSpanIsSafe) {
  TraceRecorder recorder;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < 250; ++i) {
        TraceRecorder::Span span(&recorder, "span", "test");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.num_spans(), 1000u);
}

// The benchmark's layer attribution (perfbench) assumes that on a traced
// AdaptiveLsh::Run every top-level span of the driving lane is a `round`,
// while the resident engine still frames each mutation's refinement in one
// `engine_refine` span — the shared refinement loop opens neither.
TEST(TraceRecorderTest, RefinementSpansKeepTheirShape) {
  GeneratedDataset generated =
      test::MakePlantedDataset({25, 15, 8, 3, 1, 1}, 21);
  TraceRecorder recorder;
  AdaptiveLshConfig config;
  config.sequence.max_budget = 640;
  config.calibration_samples = 10;
  config.threads = 2;
  config.seed = 3;
  config.instrumentation.trace = &recorder;
  AdaptiveLsh adalsh(generated.dataset, generated.rule, config);
  adalsh.set_cost_model(CostModel(1e-7, 1e-7));  // hash and P rounds
  const size_t first = recorder.num_spans();
  FilterOutput output = adalsh.Run(3);
  std::vector<TraceRecorder::SpanRecord> spans = recorder.Spans();
  spans.erase(spans.begin(), spans.begin() + static_cast<ptrdiff_t>(first));
  int lane = -1;
  for (const auto& span : spans) {
    if (span.name == "round") {
      lane = span.lane;
      break;
    }
  }
  ASSERT_NE(lane, -1);
  // RAII spans are recorded as they close, so a span's container on its
  // lane is always recorded after it.
  auto contains = [](const TraceRecorder::SpanRecord& outer,
                     const TraceRecorder::SpanRecord& inner) {
    return outer.start_seconds <= inner.start_seconds + 1e-9 &&
           outer.start_seconds + outer.duration_seconds + 1e-9 >=
               inner.start_seconds + inner.duration_seconds;
  };
  size_t rounds = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].lane != lane) continue;
    bool top_level = true;
    for (size_t j = i + 1; j < spans.size() && top_level; ++j) {
      if (spans[j].lane == lane && contains(spans[j], spans[i])) {
        top_level = false;
      }
    }
    if (!top_level) continue;
    EXPECT_EQ(spans[i].name, "round") << "top-level span " << i;
    ++rounds;
  }
  EXPECT_EQ(rounds, output.stats.rounds);

  TraceRecorder engine_recorder;
  ResidentEngine::Options options = test::EngineOptions(1, 3);
  options.config.instrumentation.trace = &engine_recorder;
  ResidentEngine engine(generated.rule, options);
  std::vector<Record> records;
  for (RecordId r : generated.dataset.AllRecordIds()) {
    records.push_back(generated.dataset.record(r));
  }
  ASSERT_TRUE(engine.Ingest(std::move(records)).ok());
  size_t engine_refines = 0;
  for (const auto& span : engine_recorder.Spans()) {
    engine_refines += span.name == "engine_refine" ? 1 : 0;
  }
  EXPECT_EQ(engine_refines, 1u);
}

}  // namespace
}  // namespace adalsh
