// One benchmark invocation over the public library API: a batch filter run
// (generated dataset -> certified top-k through AdaptiveLsh) or a durable
// serve session (restart -> ingest/update/remove -> flush -> query through
// DurableEngine with the WAL on), untraced for the end-to-end metrics or
// traced for the per-layer ones. perfbench/run.py builds this binary, runs
// one batch and one serve invocation per workload with the pinned parameters
// of perfbench/workloads.json, checks the exact counts they print and derives
// the workload's metrics; perfbench/README.md documents every metric.
//
// Output: one JSON object on stdout with
//   metrics  {name: {value, unit}}  the figures of this invocation
//   counts   {name: number}         values that must repeat exactly
//   checks   {name: bool}           in-process correctness checks
//   attempted / failed              public calls made and calls not ok
//   meta     {...}                  SIMD picks and sample counts
//
// Work is pinned: datasets, method seeds, the serve write script's seed,
// threads, shards and the cost model come from flags, so only time varies
// between runs. Every dataset is generated before any clock starts, and the
// first in-process Run of a batch phase is discarded as warm-up.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "core/adaptive_lsh.h"
#include "core/cost_model.h"
#include "core/hash_engine.h"
#include "core/transitive_hash_function.h"
#include "engine/durability.h"
#include "engine/resident_engine.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "obs/histogram.h"
#include "obs/json_writer.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/simd_kernels.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Small measurement helpers.

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
// empty one.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// Histogram sum of one registry latency series (0 when never recorded).
double HistogramSum(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum();
}

uint64_t Counter(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Result document.

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Count(const std::string& name, double value) { counts_[name] = value; }
  void Check(const std::string& name, bool ok) {
    auto [it, inserted] = checks_.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
  void Meta(const std::string& name, double value) { meta_[name] = value; }
  void Call(bool ok) { Calls(1, ok ? 0 : 1); }
  void Calls(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  std::string ToJson() const {
    JsonWriter json;
    json.BeginObject().Key("metrics").BeginObject();
    for (const MetricValue& m : metrics_) {
      json.Key(m.name).BeginObject().Key("value").Double(m.value);
      json.Key("unit").String(m.unit).EndObject();
    }
    json.EndObject().Key("counts").BeginObject();
    for (const auto& [name, value] : counts_) json.Key(name).Double(value);
    json.EndObject().Key("checks").BeginObject();
    for (const auto& [name, ok] : checks_) json.Key(name).Bool(ok);
    json.EndObject().Key("attempted").Uint(attempted_);
    json.Key("failed").Uint(failed_).Key("meta").BeginObject();
    json.Key("simd_dot").String(SimdLevelName(simd::ActiveDotLevel()));
    json.Key("simd_minhash").String(SimdLevelName(simd::ActiveMinHashLevel()));
    for (const auto& [name, value] : meta_) json.Key(name).Double(value);
    json.EndObject().EndObject();
    return json.TakeString();
  }

 private:
  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<MetricValue> metrics_;
  std::map<std::string, double> counts_;
  std::map<std::string, bool> checks_;
  std::map<std::string, double> meta_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Configuration (all pins arrive as flags from perfbench/run.py).

struct Config {
  std::string mode;     // batch | serve | calibrate
  std::string dataset;  // spotsigs | cora
  size_t scale = 1;
  uint64_t data_seed = 1;
  uint64_t method_seed = 1;
  int threads = 1;
  int shards = 0;
  int k = 10;
  double cost_per_hash = 0.0;
  double cost_per_pair = 0.0;
  uint64_t script_seed = 1;  // the serve write script
  uint64_t seed = 1;  // the run's --seed: drives the serve reader's probes
  double seconds = 1.0;
  bool trace = false;
  std::string scratch;
  // Batch.
  int setup_repeats = 9;
  int min_reps = 5;
  int probe_repeats = 5;
  // Serve.
  size_t base_records = 0;
  size_t tail_mutations = 0;
  size_t ingest_records = 0;
  size_t flush_every = 1;
  size_t checkpoint_every = 0;
  int min_sessions = 3;
};

GeneratedDataset MakeDataset(const Config& cfg) {
  if (cfg.dataset == "spotsigs") {
    return MakeSpotSigsWorkload(cfg.scale, cfg.data_seed);
  }
  ADALSH_CHECK(cfg.dataset == "cora") << "unknown --dataset " << cfg.dataset;
  return MakeCoraWorkload(cfg.scale, cfg.data_seed);
}

AdaptiveLshConfig MethodConfig(const Config& cfg, Instrumentation instr) {
  AdaptiveLshConfig config;
  config.seed = cfg.method_seed;
  config.threads = cfg.threads;
  config.instrumentation = instr;
  return config;
}

CostModel PinnedModel(const Config& cfg) {
  return CostModel(cfg.cost_per_hash, cfg.cost_per_pair);
}

// ---------------------------------------------------------------------------
// Batch filter.

struct RunCounts {
  uint64_t hashes = 0;
  uint64_t similarities = 0;
  size_t rounds = 0;
  double f1 = 0.0;
  bool operator==(const RunCounts& o) const {
    return hashes == o.hashes && similarities == o.similarities &&
           rounds == o.rounds && f1 == o.f1;
  }
};

RunCounts CountsOf(const FilterOutput& out, const GroundTruth& truth, int k) {
  RunCounts c;
  c.hashes = out.stats.hashes_computed;
  c.similarities = out.stats.pairwise_similarities;
  c.rounds = out.stats.rounds;
  c.f1 = GoldAccuracy(out.clusters, truth, static_cast<size_t>(k)).f1;
  return c;
}

// Layer times of one traced Run, from the spans it recorded. Spans on the
// driving thread's lane nest strictly (RAII), so a span's parent is the
// innermost span that contains it.
struct LayerTimes {
  double hash_pass = 0.0;  // `hash_pass` spans
  double merge = 0.0;      // `merge` spans, part of hash_pass
  double pairwise = 0.0;   // `pairwise_sweep` spans (P)
  double select = 0.0;     // rest of the `round` spans: Largest-First etc.
  double top_level = 0.0;  // every top-level span of the driving lane
  double hash_pass_cpu = 0.0;  // all lanes' CPU inside hash passes
  // Only rounds are top-level and every hash pass and P sweep sits directly
  // in a round, so select + hash_pass + pairwise == top_level.
  bool nested_as_expected = true;
};

LayerTimes AttributeSpans(const std::vector<TraceRecorder::SpanRecord>& spans) {
  LayerTimes t;
  int main_lane = -1;
  for (const auto& s : spans) {
    if (s.name == "round") {
      main_lane = s.lane;
      break;
    }
  }
  std::vector<const TraceRecorder::SpanRecord*> main;
  std::vector<const TraceRecorder::SpanRecord*> workers;
  for (const auto& s : spans) {
    (s.lane == main_lane ? main : workers).push_back(&s);
  }
  std::sort(main.begin(), main.end(), [](const auto* a, const auto* b) {
    if (a->start_seconds != b->start_seconds) {
      return a->start_seconds < b->start_seconds;
    }
    return a->duration_seconds > b->duration_seconds;
  });
  auto end_of = [](const TraceRecorder::SpanRecord* s) {
    return s->start_seconds + s->duration_seconds;
  };
  std::vector<const TraceRecorder::SpanRecord*> stack;
  std::vector<std::pair<double, double>> hash_windows;
  for (const auto* s : main) {
    while (!stack.empty() && end_of(stack.back()) < end_of(s) - 1e-9) {
      stack.pop_back();
    }
    const auto* parent = stack.empty() ? nullptr : stack.back();
    const bool in_round = parent != nullptr && parent->name == "round";
    if (parent == nullptr) {
      t.top_level += s->duration_seconds;
      if (s->name != "round") t.nested_as_expected = false;
    }
    if (s->name == "round") {
      t.select += s->duration_seconds;
    } else if (s->name == "hash_pass" || s->name == "pairwise_sweep") {
      if (!in_round) t.nested_as_expected = false;
      t.select -= s->duration_seconds;
      if (s->name == "hash_pass") {
        t.hash_pass += s->duration_seconds;
        t.hash_pass_cpu += s->cpu_seconds;
        hash_windows.emplace_back(s->start_seconds, end_of(s));
      } else {
        t.pairwise += s->duration_seconds;
      }
    } else if (s->name == "merge") {
      t.merge += s->duration_seconds;
    }
    stack.push_back(s);
  }
  // Worker lanes: ParallelFor chunks that ran inside a hash pass add their
  // thread CPU to the pass (the driving lane's CPU is already in the span).
  std::sort(hash_windows.begin(), hash_windows.end());
  for (const auto* s : workers) {
    auto it = std::upper_bound(
        hash_windows.begin(), hash_windows.end(),
        std::make_pair(s->start_seconds, std::numeric_limits<double>::max()));
    if (it == hash_windows.begin()) continue;
    --it;
    if (s->start_seconds <= it->second) t.hash_pass_cpu += s->cpu_seconds;
  }
  return t;
}

void RunBatch(const Config& cfg, Report* report) {
  GeneratedDataset data = MakeDataset(cfg);  // before any clock starts
  const GroundTruth truth = data.dataset.BuildGroundTruth();
  report->Meta("records", static_cast<double>(data.dataset.num_records()));
  Timer invocation;

  // core.setup_s: the AdaptiveLsh constructor (sequence design + the
  // calibration it always runs), median of several constructions.
  std::vector<double> setup;
  std::unique_ptr<AdaptiveLsh> lsh;
  for (int i = 0; i < cfg.setup_repeats; ++i) {
    lsh.reset();
    Timer t;
    lsh = std::make_unique<AdaptiveLsh>(data.dataset, data.rule,
                                        MethodConfig(cfg, {}));
    setup.push_back(t.ElapsedSeconds());
  }
  lsh->set_cost_model(PinnedModel(cfg));

  const FilterOutput warm = lsh->Run(cfg.k);  // warm-up, not timed
  // Peak memory of set-up plus one Run, what a one-shot filter holds. Later
  // repetitions only add allocator fragmentation that varies run to run.
  const double peak_rss = PeakRssMib();
  const RunCounts reference = CountsOf(warm, truth, cfg.k);

  std::optional<AdaptiveLsh> traced_lsh;
  std::optional<TraceRecorder> recorder;
  MetricsRegistry registry;
  std::vector<double> calibration;
  if (cfg.trace) {
    // Instrumented constructions, each with its own recorder; the
    // `calibration` span of each is the constructor's calibration cost.
    for (int i = 0; i < cfg.probe_repeats; ++i) {
      traced_lsh.reset();
      recorder.emplace();
      traced_lsh.emplace(data.dataset, data.rule,
                         MethodConfig(cfg, {&registry, &*recorder, nullptr}));
      for (const auto& s : recorder->Spans()) {
        if (s.name == "calibration") calibration.push_back(s.duration_seconds);
      }
    }
    traced_lsh->set_cost_model(PinnedModel(cfg));
    (void)traced_lsh->Run(cfg.k);  // warm-up of the traced instance
  }

  std::vector<double> filter;
  std::vector<double> cpu;
  std::vector<double> traced_filter;
  std::vector<LayerTimes> layers;
  const double loop_seconds = cfg.trace ? cfg.seconds * 0.7 : cfg.seconds;
  Timer loop;
  while (filter.size() < static_cast<size_t>(cfg.min_reps) ||
         loop.ElapsedSeconds() < loop_seconds) {
    const double cpu0 = ProcessCpuSeconds();
    Timer t;
    const FilterOutput out = lsh->Run(cfg.k);
    filter.push_back(t.ElapsedSeconds());
    cpu.push_back(ProcessCpuSeconds() - cpu0);
    const bool completed =
        out.stats.termination_reason == TerminationReason::kCompleted;
    report->Call(completed);
    report->Check("counts_repeat_in_process",
                  CountsOf(out, truth, cfg.k) == reference);

    if (cfg.trace) {
      const size_t first = recorder->num_spans();
      double wall = 0.0;
      {
        ScopedParallelForTrace chunks(&*recorder);
        Timer tt;
        const FilterOutput traced = traced_lsh->Run(cfg.k);
        wall = tt.ElapsedSeconds();
        report->Call(traced.stats.termination_reason ==
                     TerminationReason::kCompleted);
        report->Check("traced_counts_match",
                      CountsOf(traced, truth, cfg.k) == reference);
      }
      std::vector<TraceRecorder::SpanRecord> spans = recorder->Spans();
      spans.erase(spans.begin(), spans.begin() + static_cast<ptrdiff_t>(first));
      LayerTimes lt = AttributeSpans(spans);
      traced_filter.push_back(wall);
      // select + hash_pass + pairwise + unattributed is the traced filter
      // time only when the spans nest as the attribution assumes.
      report->Check("trace_attribution_adds_up",
                    lt.nested_as_expected && lt.top_level <= wall + 1e-6);
      layers.push_back(lt);
    }
  }

  report->Metric("filter_s", Median(filter), "s");
  report->Metric("filter_cpu_s", Median(cpu), "s");
  report->Metric("core.setup_s", Median(setup), "s");
  report->Metric("filter_f1_gold", reference.f1, "ratio");
  report->Count("lsh.hashes", static_cast<double>(reference.hashes));
  report->Count("distance.similarities",
                static_cast<double>(reference.similarities));
  report->Count("core.rounds", static_cast<double>(reference.rounds));
  report->Count("f1_gold", reference.f1);
  report->Meta("filter_samples", static_cast<double>(filter.size()));
  report->Meta("setup_samples", static_cast<double>(setup.size()));

  if (cfg.trace) {
    // Layer times come from one representative traced Run, the one with the
    // median wall time, so that they add up: select + hash_pass + pairwise +
    // unattributed == traced filter time.
    std::vector<size_t> order(layers.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return traced_filter[a] < traced_filter[b];
    });
    const size_t rep = order[(order.size() - 1) / 2];
    const LayerTimes& lt = layers[rep];
    const double traced_wall = traced_filter[rep];

    // Layer probes on the already-designed sequence: H_1's hash kernel alone
    // on a fresh engine, then H_1's key fold plus merge alone with every
    // hash cached.
    std::vector<double> ensure;
    std::vector<double> apply;
    {
      const std::vector<RecordId> all = data.dataset.AllRecordIds();
      const SchemePlan& plan0 = lsh->sequence().plan(0);
      ScopedThreadPool pool(cfg.threads);
      for (int i = 0; i < cfg.probe_repeats; ++i) {
        HashEngine engine(data.dataset, lsh->sequence().structure(),
                          cfg.method_seed);
        Timer te;
        engine.EnsureHashesParallel(all, plan0, pool.get());
        ensure.push_back(te.ElapsedSeconds());
        ParentPointerForest forest;
        TransitiveHasher hasher(&engine, &forest, all.size(), pool.get());
        Timer ta;
        const std::vector<NodeId> roots = hasher.Apply(all, plan0, 0);
        apply.push_back(ta.ElapsedSeconds());
        report->Check("h1_probe_produced_clusters", !roots.empty());
      }
    }

    const double untraced = Median(filter);
    const double modeled = warm.stats.modeled_cost;
    report->Metric("core.traced_filter_s", traced_wall, "s");
    report->Metric("core.hash_pass_s", lt.hash_pass, "s");
    report->Metric("core.merge_s", lt.merge, "s");
    report->Metric("core.merge_share",
                   lt.hash_pass > 0 ? lt.merge / lt.hash_pass : 0.0, "ratio");
    report->Metric("core.pairwise_s", lt.pairwise, "s");
    report->Metric("core.select_s", lt.select, "s");
    report->Metric("core.unattributed_s", traced_wall - lt.top_level, "s");
    report->Metric("core.rounds", static_cast<double>(reference.rounds),
                   "count");
    report->Metric("core.calibration_s", Median(calibration), "s");
    report->Metric("core.cost_drift", modeled > 0 ? untraced / modeled : 0.0,
                   "ratio");
    report->Metric("core.h1_apply_s", Median(apply), "s");
    report->Metric("lsh.hashes", static_cast<double>(reference.hashes),
                   "count");
    report->Metric("lsh.h1_ensure_s", Median(ensure), "s");
    report->Metric("lsh.hashes_per_cpu_s",
                   static_cast<double>(reference.hashes) / Median(cpu), "1/s");
    report->Metric("distance.similarities",
                   static_cast<double>(reference.similarities), "count");
    report->Metric("distance.similarities_per_s",
                   lt.pairwise > 0
                       ? static_cast<double>(reference.similarities) /
                             lt.pairwise
                       : 0.0,
                   "1/s");
    report->Metric("util.hash_pass_cpu_over_wall",
                   lt.hash_pass > 0 ? lt.hash_pass_cpu / lt.hash_pass : 0.0,
                   "ratio");
    report->Metric("obs.trace_overhead", Median(traced_filter) / untraced,
                   "ratio");
    report->Meta("traced_samples", static_cast<double>(layers.size()));
  }
  report->Metric("filter_peak_rss_mb", peak_rss, "MiB");
  report->Meta("wall_s", invocation.ElapsedSeconds());
}

// ---------------------------------------------------------------------------
// Durable serve session.

// The live set the writer tracks: external id -> dataset row whose contents
// the id is currently bound to.
using LiveMap = std::map<ExternalId, size_t>;

bool SameSnapshot(const EngineSnapshot& a, const EngineSnapshot& b) {
  return a.clusters == b.clusters && a.verification == b.verification &&
         a.live_records == b.live_records;
}

// FNV-1a over a snapshot's canonical content (live count, clusters and their
// verification levels), cut to 52 bits so that it is exact as a JSON number.
uint64_t SnapshotDigest(const EngineSnapshot& snap) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h = (h ^ (v & 0xff)) * 1099511628211ull;
    }
  };
  mix(snap.live_records);
  for (size_t c = 0; c < snap.clusters.size(); ++c) {
    mix(snap.clusters[c].size());
    mix(static_cast<uint64_t>(snap.verification[c]));
    for (ExternalId id : snap.clusters[c]) mix(id);
  }
  return h & ((uint64_t{1} << 52) - 1);
}

// Gold F1 of a snapshot's clusters against the ground truth of the live set.
double LiveF1(const EngineSnapshot& snap, const LiveMap& live,
              const Dataset& dataset, int k) {
  std::map<ExternalId, RecordId> dense;
  std::map<EntityId, EntityId> entity_ids;
  std::vector<EntityId> entity_of;
  for (const auto& [id, row] : live) {
    dense[id] = static_cast<RecordId>(entity_of.size());
    const EntityId e = dataset.entity_assignment()[row];
    auto [it, inserted] =
        entity_ids.emplace(e, static_cast<EntityId>(entity_ids.size()));
    entity_of.push_back(it->second);
  }
  Clustering clustering;
  for (const std::vector<ExternalId>& cluster : snap.clusters) {
    std::vector<RecordId> members;
    for (ExternalId id : cluster) members.push_back(dense.at(id));
    clustering.clusters.push_back(std::move(members));
  }
  return GoldAccuracy(clustering, GroundTruth(std::move(entity_of)),
                      static_cast<size_t>(k))
      .f1;
}

DurableEngine::Options DurableOptions(const Config& cfg, const std::string& dir,
                                      Instrumentation instr) {
  DurableEngine::Options options;
  options.engine.config = MethodConfig(cfg, instr);
  options.engine.top_k = cfg.k;
  options.engine.cost_model = PinnedModel(cfg);
  options.shards = cfg.shards;
  options.data_dir = dir;
  options.sync = WalSyncPolicy::kBatch;
  options.checkpoint_every_n = cfg.checkpoint_every;
  return options;
}

// The serve write script, after tools/engine_load_gen.cc's writer: ingest a
// batch of 1..kMaxIngestBatch fresh rows, taken in a shuffled order, then
// remove one live id with probability 1/kRemoveOneIn and update one with the
// contents of a random dataset row with probability 1/kUpdateOneIn. No
// traffic record exists to replay, so the mix is synthetic; it copies the
// load generator's so that both exercise the engine the same way.
constexpr size_t kMaxIngestBatch = 32;  // engine_load_gen's --batch default
constexpr uint64_t kRemoveOneIn = 4;
constexpr uint64_t kUpdateOneIn = 4;
// The reader's query period: 500 queries/s. A query takes microseconds, so
// the reader keeps well under 1% of a core off the writer and still yields
// thousands of samples per run.
constexpr std::chrono::microseconds kReaderPeriod(2000);

// The script's state. Sessions copy it from the prepared directory's end
// state, so every session replays the same calls.
struct WriteScript {
  explicit WriteScript(uint64_t seed) : rng(seed) {}
  std::vector<size_t> order;  // every dataset row, in ingest order
  size_t cursor = 0;          // rows of `order` ingested so far
  LiveMap live;
  std::vector<ExternalId> live_ids;  // the keys of `live`, O(1) picks
  Rng rng;
};

// One step of the script: an ingest of at most `max_rows` fresh rows, then
// maybe a remove and maybe an update. `call(op, fn)` makes the call `fn`
// and returns its result. Returns the rows ingested.
template <typename Call>
size_t ScriptStep(DurableEngine& engine, const Dataset& dataset,
                  size_t max_rows, WriteScript* s, Call&& call) {
  ADALSH_CHECK(s->cursor < s->order.size()) << "serve script ran out of rows";
  const size_t take =
      1 + s->rng.NextBelow(std::min(
              {max_rows, s->order.size() - s->cursor, kMaxIngestBatch}));
  const std::vector<size_t> rows(
      s->order.begin() + static_cast<ptrdiff_t>(s->cursor),
      s->order.begin() + static_cast<ptrdiff_t>(s->cursor + take));
  s->cursor += take;
  std::vector<Record> batch;
  for (size_t row : rows) batch.push_back(dataset.record(row));
  auto ingested =
      call("ingest", [&] { return engine.Ingest(std::move(batch)); });
  if (ingested.ok()) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const ExternalId id = ingested.value().assigned_ids[i];
      s->live[id] = rows[i];
      s->live_ids.push_back(id);
    }
  }
  if (s->live_ids.size() > 2 && s->rng.NextBelow(kRemoveOneIn) == 0) {
    const size_t pick = s->rng.NextBelow(s->live_ids.size());
    const std::vector<ExternalId> ids = {s->live_ids[pick]};
    if (call("remove", [&] { return engine.Remove(ids); }).ok()) {
      s->live.erase(ids[0]);
      s->live_ids[pick] = s->live_ids.back();
      s->live_ids.pop_back();
    }
  }
  if (!s->live_ids.empty() && s->rng.NextBelow(kUpdateOneIn) == 0) {
    const ExternalId id = s->live_ids[s->rng.NextBelow(s->live_ids.size())];
    const size_t row = s->rng.NextBelow(dataset.num_records());
    if (call("update", [&] {
          return engine.Update(id, dataset.record(row));
        }).ok()) {
      s->live[id] = row;
    }
  }
  return take;
}

// Builds the prepared data directory every session restarts from: the first
// `base_records` rows of the script's order ingested and checkpointed, then a
// WAL tail of script steps, at least `tail_mutations` calls. Returns the
// script's state at the end of the tail.
WriteScript PrepareDataDir(const Config& cfg, const GeneratedDataset& data,
                           const std::string& dir) {
  DurableEngine::Options options = DurableOptions(cfg, dir, {});
  options.checkpoint_every_n = 0;
  auto opened = DurableEngine::Open(data.rule, options);
  ADALSH_CHECK(opened.ok()) << opened.status().ToString();
  DurableEngine& engine = *opened.value();

  WriteScript script(DeriveSeed(cfg.script_seed, 0x10ad));
  script.order.resize(data.dataset.num_records());
  for (size_t i = 0; i < script.order.size(); ++i) script.order[i] = i;
  Rng(DeriveSeed(cfg.script_seed, 0x0bde)).Shuffle(&script.order);
  ADALSH_CHECK(cfg.base_records < script.order.size());

  std::vector<Record> base;
  for (; script.cursor < cfg.base_records; ++script.cursor) {
    base.push_back(data.dataset.record(script.order[script.cursor]));
  }
  auto ingested = engine.Ingest(std::move(base));
  ADALSH_CHECK(ingested.ok()) << ingested.status().ToString();
  for (size_t i = 0; i < cfg.base_records; ++i) {
    const ExternalId id = ingested.value().assigned_ids[i];
    script.live[id] = script.order[i];
    script.live_ids.push_back(id);
  }
  ADALSH_CHECK(engine.Checkpoint().ok());

  size_t calls = 0;
  auto call = [&calls](const char*, auto&& fn) {
    auto result = fn();
    ADALSH_CHECK(result.ok()) << result.status().ToString();
    ++calls;
    return result;
  };
  while (calls < cfg.tail_mutations) {
    ScriptStep(engine, data.dataset, kMaxIngestBatch, &script, call);
  }
  return script;
}

struct SessionResult {
  explicit SessionResult(WriteScript start) : script(std::move(start)) {}
  double setup = 0.0;
  double cpu = 0.0;
  double ingest_rate = 0.0;
  double f1 = 0.0;
  std::vector<double> mutation_ms;  // every ingest/update/remove call
  std::map<std::string, std::vector<double>> op_ms;
  std::vector<double> flush_ms;
  std::vector<double> freshness_ms;
  std::vector<double> query_us;
  uint64_t total_hashes = 0;
  uint64_t frames_replayed = 0;
  std::shared_ptr<const EngineSnapshot> final_snapshot;
  WriteScript script;
  // Traced sessions only: per-session layer totals, keyed by metric name.
  std::map<std::string, double> layer;
};

// One reader at a fixed rate: TopK + Cluster(a seeded member) against the
// published snapshot, sleeping until each next due time (a spinning reader
// would steal the writer's core).
class Reader {
 public:
  Reader(const DurableEngine& engine, int k, uint64_t seed)
      : engine_(engine), k_(k), rng_(seed),
        thread_([this] { Loop(); }) {}
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  // Joins the thread; safe to call twice.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& service_us() const { return service_us_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Loop() {
    auto due = std::chrono::steady_clock::now();
    while (!stop_.load()) {
      due += kReaderPeriod;
      const auto now = std::chrono::steady_clock::now();
      if (due < now) due = now;  // fell behind: skip, never burst
      std::this_thread::sleep_until(due);
      if (stop_.load()) break;
      Timer t;
      const uint64_t generation = engine_.Snapshot()->generation;
      auto top = engine_.TopK(k_);
      bool ok = top.ok();
      if (ok && !top.value().empty()) {
        const auto& cluster = top.value()[rng_.NextBelow(top.value().size())];
        const ExternalId probe = cluster[rng_.NextBelow(cluster.size())];
        auto members = engine_.Cluster(probe);
        // A newer snapshot may legitimately have dropped the probe.
        ok = members.ok() || (members.status().code() == StatusCode::kNotFound &&
                              engine_.Snapshot()->generation != generation);
      }
      service_us_.push_back(t.ElapsedSeconds() * 1e6);
      ++attempted_;
      if (!ok) ++failed_;
    }
  }

  const DurableEngine& engine_;
  const int k_;
  Rng rng_;
  std::atomic<bool> stop_{false};
  std::vector<double> service_us_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

SessionResult RunSession(const Config& cfg, const GeneratedDataset& data,
                         const WriteScript& prepared, const std::string& dir,
                         Report* report) {
  SessionResult r(prepared);  // the script continues where the tail ended
  MetricsRegistry registry;
  const Instrumentation instr =
      cfg.trace ? Instrumentation{&registry, nullptr, nullptr}
                : Instrumentation{};

  const double cpu0 = ProcessCpuSeconds();
  Timer open_timer;
  auto opened = DurableEngine::Open(data.rule, DurableOptions(cfg, dir, instr));
  r.setup = open_timer.ElapsedSeconds();
  report->Call(opened.ok());
  ADALSH_CHECK(opened.ok()) << opened.status().ToString();
  DurableEngine& engine = *opened.value();
  const uint64_t open_generation = engine.Snapshot()->generation;
  r.frames_replayed = engine.durability_stats().frames_replayed;

  // --seed drives only the reader's probe choice; the write script is pinned.
  Reader reader(engine, cfg.k, DeriveSeed(cfg.seed, 0x7ead));

  // Mutations whose submission no published snapshot contains yet.
  std::vector<std::chrono::steady_clock::time_point> pending;
  uint64_t generation = open_generation;
  double lock_wait = 0.0;
  auto after_call = [&] {
    const uint64_t now_generation = engine.Snapshot()->generation;
    if (now_generation == generation) return;
    generation = now_generation;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& t : pending) {
      r.freshness_ms.push_back(
          std::chrono::duration<double, std::milli>(now - t).count());
    }
    pending.clear();
  };
  size_t since_flush = 0;
  auto flush = [&] {
    Timer t;
    StatusOr<EngineMutationResult> result = engine.Flush();
    r.flush_ms.push_back(t.ElapsedSeconds() * 1e3);
    report->Call(result.ok());
    if (result.ok()) lock_wait += result.value().lock_wait_seconds;
    after_call();
    since_flush = 0;
  };
  auto mutate = [&](const char* op, auto&& call) {
    pending.push_back(std::chrono::steady_clock::now());
    Timer t;
    StatusOr<EngineMutationResult> result = call();
    const double ms = t.ElapsedSeconds() * 1e3;
    report->Call(result.ok());
    r.mutation_ms.push_back(ms);
    r.op_ms[op].push_back(ms);
    if (result.ok()) lock_wait += result.value().lock_wait_seconds;
    after_call();
    if (++since_flush >= cfg.flush_every) flush();
    return result;
  };

  // The write script, cadence flushes included.
  Timer ingest_timer;
  size_t ingested = 0;
  while (ingested < cfg.ingest_records) {
    ingested += ScriptStep(engine, data.dataset, cfg.ingest_records - ingested,
                           &r.script, mutate);
  }
  r.ingest_rate = static_cast<double>(ingested) / ingest_timer.ElapsedSeconds();
  flush();  // the sync barrier before the session's answer is read
  reader.Stop();
  r.cpu = ProcessCpuSeconds() - cpu0;
  r.query_us = reader.service_us();
  report->Calls(reader.attempted(), reader.failed());

  r.final_snapshot = engine.Snapshot();
  r.f1 = LiveF1(*r.final_snapshot, r.script.live, data.dataset, cfg.k);
  r.total_hashes = engine.counters().total_hashes;
  if (cfg.trace) {
    const MetricsSnapshot m = registry.Snapshot();
    const DurabilityStats d = engine.durability_stats();
    r.layer["engine.lock_wait_s"] = lock_wait;
    r.layer["engine.refine_s"] = HistogramSum(m, "engine_refine_seconds");
    r.layer["engine.merge_gather_s"] =
        HistogramSum(m, "shard_merge_gather_seconds");
    r.layer["engine.merge_graft_s"] =
        HistogramSum(m, "shard_merge_graft_seconds");
    r.layer["engine.merge_refine_s"] =
        HistogramSum(m, "shard_merge_refine_seconds");
    r.layer["clustering.grafted_leaves"] =
        static_cast<double>(Counter(m, "shard_merge_grafted_leaves"));
    // Publications a client can see: generation advances of the served
    // snapshot (shard-local snapshots of the sharded engine are not served).
    r.layer["engine.snapshots_published"] =
        static_cast<double>(r.final_snapshot->generation - open_generation);
    r.layer["io.wal_append_s"] = HistogramSum(m, "wal_append_seconds");
    r.layer["io.wal_fsync_s"] = HistogramSum(m, "wal_fsync_seconds");
    r.layer["io.wal_syncs"] = static_cast<double>(d.wal_syncs);
    r.layer["io.wal_bytes"] = static_cast<double>(d.wal_bytes_appended);
    r.layer["io.checkpoint_write_s"] =
        HistogramSum(m, "checkpoint_write_seconds");
    r.layer["io.replay_s"] = HistogramSum(m, "wal_replay_seconds");
    r.layer["io.frames_replayed"] = static_cast<double>(r.frames_replayed);
  }
  return r;
}

// Confluence: a fresh ResidentEngine given the final live set in one batch
// publishes a byte-identical snapshot.
bool MatchesFreshEngine(const Config& cfg, const GeneratedDataset& data,
                        const LiveMap& live, const EngineSnapshot& snap) {
  ResidentEngine::Options options;
  options.config = MethodConfig(cfg, {});
  options.top_k = cfg.k;
  options.cost_model = PinnedModel(cfg);
  ResidentEngine fresh(data.rule, options);
  std::vector<Record> records;
  std::vector<ExternalId> ids;
  for (const auto& [id, row] : live) {
    records.push_back(data.dataset.record(row));
    ids.push_back(id);
  }
  auto result = fresh.IngestWithIds(std::move(records), std::move(ids));
  return result.ok() && SameSnapshot(*fresh.Snapshot(), snap);
}

// Restart: reopening the session's directory and flushing reproduces the
// pre-restart state after its own flush.
bool MatchesAfterRestart(const Config& cfg, const GeneratedDataset& data,
                         const std::string& dir, const EngineSnapshot& snap) {
  auto reopened = DurableEngine::Open(data.rule, DurableOptions(cfg, dir, {}));
  if (!reopened.ok()) return false;
  auto flushed = reopened.value()->Flush();
  return flushed.ok() && SameSnapshot(*reopened.value()->Snapshot(), snap);
}

void RunServe(const Config& cfg, Report* report) {
  GeneratedDataset data = MakeDataset(cfg);  // before any clock starts
  const fs::path root(cfg.scratch);
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string base = (root / "prepared").string();
  const WriteScript prepared = PrepareDataDir(cfg, data, base);
  report->Meta("records", static_cast<double>(prepared.cursor +
                                              cfg.ingest_records));

  std::vector<SessionResult> sessions;
  double peak_rss = 0.0;
  Timer loop;
  while (sessions.size() < static_cast<size_t>(cfg.min_sessions) ||
         loop.ElapsedSeconds() < cfg.seconds) {
    const fs::path dir = root / ("session-" + std::to_string(sessions.size()));
    fs::copy(base, dir, fs::copy_options::recursive);  // fresh data dir
    SessionResult s = RunSession(cfg, data, prepared, dir.string(), report);
    if (sessions.empty()) {
      // Peak memory of preparing the data dir plus one session; the checks
      // below build a second engine and must not count.
      peak_rss = PeakRssMib();
      // Correctness checks run once per invocation, outside every timer.
      report->Check("confluence_fresh_engine",
                    MatchesFreshEngine(cfg, data, s.script.live,
                                       *s.final_snapshot));
      report->Check("restart_then_flush_matches",
                    MatchesAfterRestart(cfg, data, dir.string(),
                                        *s.final_snapshot));
    } else {
      // The script is pinned, so every session must end in the same state.
      report->Check("sessions_repeat",
                    SameSnapshot(*s.final_snapshot,
                                 *sessions.front().final_snapshot) &&
                        s.total_hashes == sessions.front().total_hashes &&
                        s.frames_replayed == sessions.front().frames_replayed);
    }
    fs::remove_all(dir);
    sessions.push_back(std::move(s));
  }
  fs::remove_all(root);

  auto per_session = [&](auto&& get) {
    std::vector<double> v;
    for (const SessionResult& s : sessions) v.push_back(get(s));
    return v;
  };
  auto pooled = [&](auto&& get) {
    std::vector<double> v;
    for (const SessionResult& s : sessions) {
      const std::vector<double>& part = get(s);
      v.insert(v.end(), part.begin(), part.end());
    }
    return v;
  };
  const std::vector<double> mutations =
      pooled([](const SessionResult& s) -> const std::vector<double>& {
        return s.mutation_ms;
      });

  report->Metric("serve_cpu_s", Median(per_session([](const SessionResult& s) {
                   return s.cpu;
                 })),
                 "s");
  report->Metric("engine.open_s", Median(per_session([](const SessionResult& s) {
                   return s.setup;
                 })),
                 "s");
  report->Metric("serve_f1_gold", sessions.front().f1, "ratio");
  report->Metric("ingest_records_per_s",
                 Median(per_session([](const SessionResult& s) {
                   return s.ingest_rate;
                 })),
                 "rec/s");
  report->Metric("mutation_p50_ms", Median(mutations), "ms");
  report->Metric(
      "freshness_p50_ms",
      Median(pooled([](const SessionResult& s) -> const std::vector<double>& {
        return s.freshness_ms;
      })),
      "ms");
  // The pinned script's outcome: exact expectations.
  const SessionResult& first = sessions.front();
  report->Count("io.frames_replayed",
                static_cast<double>(first.frames_replayed));
  report->Count("serve.total_hashes", static_cast<double>(first.total_hashes));
  report->Count("serve.live_records",
                static_cast<double>(first.final_snapshot->live_records));
  report->Count("serve.snapshot_digest",
                static_cast<double>(SnapshotDigest(*first.final_snapshot)));
  report->Count("f1_gold", first.f1);
  report->Meta("mutations_per_session",
               static_cast<double>(first.mutation_ms.size()));
  report->Meta("sessions", static_cast<double>(sessions.size()));
  report->Meta("mutation_samples", static_cast<double>(mutations.size()));

  if (cfg.trace) {
    for (const char* op : {"ingest", "update", "remove"}) {
      report->Metric(std::string("engine.") + op + "_p50_ms",
                     Median(pooled([op](const SessionResult& s)
                                       -> const std::vector<double>& {
                       return s.op_ms.at(op);
                     })),
                     "ms");
    }
    report->Metric("engine.mutation_p99_ms", Quantile(mutations, 0.99), "ms");
    report->Metric("engine.mutation_samples",
                   static_cast<double>(mutations.size()), "count");
    report->Metric(
        "engine.flush_p50_ms",
        Median(pooled([](const SessionResult& s) -> const std::vector<double>& {
          return s.flush_ms;
        })),
        "ms");
    report->Metric(
        "engine.query_p50_us",
        Median(pooled([](const SessionResult& s) -> const std::vector<double>& {
          return s.query_us;
        })),
        "us");
    auto session_median = [&](const char* name) {
      return Median(per_session([name](const SessionResult& s) {
        return s.layer.at(name);
      }));
    };
    static const std::pair<const char*, const char*> kSessionLayers[] = {
        {"engine.lock_wait_s", "s"},     {"engine.refine_s", "s"},
        {"clustering.grafted_leaves", "count"},
        {"engine.snapshots_published", "count"},
        {"io.wal_append_s", "s"},        {"io.wal_fsync_s", "s"},
        {"io.wal_syncs", "count"},       {"io.wal_bytes", "B"},
        {"io.checkpoint_write_s", "s"},  {"io.replay_s", "s"},
        {"io.frames_replayed", "count"},
    };
    for (const auto& [name, unit] : kSessionLayers) {
      report->Metric(name, session_median(name), unit);
    }
    // The merge phases run only at S > 0 (zero at S = 0), so they are
    // reported beside the metrics rather than as metrics of every workload.
    for (const char* name : {"engine.merge_gather_s", "engine.merge_graft_s",
                             "engine.merge_refine_s"}) {
      report->Meta(name, session_median(name));
    }
  }
  report->Metric("serve_peak_rss_mb", peak_rss, "MiB");
}

// ---------------------------------------------------------------------------
// Calibration: the median of 11 CostModel::Calibrate calls, the figure
// each phase's pinned cost model was set to.

void RunCalibrate(const Config& cfg) {
  GeneratedDataset data = MakeDataset(cfg);
  ScopedThreadPool pool(cfg.threads);
  std::vector<double> per_hash;
  std::vector<double> per_pair;
  for (int i = 0; i < 11; ++i) {
    const CostModel model = CostModel::Calibrate(
        data.dataset, data.rule, AdaptiveLshConfig().calibration_samples,
        cfg.method_seed, pool.get());
    per_hash.push_back(model.cost_per_hash());
    per_pair.push_back(model.cost_per_pair());
  }
  JsonWriter json;
  json.BeginObject().Key("cost_per_hash").Double(Median(per_hash));
  json.Key("cost_per_pair").Double(Median(per_pair));
  json.Key("records").Uint(data.dataset.num_records()).EndObject();
  std::cout << json.TakeString() << std::endl;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Config cfg;
  cfg.mode = flags.GetString("mode", "batch");
  cfg.dataset = flags.GetString("dataset", "cora");
  cfg.scale = static_cast<size_t>(flags.GetInt("scale", 1));
  cfg.data_seed = static_cast<uint64_t>(flags.GetInt("data-seed", 1));
  cfg.method_seed = static_cast<uint64_t>(flags.GetInt("method-seed", 1));
  cfg.threads = static_cast<int>(flags.GetInt("threads", 1));
  cfg.shards = static_cast<int>(flags.GetInt("shards", 0));
  cfg.k = static_cast<int>(flags.GetInt("k", 10));
  cfg.cost_per_hash = flags.GetDouble("cost-per-hash", 0.0);
  cfg.cost_per_pair = flags.GetDouble("cost-per-pair", 0.0);
  cfg.script_seed = static_cast<uint64_t>(flags.GetInt("script-seed", 1));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.seconds = flags.GetDouble("seconds", 1.0);
  cfg.trace = flags.GetBool("trace", false);
  cfg.scratch = flags.GetString("scratch", "");
  cfg.setup_repeats = static_cast<int>(flags.GetInt("setup-repeats", 9));
  cfg.min_reps = static_cast<int>(flags.GetInt("min-reps", 5));
  cfg.probe_repeats = static_cast<int>(flags.GetInt("probe-repeats", 5));
  cfg.base_records = static_cast<size_t>(flags.GetInt("base-records", 0));
  cfg.tail_mutations = static_cast<size_t>(flags.GetInt("tail-mutations", 0));
  cfg.ingest_records = static_cast<size_t>(flags.GetInt("ingest-records", 0));
  cfg.flush_every = static_cast<size_t>(flags.GetInt("flush-every", 1));
  cfg.checkpoint_every =
      static_cast<size_t>(flags.GetInt("checkpoint-every", 0));
  cfg.min_sessions = static_cast<int>(flags.GetInt("min-sessions", 3));
  flags.CheckNoUnusedFlags();

  if (cfg.mode == "calibrate") {
    RunCalibrate(cfg);
    return 0;
  }
  ADALSH_CHECK(cfg.cost_per_hash > 0 && cfg.cost_per_pair > 0)
      << "the cost model must be pinned (--cost-per-hash, --cost-per-pair)";
  Report report;
  if (cfg.mode == "batch") {
    RunBatch(cfg, &report);
  } else {
    ADALSH_CHECK(cfg.mode == "serve") << "unknown --mode " << cfg.mode;
    ADALSH_CHECK(!cfg.scratch.empty()) << "serve needs --scratch";
    RunServe(cfg, &report);
  }
  std::cout << report.ToJson() << std::endl;
  return 0;
}

}  // namespace
}  // namespace adalsh

int main(int argc, char** argv) { return adalsh::Main(argc, argv); }
