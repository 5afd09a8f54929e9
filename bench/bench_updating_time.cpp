// Figure 13(b) reproduction: online model-updating time.
//
// The paper: with 8/15-day training sets, processing >4000 monitoring
// points takes under 10 seconds (< 2.5 ms/sample); with a 1-day training
// set the model updates far more often (grid extensions + matrix growth)
// and the worst case stays under ~23 ms/sample — all well below the
// 6-minute sampling period.
//
// google-benchmark measures the per-sample Step() cost for models
// initialized from 1, 8 and 15 days of history.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/monitor.h"
#include "io/monitor_io.h"
#include "telemetry/generator.h"

namespace {

using namespace pmcorr;
using namespace pmcorr::bench;

struct Dataset {
  MeasurementFrame frame{0, kPaperSamplePeriod};
  MeasurementId x;
  MeasurementId y;
};

const Dataset& SharedDataset() {
  static const Dataset dataset = [] {
    ScenarioConfig config;
    config.machine_count = 10;
    config.trace_days = 28;
    config.localization_fault = false;
    const PaperScenario scenario = MakeGroupScenario('A', config);
    Dataset d;
    d.frame = GenerateTrace(scenario.spec);
    d.x = *d.frame.FindByName(scenario.focus_x);
    d.y = *d.frame.FindByName(scenario.focus_y);
    return d;
  }();
  return dataset;
}

// One adaptive online step (score + update) under `mode`, for a model
// trained on `state.range(0)` days of history. kFull also computes the
// transition probability (the row normalizer); kRankOnly, with no alarm
// bound armed, scores and updates the source row in one walk — the step
// the engine takes for every uncalibrated pair.
void AdaptiveStep(benchmark::State& state, ScoreMode mode) {
  const Dataset& d = SharedDataset();
  const auto train_days = static_cast<Duration>(state.range(0));
  const TimePoint start = PaperTraceStart();
  const MeasurementFrame train =
      d.frame.SliceByTime(start, start + train_days * kDay);
  const MeasurementFrame test = d.frame.SliceByTime(
      PaperTestStart(), PaperTestStart() + 13 * kDay);

  PairModel model = PairModel::Learn(train.Series(d.x).Values(),
                                     train.Series(d.y).Values(),
                                     DefaultModelConfig());
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.Step(test.Value(d.x, t), test.Value(d.y, t), mode));
    t = (t + 1) % test.SampleCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["grid_cells"] =
      static_cast<double>(model.Grid().CellCount());
}

void BM_AdaptiveStep(benchmark::State& state) {
  AdaptiveStep(state, ScoreMode::kFull);
}
BENCHMARK(BM_AdaptiveStep)->Arg(1)->Arg(8)->Arg(15)
    ->Unit(benchmark::kMicrosecond);

void BM_AdaptiveStepRankOnly(benchmark::State& state) {
  AdaptiveStep(state, ScoreMode::kRankOnly);
}
BENCHMARK(BM_AdaptiveStepRankOnly)->Arg(1)->Arg(8)->Arg(15)
    ->Unit(benchmark::kMicrosecond);

// The full Figure 13(b) quantity: seconds to process an entire test set
// of > 4000 points (13 days at 6-minute sampling = 3120; we also time the
// 4320-point variant from 18 days to match "more than 4,000"), stepping
// under `mode` as AdaptiveStep does.
void ProcessTestSet(benchmark::State& state, ScoreMode mode) {
  const Dataset& d = SharedDataset();
  const auto train_days = static_cast<Duration>(state.range(0));
  const TimePoint start = PaperTraceStart();
  const MeasurementFrame train =
      d.frame.SliceByTime(start, start + train_days * kDay);
  // 4320 samples (18 days), wrapping over the 13-day test window.
  const MeasurementFrame test = d.frame.SliceByTime(
      PaperTestStart(), PaperTestStart() + 13 * kDay);
  const std::size_t points = 4320;

  for (auto _ : state) {
    state.PauseTiming();
    PairModel model = PairModel::Learn(train.Series(d.x).Values(),
                                       train.Series(d.y).Values(),
                                       DefaultModelConfig());
    state.ResumeTiming();
    for (std::size_t i = 0; i < points; ++i) {
      const std::size_t t = i % test.SampleCount();
      benchmark::DoNotOptimize(
          model.Step(test.Value(d.x, t), test.Value(d.y, t), mode));
    }
  }
  // items_per_second's reciprocal is the per-sample updating time the
  // paper plots; the whole-set wall time is this benchmark's Time column.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * points));
}

void BM_ProcessTestSet(benchmark::State& state) {
  ProcessTestSet(state, ScoreMode::kFull);
}
BENCHMARK(BM_ProcessTestSet)->Arg(1)->Arg(8)->Arg(15)
    ->Unit(benchmark::kMillisecond);

void BM_ProcessTestSetRankOnly(benchmark::State& state) {
  ProcessTestSet(state, ScoreMode::kRankOnly);
}
BENCHMARK(BM_ProcessTestSetRankOnly)->Arg(1)->Arg(8)->Arg(15)
    ->Unit(benchmark::kMillisecond);

// --- Whole-system engine: one Step per row vs pair-major batched Run. ---
//
// The per-pair numbers above bound one model; a production monitor
// drives hundreds of pair models per sample. The serial path pays a
// thread-pool fork/join barrier per sample; batched Run pays one per
// ~thousand samples, so the gap below is the cost of those barriers.
//
// Both benchmarks use real (wall) time for iteration policy and the
// reported rate — most of the work happens on pool threads, so the
// default main-thread CPU clock would wildly overstate throughput — and
// process CPU time so the CPU column includes the workers.

struct SystemDataset {
  MeasurementFrame train{0, kPaperSamplePeriod};
  MeasurementFrame test{0, kPaperSamplePeriod};
  MeasurementFrame holdout{0, kPaperSamplePeriod};  // the day after test
  MeasurementGraph graph;
};

const SystemDataset& SharedSystemDataset() {
  static const SystemDataset dataset = [] {
    ScenarioConfig config;
    config.machine_count = 10;
    config.trace_days = 18;
    config.localization_fault = false;
    const PaperScenario scenario = MakeGroupScenario('A', config);
    const MeasurementFrame frame = GenerateTrace(scenario.spec);
    SystemDataset d;
    const TimePoint start = PaperTraceStart();
    d.train = frame.SliceByTime(start, start + 15 * kDay);
    d.test = frame.SliceByTime(start + 15 * kDay, start + 17 * kDay);
    d.holdout = frame.SliceByTime(start + 17 * kDay, start + 18 * kDay);
    d.graph = MeasurementGraph::FullMesh(d.train.MeasurementCount());
    return d;
  }();
  return dataset;
}

// The learned engine state, serialized once; every benchmark iteration
// restores from it so adaptation (grid extensions, matrix growth) during
// one iteration cannot change what the next iteration measures.
const std::string& SystemCheckpoint() {
  static const std::string checkpoint = [] {
    const SystemDataset& d = SharedSystemDataset();
    MonitorConfig config;
    config.model = DefaultModelConfig();
    config.model.partition.max_intervals = 12;
    const SystemMonitor monitor(d.train, d.graph, config);
    std::ostringstream out;
    SaveSystemMonitor(monitor, out);
    return out.str();
  }();
  return checkpoint;
}

std::unique_ptr<SystemMonitor> RestoreSystemMonitor(std::size_t threads) {
  std::istringstream in(SystemCheckpoint());
  return LoadSystemMonitor(in, threads);
}

// The engine core through the multi-row Step, the way a serve tenant
// feeds it: range(0) engine threads, range(1) rows per call (1 is the
// one-row Step). Each call pays one guard pre-pass, sweep, merge and
// assembly — and above one thread one fork/join — however many rows it
// carries, and its rows run pair-major.
void BM_MonitorStepLoop(benchmark::State& state) {
  const SystemDataset& d = SharedSystemDataset();
  const std::size_t samples = d.test.SampleCount();
  const auto width = static_cast<std::size_t>(state.range(1));
  std::vector<TimePoint> times(samples);
  for (std::size_t t = 0; t < samples; ++t) times[t] = d.test.TimeAt(t);
  std::vector<std::span<const double>> cols(d.test.MeasurementCount());
  std::vector<SystemSnapshot> slots(width);
  for (auto _ : state) {
    state.PauseTiming();
    const auto monitor =
        RestoreSystemMonitor(static_cast<std::size_t>(state.range(0)));
    state.ResumeTiming();
    for (std::size_t t0 = 0; t0 < samples; t0 += width) {
      const std::size_t rows = std::min(width, samples - t0);
      for (std::size_t a = 0; a < cols.size(); ++a) {
        cols[a] = d.test.Series(MeasurementId(static_cast<std::int32_t>(a)))
                      .Values()
                      .subspan(t0, rows);
      }
      monitor->Step(cols, std::span<const TimePoint>(times).subspan(t0, rows),
                    std::span<SystemSnapshot>(slots.data(), rows));
      benchmark::DoNotOptimize(slots.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * samples * d.graph.PairCount()));
  state.counters["pairs"] = static_cast<double>(d.graph.PairCount());
}
BENCHMARK(BM_MonitorStepLoop)
    ->ArgsProduct({{1, 4}, {1, 8, 32}})
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Pair-major batched Run: each worker sweeps its shard of pairs across a
// whole batch of samples before the deterministic merge.
void BM_MonitorBatchedRun(benchmark::State& state) {
  const SystemDataset& d = SharedSystemDataset();
  for (auto _ : state) {
    state.PauseTiming();
    const auto monitor =
        RestoreSystemMonitor(static_cast<std::size_t>(state.range(0)));
    state.ResumeTiming();
    benchmark::DoNotOptimize(monitor->Run(d.test));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * d.test.SampleCount() * d.graph.PairCount()));
  state.counters["pairs"] = static_cast<double>(d.graph.PairCount());
}
BENCHMARK(BM_MonitorBatchedRun)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Threshold calibration (SystemMonitor::CalibrateThresholds) over one
// holdout day, at range(0) engine threads: every pair replays the day
// through a frozen copy of its model, which never writes a row, so all
// but a row's first read find it unchanged.
void BM_CalibrateThresholds(benchmark::State& state) {
  const SystemDataset& d = SharedSystemDataset();
  for (auto _ : state) {
    state.PauseTiming();
    const auto monitor =
        RestoreSystemMonitor(static_cast<std::size_t>(state.range(0)));
    state.ResumeTiming();
    monitor->CalibrateThresholds(d.holdout, 0.01);
    benchmark::DoNotOptimize(monitor.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * d.holdout.SampleCount() * d.graph.PairCount()));
  state.counters["pairs"] = static_cast<double>(d.graph.PairCount());
}
BENCHMARK(BM_CalibrateThresholds)->Arg(1)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Model initialization (offline learning) cost for context.
void BM_Learn(benchmark::State& state) {
  const Dataset& d = SharedDataset();
  const auto train_days = static_cast<Duration>(state.range(0));
  const TimePoint start = PaperTraceStart();
  const MeasurementFrame train =
      d.frame.SliceByTime(start, start + train_days * kDay);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairModel::Learn(train.Series(d.x).Values(),
                                              train.Series(d.y).Values(),
                                              DefaultModelConfig()));
  }
}
BENCHMARK(BM_Learn)->Arg(1)->Arg(8)->Arg(15)->Unit(benchmark::kMillisecond);

// The display reporter the benchmark flags pick (--benchmark_format,
// --benchmark_color), plus a capture of the finished runs into a
// BenchJson so the perf trajectory lands in BENCH_updating_time.json at
// the repo root (per-iteration times in nanoseconds regardless of each
// benchmark's display unit). A single run records its own times and
// iteration count; under --benchmark_repetitions the median aggregate is
// recorded, with the repetition count.
class DisplayAndJsonReporter : public benchmark::BenchmarkReporter {
 public:
  explicit DisplayAndJsonReporter(BenchJson& json)
      : json_(json), display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
      if (run.repetitions > 1 ? !median : run.run_type != Run::RT_Iteration) {
        continue;
      }
      // The aggregate's times are rescaled so that dividing by its
      // `iterations` (the repetition count) gives the per-iteration time.
      const std::string name = run.run_name.str();
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      json_.Set(name + ".real_ns_per_iter",
                run.real_accumulated_time / iters * 1e9);
      json_.Set(name + ".cpu_ns_per_iter",
                run.cpu_accumulated_time / iters * 1e9);
      json_.Set(name + (median ? ".repetitions" : ".iterations"),
                static_cast<std::int64_t>(run.iterations));
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

 private:
  BenchJson& json_;
  std::unique_ptr<benchmark::BenchmarkReporter> display_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchJson json("updating_time");
  DisplayAndJsonReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string path = json.Write();
  // On stderr, so --benchmark_format=json leaves stdout parseable.
  if (path.empty()) {
    std::cerr << "warning: could not write BENCH_updating_time.json\n";
  } else {
    std::cerr << "wrote " << path << "\n";
  }
  benchmark::Shutdown();
  return 0;
}
