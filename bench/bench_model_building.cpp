// Model-building time at the paper's experimental scale (Section 6: 193
// pair models, one month of 6-minute data): wall-clock for learning every
// pair model from its history window, A/B between the sequential
// reference replay (the pre-row-bucketing Learn loop) and the compiled
// row-bucketed replay, which are bitwise-identical by construction (see
// tests/test_learn_replay.cpp).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "engine/measurement_graph.h"
#include "telemetry/generator.h"
#include "timeseries/summary.h"

int main() {
  using namespace pmcorr;
  using namespace pmcorr::bench;

  PrintSection(std::cout,
               "Model building — 193 pair models x 15 days of history");

  ScenarioConfig config;
  config.machine_count = 50;
  config.trace_days = 30;
  const PaperScenario scenario = MakeGroupScenario('A', config);

  Stopwatch clock;
  const MeasurementFrame raw = GenerateTrace(scenario.spec);
  SelectionCriteria criteria;
  criteria.linear_r2_threshold = 0.95;
  criteria.min_cv = 0.02;
  criteria.max_measurements = 100;
  const MeasurementFrame frame =
      raw.SelectMeasurements(SelectMeasurements(raw, criteria));
  const MeasurementFrame train =
      frame.SliceByTime(PaperTraceStart(), PaperTestStart());
  const MeasurementGraph graph = MeasurementGraph::Neighborhood(train, 2, 42);
  std::cout << "prepared " << graph.PairCount() << " pairs x "
            << train.SampleCount() << " history samples in "
            << FormatDouble(clock.ElapsedSeconds(), 2) << " s\n";

  ModelConfig model_config = DefaultModelConfig();
  model_config.partition.max_intervals = 12;

  // Resolve the per-pair history columns once.
  const std::size_t pairs = graph.PairCount();
  std::vector<std::span<const double>> xs(pairs), ys(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    xs[i] = train.Series(graph.Pair(i).a).Values();
    ys[i] = train.Series(graph.Pair(i).b).Values();
  }

  // A: sequential reference (compile disabled — the PR-2 Learn loop).
  // B: row-bucketed replay. Best-of-reps wall clock for each.
  constexpr int kReps = 5;
  double seq_s = 1e100, replay_s = 1e100;
  std::vector<PairModel> models(pairs);
  for (int rep = 0; rep < kReps; ++rep) {
    clock.Reset();
    for (std::size_t i = 0; i < pairs; ++i) {
      models[i] = PairModel::LearnSequential(xs[i], ys[i], model_config);
    }
    seq_s = std::min(seq_s, clock.ElapsedSeconds());
    clock.Reset();
    for (std::size_t i = 0; i < pairs; ++i) {
      models[i] = PairModel::Learn(xs[i], ys[i], model_config);
    }
    replay_s = std::min(replay_s, clock.ElapsedSeconds());
  }

  const double samples = static_cast<double>(train.SampleCount());
  TextTable table;
  table.SetHeader({"path", "wall time", "models/s", "samples/s"});
  auto row = [&](const char* name, double secs) {
    table.Row()
        .Cell(name)
        .Cell(FormatDouble(secs * 1e3, 1) + " ms")
        .Cell(FormatDouble(static_cast<double>(pairs) / secs, 0))
        .Cell(FormatDouble(static_cast<double>(pairs) * samples / secs, 0))
        .Done();
  };
  row("sequential reference", seq_s);
  row("row-bucketed replay", replay_s);
  table.Print(std::cout);
  std::cout << "replay speedup over sequential: "
            << FormatDouble(seq_s / replay_s, 2)
            << "x (identical models — see test_learn_replay)\n";

  BenchJson json("model_building");
  json.Set("pairs", static_cast<std::int64_t>(pairs));
  json.Set("history_samples", static_cast<std::int64_t>(train.SampleCount()));
  json.Set("sequential_s", seq_s);
  json.Set("replay_s", replay_s);
  json.Set("replay_speedup_over_sequential", seq_s / replay_s);
  json.Set("replay_models_per_s", static_cast<double>(pairs) / replay_s);
  json.Set("replay_samples_per_s",
           static_cast<double>(pairs) * samples / replay_s);
  const std::string path = json.Write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return 0;
}
