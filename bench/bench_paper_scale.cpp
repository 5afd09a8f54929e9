// The paper's full experimental scale (Section 6): ~50 machines per
// group, the measurement-selection criteria applied to pick 100
// measurements, one month of 6-minute data (May 29 - June 27), training
// on 15 days and monitoring the rest — with wall-clock timings for every
// stage, since feasibility at this scale is part of the claim
// ("the method is fast and can be embedded in online monitoring tools").
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "engine/localizer.h"
#include "engine/monitor.h"
#include "io/monitor_io.h"
#include "telemetry/generator.h"
#include "timeseries/summary.h"

int main() {
  using namespace pmcorr;
  using namespace pmcorr::bench;

  PrintSection(std::cout,
               "Paper scale — 50 machines, 100 selected measurements, one"
               " month");

  ScenarioConfig config;
  config.machine_count = 50;
  config.trace_days = 30;  // May 29 .. June 27, the paper's full window
  const PaperScenario scenario = MakeGroupScenario('A', config);

  Stopwatch clock;
  const MeasurementFrame raw = GenerateTrace(scenario.spec);
  const double gen_s = clock.ElapsedSeconds();
  std::cout << "generated " << raw.MeasurementCount() << " measurements x "
            << raw.SampleCount() << " samples in " << FormatDouble(gen_s, 2)
            << " s\n";

  // The paper's selection: >= 6-minute sampling, no linear partners,
  // high variance, capped at 100.
  clock.Reset();
  SelectionCriteria criteria;
  criteria.linear_r2_threshold = 0.95;
  criteria.min_cv = 0.02;
  criteria.max_measurements = 100;
  const auto kept_ids = SelectMeasurements(raw, criteria);
  const MeasurementFrame frame = raw.SelectMeasurements(kept_ids);
  const double select_s = clock.ElapsedSeconds();
  std::cout << "selected " << frame.MeasurementCount()
            << " measurements (criteria: non-linear, high-variance) in "
            << FormatDouble(select_s, 2) << " s\n";

  // Train on May 29 - June 12, monitor June 13 - 27.
  const TimePoint june13 = PaperTestStart();
  const MeasurementFrame train = frame.SliceByTime(PaperTraceStart(), june13);
  const MeasurementFrame test =
      frame.SliceByTime(june13, raw.TimeAt(raw.SampleCount()));

  clock.Reset();
  const MeasurementGraph graph = MeasurementGraph::Neighborhood(train, 2, 42);
  MonitorConfig engine;
  engine.model = DefaultModelConfig();
  engine.model.partition.max_intervals = 12;
  SystemMonitor monitor(train, graph, engine);
  const double train_s = clock.ElapsedSeconds();

  // The Step loop: the engine core called once per row (one sweep,
  // merge and assembly per sample), on an identically-learned clone so
  // both entry points start from the same models.
  std::stringstream checkpoint;
  SaveSystemMonitor(monitor, checkpoint);
  const auto serial_monitor = LoadSystemMonitor(checkpoint, engine.threads);
  clock.Reset();
  {
    std::vector<double> values(test.MeasurementCount());
    for (std::size_t t = 0; t < test.SampleCount(); ++t) {
      for (std::size_t a = 0; a < values.size(); ++a) {
        values[a] =
            test.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
      }
      serial_monitor->Step(values, test.TimeAt(t));
    }
  }
  const double serial_s = clock.ElapsedSeconds();

  clock.Reset();
  const auto snapshots = monitor.Run(test);
  const double run_s = clock.ElapsedSeconds();

  std::size_t alarms = 0, outliers = 0, extensions = 0;
  for (const auto& snap : snapshots) {
    alarms += snap.alarmed_pairs.size();
    outliers += snap.outlier_pairs;
    extensions += snap.extended_pairs;
  }

  TextTable table;
  table.SetHeader({"stage", "size", "wall time", "rate"});
  table.Row()
      .Cell("train (learn all pair models)")
      .Cell(std::to_string(graph.PairCount()) + " pair models x " +
            std::to_string(train.SampleCount()) + " samples")
      .Cell(FormatDouble(train_s, 2) + " s")
      .Cell(FormatDouble(train_s * 1e3 /
                             static_cast<double>(graph.PairCount()),
                         2) +
            " ms/model")
      .Done();
  table.Row()
      .Cell("monitor, serial Step loop")
      .Cell(std::to_string(test.SampleCount()) + " samples x " +
            std::to_string(graph.PairCount()) + " pairs")
      .Cell(FormatDouble(serial_s, 2) + " s")
      .Cell(FormatDouble(serial_s * 1e3 /
                             static_cast<double>(test.SampleCount()),
                         2) +
            " ms/sample (all pairs)")
      .Done();
  table.Row()
      .Cell("monitor, pair-major batched Run")
      .Cell(std::to_string(test.SampleCount()) + " samples x " +
            std::to_string(graph.PairCount()) + " pairs")
      .Cell(FormatDouble(run_s, 2) + " s")
      .Cell(FormatDouble(run_s * 1e3 /
                             static_cast<double>(test.SampleCount()),
                         2) +
            " ms/sample (all pairs)")
      .Done();
  table.Print(std::cout);
  std::cout << "batched Run speedup over serial Step loop: "
            << FormatDouble(serial_s / run_s, 2) << "x (identical output —"
            << " see test_differential)\n";

  // Model memory: each pair's transition matrix, by component — its
  // kernel stencil (the only storage of the prior), the evidence rows it
  // wrote, its sparse counts and its row caches.
  std::size_t total_cells = 0;
  for (std::size_t i = 0; i < graph.PairCount(); ++i) {
    total_cells += monitor.Model(i).Grid().CellCount();
  }
  const MatrixBytes bytes = MonitorMatrixBytes(monitor);
  const double total_bytes = static_cast<double>(bytes.Total());
  std::cout << "\naverage system fitness over the test period: "
            << FormatDouble(monitor.SystemAverage().Mean(), 4)
            << "  (paper band: 0.8-0.98)\n"
            << "pair outlier observations: " << outliers
            << ", grid extensions: " << extensions << "\n"
            << "model memory: " << FormatDouble(total_bytes / 1048576.0, 1)
            << " MiB across " << graph.PairCount() << " models (avg "
            << FormatDouble(static_cast<double>(total_cells) /
                                static_cast<double>(graph.PairCount()),
                            0)
            << " cells/grid)\n";

  LocalizerConfig loc;
  loc.deviations = 2.0;
  const auto report =
      Localize(monitor.Infos(), monitor.MeasurementAverages(), loc);
  const bool hit = !report.ranking.empty() &&
                   report.ranking.front().machine ==
                       scenario.localization_machine;

  // Machine-readable trajectory record (BENCH_paper_scale.json at the
  // repo root; CI uploads it as an artifact).
  BenchJson json("paper_scale");
  json.Set("pairs", static_cast<std::int64_t>(graph.PairCount()));
  json.Set("train_samples", static_cast<std::int64_t>(train.SampleCount()));
  json.Set("test_samples", static_cast<std::int64_t>(test.SampleCount()));
  json.Set("generate_s", gen_s);
  json.Set("select_s", select_s);
  json.Set("train_s", train_s);
  json.Set("monitor_serial_step_s", serial_s);
  json.Set("monitor_batched_run_s", run_s);
  json.Set("batched_speedup_over_serial", serial_s / run_s);
  json.Set("serial_ms_per_sample",
           serial_s * 1e3 / static_cast<double>(test.SampleCount()));
  json.Set("batched_ms_per_sample",
           run_s * 1e3 / static_cast<double>(test.SampleCount()));
  json.Set("avg_system_fitness", monitor.SystemAverage().Mean());
  json.Set("alarms", static_cast<std::int64_t>(alarms));
  json.Set("outliers", static_cast<std::int64_t>(outliers));
  json.Set("extensions", static_cast<std::int64_t>(extensions));
  SetMatrixBytes(json, bytes);
  json.Set("avg_cells_per_grid",
           static_cast<double>(total_cells) /
               static_cast<double>(graph.PairCount()));
  json.Set("fault_machine_ranked_first", std::string(hit ? "yes" : "no"));
  const std::string json_path = json.Write();
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";
  std::cout << "worst machine: "
            << (report.ranking.empty()
                    ? std::string("-")
                    : scenario.spec.topology.machines
                          .at(static_cast<std::size_t>(
                              report.ranking.front().machine.value))
                          .hostname)
            << " (injected fault machine ranked #1: "
            << (hit ? "yes" : "NO") << ")\n"
            << "\nEach online sample costs well under the 6-minute sampling"
               " period even with\nhundreds of concurrent pair models —"
               " the paper's feasibility claim at its own\nscale.\n";
  return 0;
}
