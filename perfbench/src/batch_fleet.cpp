// batch_fleet: a ~10k-pair mesh over a 60-machine group-A fleet, learned
// once and then monitored with SystemMonitor::Run in hourly batches of
// 10 rows (the 6-minute cadence), each followed by the operator's query,
// a drill-down report over that batch. Neither serve nor checkpoint io
// runs. Core learning dominates set-up, the pair-major sweep dominates
// rows_per_s, and model memory dominates peak RSS.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/time.h"
#include "timeseries/frame.h"
#include "engine/drilldown.h"
#include "engine/measurement_graph.h"

namespace perfbench {
namespace {

using namespace pmcorr;

struct FleetShape {
  std::size_t machines = 60;
  int train_days = 2;
  /// Test days generated; a run that reaches their end stops early.
  int test_days = 28;
  std::size_t pairs = 10000;
  /// Rows per Run call: one hour at the 6-minute cadence.
  std::size_t batch_rows = 10;
  /// Engine threads; fixed, and no more than a 4-core machine has.
  std::size_t threads = 2;
  /// The first one to three learns in a process ran up to 4x slower than
  /// the rest on a 4-vCPU virtual machine; with 5 repeats the median
  /// flipped between the two.
  int setup_reps = 9;
};

FleetShape ShapeFor(const Options& options) {
  FleetShape shape;
  if (options.smoke) {
    shape.machines = 16;
    shape.test_days = 2;
    shape.pairs = 400;
    shape.setup_reps = 2;
  }
  return shape;
}

/// The first measurements' pairs, `target` of them (the whole mesh when
/// the fleet is too small).
MeasurementGraph MeshOfPairs(std::size_t measurements, std::size_t target) {
  std::vector<PairId> pairs;
  pairs.reserve(target);
  for (std::size_t b = 1; b < measurements && pairs.size() < target; ++b) {
    for (std::size_t a = 0; a < b && pairs.size() < target; ++a) {
      pairs.emplace_back(MeasurementId(static_cast<std::int32_t>(a)),
                         MeasurementId(static_cast<std::int32_t>(b)));
    }
  }
  return MeasurementGraph::FromPairs(measurements, std::move(pairs));
}

/// The small grids of bench_large_graph: at 10k pairs the s^2 transition
/// matrices dominate memory.
MonitorConfig EngineConfig(const FleetShape& shape) {
  MonitorConfig config;
  config.threads = shape.threads;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 6;
  return config;
}

std::unique_ptr<SystemMonitor> LearnFleet(const FleetShape& shape,
                                          const MeasurementFrame& train,
                                          Tracer* tracer, double* graph_s,
                                          double* learn_s) {
  const Clock::time_point t0 = Clock::now();
  MeasurementGraph graph;
  {
    const ScopedSpan span(tracer, Layer::kGraph);
    graph = MeshOfPairs(train.MeasurementCount(), shape.pairs);
  }
  const Clock::time_point t1 = Clock::now();
  std::unique_ptr<SystemMonitor> monitor;
  {
    const ScopedSpan span(tracer, Layer::kLearn);
    monitor = std::make_unique<SystemMonitor>(train, std::move(graph),
                                              EngineConfig(shape));
  }
  const Clock::time_point t2 = Clock::now();
  if (graph_s != nullptr) *graph_s = Seconds(t1 - t0);
  if (learn_s != nullptr) *learn_s = Seconds(t2 - t1);
  return monitor;
}

struct BatchPass {
  std::size_t batches = 0;
  std::size_t rows = 0;
  double wall_s = 0.0;
  double run_s = 0.0;
  double drilldown_s = 0.0;
  RunStats run;  // summed over the Run calls
  std::vector<double> row_latency_ms;
  std::vector<double> query_us;
  std::size_t reported_measurements = 0;
  Outcomes outcomes;
  std::vector<SystemSnapshot> first;  // the first batch, for the check
  double peak_rss_mib = 0.0;
  std::size_t spans = 0;  // recorded in the pass
};

/// Runs batches back to back until `seconds` pass, or exactly
/// `batch_limit` batches to replay an earlier pass's work.
BatchPass DriveBatches(SystemMonitor& monitor,
                       const std::vector<MeasurementFrame>& batches,
                       double seconds, std::size_t batch_limit,
                       Tracer* tracer) {
  BatchPass pass;
  const std::size_t spans_before = tracer != nullptr ? tracer->SpanCount() : 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point end = t0;
  for (std::size_t c = 0; c < batches.size(); ++c) {
    if (batch_limit != 0 ? c >= batch_limit : Seconds(end - t0) >= seconds) {
      break;
    }
    const MeasurementFrame& batch = batches[c];
    const Clock::time_point handed = Clock::now();
    std::vector<SystemSnapshot> snapshots;
    {
      const ScopedSpan span(tracer, Layer::kRun);
      snapshots = monitor.Run(batch);
    }
    const Clock::time_point published = Clock::now();
    const RunStats& stats = monitor.LastRunStats();
    pass.run.sweep_seconds += stats.sweep_seconds;
    pass.run.alarm_merge_seconds += stats.alarm_merge_seconds;
    pass.run.assemble_seconds += stats.assemble_seconds;
    pass.run.batches += stats.batches;
    pass.run_s += Seconds(published - handed);
    for (const SystemSnapshot& snap : snapshots) {
      pass.row_latency_ms.push_back(Seconds(published - handed) * 1e3);
      pass.outcomes.Add(snap);
    }
    {
      const ScopedSpan span(tracer, Layer::kDrilldown);
      pass.reported_measurements +=
          BuildDrilldown(monitor, snapshots, batch, 0, snapshots.size() - 1)
              .measurements.size();
    }
    end = Clock::now();
    pass.query_us.push_back(Seconds(end - published) * 1e6);
    pass.drilldown_s += Seconds(end - published);
    if (c == 0) pass.first = std::move(snapshots);
    pass.rows += batch.SampleCount();
    ++pass.batches;
  }
  pass.wall_s = Seconds(end - t0);
  if (tracer != nullptr) pass.spans = tracer->SpanCount() - spans_before;
  pass.peak_rss_mib = PeakRssMib();
  return pass;
}

/// Run's first batch must equal, bitwise, a freshly learned monitor
/// stepped one row at a time.
void CheckFirstBatch(const BatchPass& pass, SystemMonitor& monitor,
                     const MeasurementFrame& batch, WorkloadResult& result) {
  if (pass.reported_measurements == 0) {
    result.Fail("batch_fleet: no drill-down report named a measurement");
  }
  if (pass.first.size() != batch.SampleCount()) {
    result.Fail("batch_fleet: the first Run returned " +
                std::to_string(pass.first.size()) + " snapshots");
    return;
  }
  std::vector<double> values(batch.MeasurementCount());
  SystemSnapshot snap;
  for (std::size_t t = 0; t < batch.SampleCount(); ++t) {
    for (const MeasurementInfo& info : batch.Infos()) {
      values[static_cast<std::size_t>(info.id.value)] =
          batch.Value(info.id, t);
    }
    monitor.Step(values, batch.TimeAt(t), snap);
    const std::string diff = CompareSnapshots(pass.first[t], snap);
    if (!diff.empty()) {
      result.Fail("batch_fleet: Run and Step differ at row " +
                  std::to_string(t) + ": " + diff);
      return;
    }
  }
}

}  // namespace

WorkloadResult RunBatchFleet(const Options& options) {
  WorkloadResult result;
  result.record = BaseRecord(options);
  const FleetShape shape = ShapeFor(options);
  const FleetTelemetry telemetry =
      MakeFleetTelemetry(options.seed, shape.machines, shape.train_days,
                         1 + static_cast<std::size_t>(shape.test_days));
  const MeasurementFrame& train = telemetry.train;
  const MeasurementFrame& live = telemetry.live;
  const TimePoint start = live.StartTime();
  const TimePoint stop =
      start + static_cast<TimePoint>(live.SampleCount()) * live.Period();
  const MeasurementFrame warm_day = live.SliceByTime(start, start + kDay);
  const Duration span = static_cast<Duration>(shape.batch_rows) * live.Period();
  std::vector<MeasurementFrame> batches;
  for (TimePoint from = start + kDay; from + span <= stop; from += span) {
    batches.push_back(live.SliceByTime(from, from + span));
  }

  // Set-up: graph + learn, repeated; the last monitor warms up and runs.
  std::vector<double> setup_s, graph_s, learn_s;
  std::unique_ptr<SystemMonitor> monitor;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    monitor.reset();
    double g = 0.0, l = 0.0;
    monitor = LearnFleet(shape, train, nullptr, &g, &l);
    setup_s.push_back(g + l);
    graph_s.push_back(g);
    learn_s.push_back(l);
  }
  monitor->Run(warm_day);
  Record& r = result.record;
  r.Set("engine_threads", static_cast<double>(shape.threads));
  r.Set("topology_seed", 7.0);
  r.Set("measurements", static_cast<double>(monitor->MeasurementCount()));
  r.Set("pairs", static_cast<double>(monitor->Graph().PairCount()));
  r.Set("batch_rows", static_cast<double>(shape.batch_rows));

  const BatchPass pass =
      DriveBatches(*monitor, batches, options.seconds, 0, nullptr);
  r.Set("grid_cells_mean", ModelFootprint(*monitor).cells_mean);
  monitor.reset();
  {
    // The reference steps the warm-up day too, so the check covers Run
    // against Step over the whole prefix.
    const std::unique_ptr<SystemMonitor> reference =
        LearnFleet(shape, train, nullptr, nullptr, nullptr);
    WarmUp(*reference, live);
    CheckFirstBatch(pass, *reference, batches.front(), result);
  }

  const Summary latency = Summarize(pass.row_latency_ms);
  const Summary query = Summarize(pass.query_us);
  NoteSetup(setup_s, result);
  Metrics& e = result.end_to_end;
  e.Set("setup_s", Median(setup_s), "s");
  e.Set("rows_per_s", static_cast<double>(pass.rows) / pass.wall_s, "rows/s");
  e.Set("row_latency_p50_ms", latency.p50, "ms");
  e.Set("row_latency_p99_ms", latency.p99, "ms");
  e.Set("query_latency_p50_us", query.p50, "us");
  e.Set("query_latency_p99_us", query.p99, "us");
  e.Set("peak_rss_mib", pass.peak_rss_mib, "MiB");
  result.attempted = pass.rows;
  result.failed = 0;
  r.Set("rows", static_cast<double>(pass.rows));
  r.Set("batches_run", static_cast<double>(pass.batches));
  r.Set("batches_generated", static_cast<double>(batches.size()));
  r.Set("measured_s", pass.wall_s);
  r.Set("row_latency_p99_rank", latency.p99_rank);
  r.Set("query_samples", static_cast<double>(query.n));
  r.Set("query_latency_p99_rank", query.p99_rank);
  r.Set("checkpoint_bytes", 0.0);
  if (pass.batches == batches.size()) {
    result.Note("note: the run reached the end of the generated trace");
  }

  if (options.trace) {
    Tracer tracer;
    const std::unique_ptr<SystemMonitor> traced_monitor =
        LearnFleet(shape, train, &tracer, nullptr, nullptr);
    traced_monitor->Run(warm_day);
    const double learn_us =
        LearnUsPerPair(train, traced_monitor->Graph(),
                       EngineConfig(shape).model, &tracer);
    const BatchPass traced = DriveBatches(*traced_monitor, batches,
                                          options.seconds, pass.batches,
                                          &tracer);
    const Footprint fp = ModelFootprint(*traced_monitor);
    Metrics& l = result.per_layer;
    l.Set("engine.graph_s", Median(graph_s), "s");
    l.Set("engine.learn_s", Median(learn_s), "s");
    l.Set("engine.run_sweep_s", traced.run.sweep_seconds, "s");
    l.Set("engine.run_alarm_merge_s", traced.run.alarm_merge_seconds, "s");
    l.Set("engine.run_assemble_s", traced.run.assemble_seconds, "s");
    l.Set("engine.run_batches", static_cast<double>(traced.run.batches),
          "count");
    l.Set("engine.drilldown_us.p99",
          Summarize(tracer.DurationsUs(Layer::kDrilldown)).p99, "us");
    l.Set("engine.pairs",
          static_cast<double>(traced_monitor->Graph().PairCount()), "count");
    const Outcomes& o = traced.outcomes;
    l.Set("engine.outlier_frac", o.scored > 0 ? o.outliers / o.scored : 0.0,
          "ratio");
    l.Set("engine.extension_frac", o.scored > 0 ? o.extended / o.scored : 0.0,
          "ratio");
    l.Set("core.learn_us_per_pair", learn_us, "us");
    l.Set("core.cells_per_grid.mean", fp.cells_mean, "count");
    l.Set("core.model_mib", fp.model_mib, "MiB");
    l.Set("driver.trace_overhead_frac",
          TraceOverheadFrac(traced.spans, traced.wall_s), "ratio");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "wall time of the measured phase: untraced %.3f s, traced "
                  "%.3f s, for %zu batches each",
                  pass.wall_s, traced.wall_s, traced.batches);
    result.Note(line);
    ReportShares({{"engine.run_sweep", traced.run.sweep_seconds},
                  {"engine.run_other",
                   traced.run_s - traced.run.sweep_seconds},
                  {"engine.drilldown", traced.drilldown_s}},
                 traced.wall_s, "engine.run_sweep", result);
  }
  return result;
}

}  // namespace perfbench
