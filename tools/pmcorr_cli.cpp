// pmcorr command-line tool: generate traces, train pair models, run
// detection, and inspect model files — the library's workflow without
// writing C++.
//
//   pmcorr generate --group A --machines 12 --days 16 --out trace.csv
//   pmcorr train    --trace trace.csv --x NAME --y NAME --out model.pmc
//   pmcorr run      --model model.pmc --trace trace.csv --threshold 0.5
//   pmcorr inspect  --model model.pmc
//
// Measurement names follow the trace CSV header (MetricKind@hostname).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "io/delta_binary.h"
#include "pmcorr.h"
#include "serve/daemon.h"

namespace {

using namespace pmcorr;

// --------------------------------------------------------------------
// Minimal --flag value parsing.
// --------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("expected --flag value, got '" + key + "'");
      }
      ordered_.emplace_back(key.substr(2), argv[i + 1]);
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string Get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::runtime_error("missing required flag --" + key);
    }
    return it->second;
  }

  std::string GetOr(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  long long GetInt(const std::string& key, long long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    long long out = 0;
    if (!ParseInt64(it->second, &out)) {
      throw std::runtime_error("flag --" + key + " wants an integer");
    }
    return out;
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double out = 0.0;
    if (!ParseDouble(it->second, &out)) {
      throw std::runtime_error("flag --" + key + " wants a number");
    }
    return out;
  }

  /// Every value of a repeatable flag, in command-line order (Get and
  /// friends keep their last-one-wins behavior for single-value flags).
  std::vector<std::string> GetAll(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : ordered_) {
      if (k == key) out.push_back(v);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> ordered_;
};

MeasurementId ResolveMeasurement(const MeasurementFrame& frame,
                                 const std::string& name) {
  if (const auto id = frame.FindByName(name)) return *id;
  // Accept a bare index too.
  long long index = 0;
  if (ParseInt64(name, &index) && index >= 0 &&
      static_cast<std::size_t>(index) < frame.MeasurementCount()) {
    return MeasurementId(static_cast<std::int32_t>(index));
  }
  std::string message = "unknown measurement '" + name + "'; available:";
  for (const auto& info : frame.Infos()) message += "\n  " + info.name;
  throw std::runtime_error(message);
}

// --------------------------------------------------------------------
// Commands.
// --------------------------------------------------------------------

int CmdGenerate(const Flags& flags) {
  ScenarioConfig config;
  config.machine_count =
      static_cast<std::size_t>(flags.GetInt("machines", 12));
  config.trace_days = static_cast<int>(flags.GetInt("days", 16));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2008));
  const std::string group = flags.GetOr("group", "A");
  if (group.size() != 1 || group[0] < 'A' || group[0] > 'C') {
    throw std::runtime_error("--group must be A, B or C");
  }
  const PaperScenario scenario = MakeGroupScenario(group[0], config);
  const MeasurementFrame frame = GenerateTrace(scenario.spec);
  const std::string out = flags.Get("out");
  WriteFrameCsv(frame, out);
  std::printf("wrote %zu measurements x %zu samples to %s\n",
              frame.MeasurementCount(), frame.SampleCount(), out.c_str());
  std::printf("focus pair: %s  x  %s\n", scenario.focus_x.c_str(),
              scenario.focus_y.c_str());
  std::printf("ground-truth fault: machine %d, %s .. %s\n",
              scenario.problem_machine.value,
              FormatTimePoint(scenario.problem_start).c_str(),
              FormatTimePoint(scenario.problem_end).c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const MeasurementFrame frame = ReadFrameCsv(flags.Get("trace"));
  const MeasurementId x = ResolveMeasurement(frame, flags.Get("x"));
  const MeasurementId y = ResolveMeasurement(frame, flags.Get("y"));

  const auto train_days = flags.GetInt("train-days", 0);
  const MeasurementFrame train =
      train_days > 0
          ? frame.SliceByTime(frame.StartTime(),
                              frame.StartTime() + train_days * kDay)
          : frame;

  ModelConfig config;
  config.partition.units =
      static_cast<std::size_t>(flags.GetInt("units", 50));
  config.partition.max_intervals =
      static_cast<std::size_t>(flags.GetInt("max-intervals", 14));

  const auto t0 = std::chrono::steady_clock::now();
  PairModel model = PairModel::Learn(train.Series(x).Values(),
                                     train.Series(y).Values(), config);
  const double learn_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Optional threshold calibration on the last training day.
  const double fpr = flags.GetDouble("calibrate-fpr", 0.0);
  if (fpr > 0.0) {
    const TimePoint last_day = train.TimeAt(train.SampleCount() - 1) - kDay;
    const MeasurementFrame holdout =
        train.SliceByTime(last_day, train.TimeAt(train.SampleCount()));
    const auto calibration =
        CalibrateOnHoldout(model, holdout.Series(x).Values(),
                           holdout.Series(y).Values(), fpr);
    model.SetAlarmThresholds(calibration.fitness_threshold,
                             calibration.delta);
    std::printf("calibrated: fitness threshold %.4f, delta %.6f (target"
                " fpr %.2f%%)\n",
                calibration.fitness_threshold, calibration.delta,
                fpr * 100.0);
  }

  const std::string out = flags.Get("out");
  SavePairModel(model, out);
  std::printf("trained on %zu samples: %s -> %s\n", train.SampleCount(),
              model.Grid().Describe().c_str(), out.c_str());
  if (learn_s > 0.0) {
    std::printf("model building: %.1f ms (%.1f pairs/s, %.3g samples/s)\n",
                learn_s * 1e3, 1.0 / learn_s,
                static_cast<double>(train.SampleCount()) / learn_s);
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  PairModel model = LoadPairModel(flags.Get("model"));
  const MeasurementFrame frame = ReadFrameCsv(flags.Get("trace"));
  const MeasurementId x = ResolveMeasurement(frame, flags.Get("x"));
  const MeasurementId y = ResolveMeasurement(frame, flags.Get("y"));

  const auto from_day = flags.GetInt("from-day", 0);
  const MeasurementFrame test =
      from_day > 0 ? frame.SliceByTime(frame.StartTime() + from_day * kDay,
                                       frame.TimeAt(frame.SampleCount()))
                   : frame;
  const double threshold = flags.GetDouble("threshold", 0.5);

  std::vector<std::optional<double>> scores(test.SampleCount());
  ScoreAverager average;
  std::size_t outliers = 0;
  for (std::size_t t = 0; t < test.SampleCount(); ++t) {
    const StepOutcome out = model.Step(test.Value(x, t), test.Value(y, t));
    if (out.has_score) {
      scores[t] = out.fitness;
      average.Add(out.fitness);
    }
    if (out.outlier) ++outliers;
  }

  SparklineOptions spark;
  spark.width = 72;
  spark.lo = 0.0;
  spark.hi = 1.0;
  std::printf("fitness over %zu samples (avg %.4f, %zu outliers):\n%s\n",
              test.SampleCount(), average.Mean(), outliers,
              Sparkline(std::span<const std::optional<double>>(scores), spark)
                  .c_str());

  const auto windows = ExtractLowScoreWindows(
      std::span<const std::optional<double>>(scores), test.StartTime(),
      test.Period(), threshold);
  std::printf("%zu low-fitness windows (Q < %.2f):\n", windows.size(),
              threshold);
  for (const auto& w : windows) {
    std::printf("  %s .. %s  min Q = %.3f\n",
                FormatTimePoint(w.start).c_str(),
                FormatTimePoint(w.end).c_str(), w.min_score);
  }
  return 0;
}

// Shared tail of `monitor`: sparkline + low-Q windows over a snapshot
// stream, whether the snapshots came from a live Run or were
// reconstructed from a delta stream.
void PrintSystemScoreSummary(const std::vector<SystemSnapshot>& snapshots,
                             double threshold) {
  const std::vector<std::optional<double>> q = SystemScoreSeries(snapshots);
  SparklineOptions spark;
  spark.width = 72;
  std::printf("system fitness Q over %zu samples:\n%s\n", snapshots.size(),
              Sparkline(std::span<const std::optional<double>>(q), spark)
                  .c_str());
  if (snapshots.empty()) return;
  const TimePoint start = snapshots.front().time;
  const TimePoint period = snapshots.size() > 1
                               ? snapshots[1].time - snapshots[0].time
                               : kDay / 96;
  const auto windows = ExtractLowScoreWindows(
      std::span<const std::optional<double>>(q), start, period, threshold, 2);
  std::printf("%zu low-Q windows (Q < %.2f for >= 2 samples)\n",
              windows.size(), threshold);
  for (const auto& w : windows) {
    std::printf("  %s .. %s  min Q = %.3f\n",
                FormatTimePoint(w.start).c_str(),
                FormatTimePoint(w.end).c_str(), w.min_score);
  }
}

int CmdMonitor(const Flags& flags) {
  // Offline delta-stream review: reconstruct full snapshots from a
  // stream written with --delta-out and report on them. Needs no trace
  // (the stream is self-contained).
  const std::string from_deltas = flags.GetOr("from-deltas", "");
  if (!from_deltas.empty()) {
    std::ifstream in(from_deltas, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open --from-deltas file " +
                               from_deltas);
    }
    // Auto-detect the stream format: JSONL deltas start with '{', the
    // binary framing starts with a length prefix that never does.
    const std::vector<SystemDelta> deltas = in.peek() == '{'
                                                ? ReadDeltaStreamJsonl(in)
                                                : ReadDeltaStreamBinary(in);
    const auto snapshots = ReconstructSnapshots(deltas);
    std::size_t baselines = 0;
    for (const SystemDelta& d : deltas) baselines += d.baseline ? 1 : 0;
    std::printf("reconstructed %zu snapshots from %zu deltas"
                " (%zu baselines)\n",
                snapshots.size(), deltas.size(), baselines);
    PrintSystemScoreSummary(snapshots, flags.GetDouble("threshold", 0.9));
    return 0;
  }

  // --delta-out: the run is also written as a delta stream. A bad
  // format fails here, before the trace is read or a model learned.
  const std::string delta_out = flags.GetOr("delta-out", "");
  const std::string delta_format = flags.GetOr("delta-format", "jsonl");
  if (!delta_out.empty() && delta_format != "jsonl" &&
      delta_format != "binary") {
    throw std::runtime_error("--delta-format must be jsonl or binary");
  }

  const MeasurementFrame frame = ReadFrameCsv(flags.Get("trace"));
  const auto train_days = flags.GetInt("train-days", 0);
  if (train_days <= 0) {
    throw std::runtime_error("--train-days must be positive");
  }
  const TimePoint split = frame.StartTime() + train_days * kDay;
  const MeasurementFrame train = frame.SliceByTime(frame.StartTime(), split);
  const MeasurementFrame test =
      frame.SliceByTime(split, frame.TimeAt(frame.SampleCount()));
  if (train.SampleCount() < 2 || test.SampleCount() == 0) {
    throw std::runtime_error("not enough samples on either side of the"
                             " train/test split");
  }

  // Graph policy: machine cliques + remote partners, or data-driven.
  const std::string policy = flags.GetOr("graph", "neighborhood");
  MeasurementGraph graph;
  if (policy == "neighborhood") {
    graph = MeasurementGraph::Neighborhood(
        train, static_cast<std::size_t>(flags.GetInt("partners", 2)), 7);
  } else if (policy == "association") {
    graph = MeasurementGraph::ByAssociation(
        train, flags.GetDouble("min-spearman", 0.6),
        static_cast<std::size_t>(flags.GetInt("partners", 3)));
  } else if (policy == "full") {
    graph = MeasurementGraph::FullMesh(train.MeasurementCount());
  } else {
    throw std::runtime_error("--graph must be neighborhood|association|full");
  }

  MonitorConfig config;
  SystemMonitor monitor(train, graph, config);
  std::printf("trained %zu pair models on %zu samples (%zu measurements)\n",
              graph.PairCount(), train.SampleCount(),
              train.MeasurementCount());

  // Degraded-stream mode: feed a row-stream CSV through the ingest
  // guard sample by sample, honoring each row's own timestamp (late,
  // duplicated, out-of-order, and frozen feeds are detected instead of
  // silently re-gridded), then report feed health.
  const std::string stream_path = flags.GetOr("stream", "");
  if (!stream_path.empty()) {
    const SampleStream stream = ReadSampleStreamCsv(stream_path);
    if (stream.infos.size() != monitor.MeasurementCount()) {
      throw std::runtime_error(
          "--stream measurement count does not match the training trace");
    }
    monitor.ResetSequences();
    std::vector<std::optional<double>> q;
    q.reserve(stream.rows.size());
    std::size_t alarms = 0;
    std::size_t events = 0;
    for (const SampleRow& row : stream.rows) {
      const SystemSnapshot snap = monitor.Step(row.values, row.time);
      q.push_back(snap.system_score);
      alarms += snap.alarmed_pairs.size();
      if (snap.stream_event != StreamEvent::kNone) ++events;
    }

    SparklineOptions spark;
    spark.width = 72;
    std::printf("system fitness Q over %zu streamed samples:\n%s\n",
                stream.rows.size(),
                Sparkline(std::span<const std::optional<double>>(q), spark)
                    .c_str());
    const IngestGuard& health = monitor.Health();
    std::printf(
        "stream health: %zu degraded arrivals (%zu gaps, %zu duplicates,"
        " %zu out-of-order), %zu values suppressed\n",
        events, health.GapCount(), health.DuplicateCount(),
        health.OutOfOrderCount(), health.SuppressedTotal());
    for (std::size_t m = 0; m < monitor.MeasurementCount(); ++m) {
      if (health.Health(m) != MeasurementHealth::kHealthy) {
        std::printf("  measurement %-3zu %-12s %s\n", m,
                    monitor.Infos()[m].name.c_str(),
                    MeasurementHealthName(health.Health(m)));
      }
    }
    std::printf("%zu pair alarms, %zu pairs quarantined, %zu retired\n",
                alarms, monitor.Quarantine().QuarantinedCount(),
                monitor.Quarantine().RetiredCount());
    return 0;
  }

  const std::vector<SystemSnapshot> snapshots = monitor.Run(test);
  if (!delta_out.empty()) {
    const std::vector<SystemDelta> deltas = DiffSnapshotStream(snapshots);
    std::ofstream out(delta_out, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot open --delta-out file " + delta_out);
    }
    if (delta_format == "binary") {
      WriteDeltaStreamBinary(deltas, out);
    } else {
      WriteDeltaStreamJsonl(deltas, out);
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("writing --delta-out file " + delta_out +
                               " failed");
    }
    std::size_t changed = 0;
    for (const SystemDelta& d : deltas) {
      changed += d.pair_changes.size() + d.pair_disengaged.size();
    }
    std::printf("wrote %zu deltas to %s (%.2f pair changes/tick of %zu"
                " pairs)\n",
                deltas.size(), delta_out.c_str(),
                deltas.empty()
                    ? 0.0
                    : static_cast<double>(changed) /
                          static_cast<double>(deltas.size()),
                graph.PairCount());
  }
  const std::vector<std::optional<double>> q = SystemScoreSeries(snapshots);

  SparklineOptions spark;
  spark.width = 72;
  std::printf("system fitness Q over %zu test samples (avg %.4f):\n%s\n",
              test.SampleCount(), monitor.SystemAverage().Mean(),
              Sparkline(std::span<const std::optional<double>>(q), spark)
                  .c_str());

  const double threshold = flags.GetDouble("threshold", 0.9);
  const auto windows = ExtractLowScoreWindows(
      std::span<const std::optional<double>>(q), test.StartTime(),
      test.Period(), threshold, 2);
  std::printf("%zu low-Q windows (Q < %.2f for >= 2 samples)\n",
              windows.size(), threshold);
  for (const auto& w : windows) {
    const DrilldownReport report = BuildDrilldown(
        monitor, snapshots, test, w.first_sample, w.last_sample);
    std::printf("\n%s .. %s (min Q %.3f)\n%s",
                FormatTimePoint(w.start).c_str(),
                FormatTimePoint(w.end).c_str(), w.min_score,
                report.ToString().c_str());
  }

  LocalizerConfig loc;
  loc.deviations = 2.0;
  const auto report =
      Localize(monitor.Infos(), monitor.MeasurementAverages(), loc);
  std::printf("\nmachine ranking (worst 3):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(3, report.ranking.size());
       ++i) {
    std::printf("  #%zu machine %-3d avg Q = %.4f\n", i + 1,
                report.ranking[i].machine.value, report.ranking[i].score);
  }
  return 0;
}

int CmdServe(const Flags& flags) {
  ServeDaemonOptions options;
  options.socket_path = flags.Get("socket");
  for (const std::string& spec : flags.GetAll("tenant")) {
    // NAME=TRACE[:DAYS] — the trace trains the tenant on cold start; a
    // checkpoint under --checkpoint-dir wins on warm start.
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      throw std::runtime_error("--tenant wants NAME=TRACE[:DAYS], got '" +
                               spec + "'");
    }
    ServeTenantSpec tenant;
    tenant.name = spec.substr(0, eq);
    tenant.trace_path = spec.substr(eq + 1);
    const std::size_t colon = tenant.trace_path.rfind(':');
    if (colon != std::string::npos) {
      long long days = 0;
      if (ParseInt64(tenant.trace_path.substr(colon + 1), &days) &&
          days > 0) {
        tenant.train_days = static_cast<std::size_t>(days);
        tenant.trace_path.resize(colon);
      }
    }
    options.tenants.push_back(std::move(tenant));
  }
  options.checkpoint_dir = flags.GetOr("checkpoint-dir", "");
  options.checkpoint_every =
      static_cast<std::size_t>(flags.GetInt("checkpoint-every", 0));
  options.queue_budget =
      static_cast<std::size_t>(flags.GetInt("queue-budget", 256));
  options.ingest_delay_ms = flags.GetInt("ingest-delay-ms", 0);
  options.threads = static_cast<std::size_t>(flags.GetInt("threads", 1));
  options.retrain_interval =
      static_cast<std::size_t>(flags.GetInt("retrain", 0));
  options.partners = static_cast<std::size_t>(flags.GetInt("partners", 2));
  return RunServeDaemon(options);
}

int CmdEvaluate(const Flags& flags) {
  ScorecardConfig config;
  const std::string mode = flags.GetOr("mode", "full");
  if (mode == "smoke") {
    config.suite = SmokeSuiteConfig();
  } else if (mode != "full") {
    throw std::runtime_error("--mode must be full or smoke");
  }
  config.mode = mode;
  config.suite.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<long long>(config.suite.seed)));
  config.suite.machine_count = static_cast<std::size_t>(flags.GetInt(
      "machines", static_cast<long long>(config.suite.machine_count)));
  config.suite.trace_days =
      static_cast<int>(flags.GetInt("days", config.suite.trace_days));
  config.threads = static_cast<std::size_t>(flags.GetInt("threads", 0));
  const std::string out = flags.GetOr("out", "BENCH_quality.json");
  const std::string only = flags.GetOr("scenario", "");

  const ScenarioSuite suite = MakeScenarioSuite(config.suite);
  std::vector<ScenarioResult> results;
  for (const QualityScenario& scenario : suite.scenarios) {
    if (!only.empty() && scenario.name != only) continue;
    std::printf("%s (%s): %s\n", scenario.name.c_str(),
                scenario.group.c_str(), scenario.description.c_str());
    results.push_back(RunScenarioScorecard(scenario, config));
    std::printf("  %-17s %5s %5s %5s %10s %5s\n", "detector", "prec", "rec",
                "f1", "latency", "rank");
    for (const DetectorScore& ds : results.back().detectors) {
      const double latency =
          ds.outcome.MeanLatencyOr(kLatencyUnavailableSeconds);
      std::printf("  %-17s %5.2f %5.2f %5.2f %9.0fs %5.0f\n",
                  ds.detector.c_str(), ds.outcome.Precision(),
                  ds.outcome.Recall(), ds.outcome.F1(), latency,
                  ds.localization_rank);
    }
  }
  if (results.empty()) {
    throw std::runtime_error("no scenario named '" + only + "'");
  }
  WriteScorecardJson(out, config, results);
  std::printf("wrote %zu scenario(s) x %zu detectors to %s\n", results.size(),
              ScorecardDetectors().size(), out.c_str());
  return 0;
}

int CmdInspect(const Flags& flags) {
  const PairModel model = LoadPairModel(flags.Get("model"));
  std::printf("grid: %s\n", model.Grid().Describe().c_str());
  std::printf("kernel: %s\n", model.Kernel().Describe().c_str());
  std::printf("observed transitions: %zu\n",
              static_cast<std::size_t>(model.Matrix().ObservedCount()));
  std::printf("alarm bounds: fitness < %.4f, probability < %.6f\n",
              model.Config().fitness_alarm_threshold, model.Config().delta);
  std::printf("dim1 intervals: %s\n", model.Grid().Dim1().ToString().c_str());
  std::printf("dim2 intervals: %s\n", model.Grid().Dim2().ToString().c_str());

  // The busiest source cells and their modal destinations.
  std::printf("busiest transitions:\n");
  struct Hot {
    std::size_t from, to;
    std::uint64_t count;
  };
  std::vector<Hot> hot;
  for (std::size_t i = 0; i < model.Matrix().CellCount(); ++i) {
    for (const CountEntry& e : model.Matrix().CountRow(i)) {
      hot.push_back({i, e.column, e.count});
    }
  }
  std::sort(hot.begin(), hot.end(),
            [](const Hot& a, const Hot& b) { return a.count > b.count; });
  for (std::size_t k = 0; k < std::min<std::size_t>(5, hot.size()); ++k) {
    const Interval d1 = model.Grid().CellIntervalDim1(hot[k].from);
    const Interval d2 = model.Grid().CellIntervalDim2(hot[k].from);
    std::printf("  cell %zu [%.3g,%.3g)x[%.3g,%.3g) -> cell %zu: %llu times"
                " (p=%.1f%%)\n",
                hot[k].from, d1.lo, d1.hi, d2.lo, d2.hi, hot[k].to,
                static_cast<unsigned long long>(hot[k].count),
                model.Matrix().Probability(hot[k].from, hot[k].to) * 100.0);
  }
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: pmcorr <command> [--flag value ...]\n"
      "commands:\n"
      "  generate --out FILE [--group A|B|C] [--machines N] [--days N]"
      " [--seed N]\n"
      "  train    --trace FILE --x NAME --y NAME --out FILE"
      " [--train-days N]\n"
      "           [--units N] [--max-intervals N] [--calibrate-fpr F]\n"
      "  run      --model FILE --trace FILE --x NAME --y NAME\n"
      "           [--from-day N] [--threshold Q]\n"
      "  monitor  --trace FILE --train-days N [--graph"
      " neighborhood|association|full]\n"
      "           [--partners N] [--min-spearman R] [--threshold Q]\n"
      "           [--stream FILE]   (feed a degraded row-stream CSV and\n"
      "                              report per-measurement feed health)\n"
      "           [--delta-out FILE] (also write the run as an incremental\n"
      "                              delta stream)\n"
      "           [--delta-format jsonl|binary] (delta stream encoding)\n"
      "  monitor  --from-deltas FILE [--threshold Q]\n"
      "           (reconstruct and report a saved delta stream; the\n"
      "            format is auto-detected)\n"
      "  serve    --socket PATH --tenant NAME=TRACE[:DAYS] ...\n"
      "           [--checkpoint-dir DIR] [--checkpoint-every ROWS]\n"
      "           [--queue-budget ROWS] [--ingest-delay-ms N]\n"
      "           [--retrain SAMPLES] [--threads N] [--partners N]\n"
      "           (multi-tenant monitoring daemon; SIGTERM drains,\n"
      "            checkpoints every tenant, then exits)\n"
      "  evaluate [--mode full|smoke] [--out FILE] [--scenario NAME]\n"
      "           [--machines N] [--days N] [--seed N] [--threads N]\n"
      "           (detection-quality scorecard: pmcorr + 5 baselines over\n"
      "            the scenario suite -> BENCH_quality.json)\n"
      "  inspect  --model FILE\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Flags flags(argc, argv, 2);
    if (command == "generate") return CmdGenerate(flags);
    if (command == "train") return CmdTrain(flags);
    if (command == "run") return CmdRun(flags);
    if (command == "monitor") return CmdMonitor(flags);
    if (command == "serve") return CmdServe(flags);
    if (command == "evaluate") return CmdEvaluate(flags);
    if (command == "inspect") return CmdInspect(flags);
    Usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmcorr %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
