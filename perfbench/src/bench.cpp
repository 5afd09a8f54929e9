#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <stdexcept>

#include "common/time.h"
#include "core/model.h"
#include "io/framing.h"
#include "serve/protocol.h"
#include "telemetry/generator.h"
#include "telemetry/scenarios.h"

namespace perfbench {

using namespace pmcorr;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

double OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0.0;
  return static_cast<double>(CPU_COUNT(&set));
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameBits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || SameBits(*a, *b));
}

bool SameBits(const ScoreAverager& a, const ScoreAverager& b) {
  return a.Count() == b.Count() && SameBits(a.Sum(), b.Sum());
}

}  // namespace

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the q-quantile is the ceil(q * n)-th smallest sample.
  const std::size_t median = (n + 1) / 2 - 1;
  s.p50 = samples[median];
  const std::size_t tail =
      n <= 10 ? median : std::min((99 * n + 99) / 100 - 1, n - 11);
  s.p99 = samples[tail];
  s.p99_rank = 100.0 * static_cast<double>(tail + 1) / static_cast<double>(n);
  s.max = samples.back();
  return s;
}

double Median(std::vector<double> samples) {
  return Summarize(std::move(samples)).p50;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Metrics::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Record::Set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonString(value));
}

void Record::Set(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
}

std::string Record::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

Record BaseRecord(const Options& options) {
  Record record;
  record.Set("workload", options.workload);
  record.Set("seed", static_cast<double>(options.seed));
  record.Set("seconds", options.seconds);
  record.Set("trace", options.trace ? 1.0 : 0.0);
  record.Set("smoke", options.smoke ? 1.0 : 0.0);
  record.Set("nproc", OnlineCpus());
  record.Set("cpu_model", CpuModel());
  record.Set("compiler", PERFBENCH_COMPILER);
  record.Set("build_type", PERFBENCH_BUILD_TYPE);
  return record;
}

std::vector<double> Tracer::DurationsUs(Layer layer) const {
  std::vector<double> out = durations_[static_cast<std::size_t>(layer)];
  for (double& d : out) d *= 1e6;
  return out;
}

double Tracer::TotalSeconds(Layer layer) const {
  double total = 0.0;
  for (const double d : durations_[static_cast<std::size_t>(layer)]) {
    total += d;
  }
  return total;
}

std::size_t Tracer::SpanCount() const {
  std::size_t n = 0;
  for (const std::vector<double>& layer : durations_) n += layer.size();
  return n;
}

double TraceOverheadFrac(std::size_t spans, double wall_s) {
  if (wall_s <= 0.0) return 0.0;
  // The median of several batches, so one batch the scheduler interrupts
  // does not set the cost.
  constexpr std::size_t kBatch = 20000;
  std::vector<double> per_span;
  for (int b = 0; b < 5; ++b) {
    Tracer scratch;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const ScopedSpan span(&scratch, Layer::kStep);
    }
    per_span.push_back(Seconds(Clock::now() - start) /
                       static_cast<double>(kBatch));
  }
  return static_cast<double>(spans) * Median(per_span) / wall_s;
}

namespace {

constexpr std::size_t kRowsPerDay = static_cast<std::size_t>(kSamplesPerDay);

}  // namespace

FleetTelemetry MakeFleetTelemetry(std::uint64_t seed, std::size_t machines,
                                  int train_days, std::size_t days) {
  ScenarioConfig config;
  config.machine_count = machines;
  config.trace_days = train_days + 1;
  config.seed = 7;
  const MeasurementFrame trace =
      GenerateTrace(MakeGroupScenario('A', config).spec);
  const TimePoint split =
      trace.StartTime() + static_cast<TimePoint>(train_days) * kDay;
  FleetTelemetry telemetry;
  telemetry.train = trace.SliceByTime(trace.StartTime(), split);
  const MeasurementFrame day = trace.SliceByTime(split, split + kDay);
  const std::size_t phase = static_cast<std::size_t>(seed % kRowsPerDay);
  telemetry.live = MeasurementFrame(split, day.Period());
  for (const MeasurementInfo& info : day.Infos()) {
    const std::span<const double> one = day.Series(info.id).Values();
    std::vector<double> values(days * one.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = one[(phase + i) % one.size()];
    }
    telemetry.live.Add(info,
                       TimeSeries(split, day.Period(), std::move(values)));
  }
  return telemetry;
}

TenantInputs EncodeLiveRows(const MeasurementFrame& live) {
  std::vector<std::span<const double>> columns;
  for (const MeasurementInfo& info : live.Infos()) {
    columns.push_back(live.Series(info.id).Values());
  }
  TenantInputs in;
  std::string payload;
  for (std::size_t i = kRowsPerDay; i < live.SampleCount(); ++i) {
    SampleRow row;
    row.time = live.TimeAt(i);
    row.values.reserve(columns.size());
    for (const std::span<const double> column : columns) {
      row.values.push_back(column[i]);
    }
    payload.clear();
    EncodeSampleRow(row, payload);
    std::string bytes;
    AppendFrame(kFrameSample, payload, bytes);
    in.rows.push_back(std::move(row));
    in.frames.push_back(std::move(bytes));
  }
  return in;
}

void WarmUp(SystemMonitor& monitor, const MeasurementFrame& live) {
  std::vector<double> values(live.MeasurementCount());
  SystemSnapshot snap;
  for (std::size_t t = 0; t < kRowsPerDay && t < live.SampleCount(); ++t) {
    for (const MeasurementInfo& info : live.Infos()) {
      values[static_cast<std::size_t>(info.id.value)] = live.Value(info.id, t);
    }
    monitor.Step(values, live.TimeAt(t), snap);
  }
}

std::string CompareSnapshots(const SystemSnapshot& want,
                             const SystemSnapshot& got) {
  if (want.sample != got.sample) return "sample index";
  if (want.time != got.time) return "time";
  if (want.pair_scores.size() != got.pair_scores.size()) return "pair count";
  for (std::size_t i = 0; i < want.pair_scores.size(); ++i) {
    if (!SameBits(want.pair_scores[i], got.pair_scores[i])) {
      return "score of pair " + std::to_string(i);
    }
  }
  if (want.measurement_scores.size() != got.measurement_scores.size()) {
    return "measurement count";
  }
  for (std::size_t i = 0; i < want.measurement_scores.size(); ++i) {
    if (!SameBits(want.measurement_scores[i], got.measurement_scores[i])) {
      return "score of measurement " + std::to_string(i);
    }
  }
  if (!SameBits(want.system_score, got.system_score)) return "system score";
  if (want.alarmed_pairs != got.alarmed_pairs) return "alarmed pairs";
  if (want.outlier_pairs != got.outlier_pairs) return "outlier count";
  if (want.extended_pairs != got.extended_pairs) return "extension count";
  if (want.stream_event != got.stream_event) return "stream event";
  if (want.measurement_health != got.measurement_health) return "feed health";
  if (want.suppressed_values != got.suppressed_values) return "suppressed";
  if (want.quarantined_pairs != got.quarantined_pairs) return "quarantined";
  return {};
}

Aggregates CopyAggregates(const SystemMonitor& monitor) {
  return {monitor.MeasurementAverages(), monitor.SystemAverage(),
          monitor.StepCount()};
}

std::string CompareAggregates(const Aggregates& want, const Aggregates& got) {
  if (want.steps != got.steps) {
    return "step count " + std::to_string(got.steps) + " != " +
           std::to_string(want.steps);
  }
  if (!SameBits(want.system, got.system)) return "lifetime system average";
  if (want.measurements.size() != got.measurements.size()) {
    return "measurement averages width";
  }
  for (std::size_t i = 0; i < want.measurements.size(); ++i) {
    if (!SameBits(want.measurements[i], got.measurements[i])) {
      return "lifetime average of measurement " + std::to_string(i);
    }
  }
  return {};
}

void Outcomes::Add(const SystemSnapshot& snap) {
  for (const std::optional<double>& score : snap.pair_scores) {
    if (score) scored += 1.0;
  }
  outliers += static_cast<double>(snap.outlier_pairs);
  extended += static_cast<double>(snap.extended_pairs);
}

Footprint ModelFootprint(const SystemMonitor& monitor) {
  const std::size_t pairs = monitor.Graph().PairCount();
  double cells = 0.0;
  double bytes = 0.0;
  for (std::size_t p = 0; p < pairs; ++p) {
    const double s = static_cast<double>(monitor.Model(p).Grid().CellCount());
    cells += s;
    bytes += s * s * (8.0 + 8.0 + 4.0);
  }
  Footprint fp;
  if (pairs > 0) fp.cells_mean = cells / static_cast<double>(pairs);
  fp.model_mib = bytes / (1024.0 * 1024.0);
  return fp;
}

double LearnUsPerPair(const MeasurementFrame& train,
                      const MeasurementGraph& graph, const ModelConfig& config,
                      Tracer* tracer) {
  const std::size_t n = std::min<std::size_t>(64, graph.PairCount());
  if (n == 0) return 0.0;
  std::size_t cells = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t p = 0; p < n; ++p) {
    const PairId& pair = graph.Pair(p);
    const ScopedSpan span(tracer, Layer::kPairLearn);
    const PairModel model = PairModel::Learn(
        train.Series(pair.a).Values(), train.Series(pair.b).Values(), config);
    cells += model.Grid().CellCount();
  }
  const double us = Seconds(Clock::now() - start) * 1e6;
  if (cells == 0) throw std::runtime_error("learned models have no cells");
  return us / static_cast<double>(n);
}

double PeakRssMib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReportShares(const std::vector<std::pair<std::string, double>>& seconds,
                  double wall_s, const std::string& predicted,
                  WorkloadResult& result) {
  if (wall_s <= 0.0) return;
  double busy = 0.0;
  std::string top;
  double top_s = -1.0;
  for (const auto& [layer, s] : seconds) {
    result.per_layer.Set(layer + ".share", s / wall_s, "ratio");
    busy += s;
    if (s > top_s) {
      top_s = s;
      top = layer;
    }
  }
  result.per_layer.Set("driver.idle.share",
                       std::max(0.0, wall_s - busy) / wall_s, "ratio");
  char line[256];
  std::snprintf(line, sizeof(line),
                "dominant layer: %s, %.1f%% of the traced wall time "
                "(%.3f s); predicted %s: %s",
                top.c_str(), 100.0 * top_s / wall_s, wall_s,
                predicted.c_str(),
                top == predicted ? "confirmed" : "refuted");
  result.Note(line);
}

void NoteSetup(const std::vector<double>& setup_s, WorkloadResult& result) {
  std::string line = "set-up repeats (s):";
  char value[32];
  for (const double s : setup_s) {
    std::snprintf(value, sizeof(value), " %.4f", s);
    line += value;
  }
  result.Note(line);
}

}  // namespace perfbench
