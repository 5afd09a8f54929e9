// Shared pieces of the repository benchmark: timing and order
// statistics, the span recorder of traced runs, the generated workload
// inputs, the run record, and the bitwise output checks. perfbench/
// README.md says what each workload measures and why.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fitness.h"
#include "engine/monitor.h"
#include "engine/snapshot.h"
#include "io/csv.h"
#include "timeseries/frame.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs that finish in seconds: the benchmark's own test.
  bool smoke = false;
  /// Scratch directory for checkpoints, inside the checkout.
  std::string work_dir;
};

/// Nearest-rank order statistics of one sample set.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  /// "p99": the highest percentile, at most the 99th, that has at least
  /// ten samples beyond it (the median when there are ten or fewer).
  double p99 = 0.0;
  /// The percentile p99 actually reports.
  double p99_rank = 0.0;
  double max = 0.0;
};
Summary Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);

/// %.17g, or null for a non-finite value.
std::string JsonNumber(double value);

/// Named values with units; setting a name again replaces its value.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// The run record: how and where a result was produced.
class Record {
 public:
  void Set(const std::string& key, const std::string& value);
  void Set(const std::string& key, double value);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key, JSON
};

/// Machine and build fields every record carries.
Record BaseRecord(const Options& options);

// ---------------------------------------------------------------------------
// Tracing. A traced run records one span around each call the benchmark
// makes into the serve, engine, core and io modules; the program itself
// is not instrumented.

enum class Layer : std::uint8_t {
  kFrameDecode,     // serve: FrameReader::Feed + Next on one sample frame
  kAdmit,           // serve: ServeSession::HandleFrame on a sample frame
  kPump,            // serve: TenantRuntime::Pump(1)
  kQueryStatus,     // serve: HandleFrame on a status query
  kQuerySummary,    // serve: HandleFrame on a summary query
  kQueryDrilldown,  // serve: HandleFrame on a drill-down query
  kGraph,           // engine: MeasurementGraph construction
  kLearn,           // engine: SystemMonitor construction
  kStep,            // engine: SystemMonitor::Step
  kRun,             // engine: SystemMonitor::Run
  kDrilldown,       // engine: BuildDrilldown over one Run's snapshots
  kPairLearn,       // core: PairModel::Learn
  kSave,            // io: SaveSystemMonitor
  kLoad,            // io: LoadSystemMonitor
  kCount,
};

/// The durations of the spans of each layer, in the order they ended.
class Tracer {
 public:
  void Add(Layer layer, Clock::duration d) {
    durations_[static_cast<std::size_t>(layer)].push_back(Seconds(d));
  }
  std::vector<double> DurationsUs(Layer layer) const;
  double TotalSeconds(Layer layer) const;
  std::size_t SpanCount() const;

 private:
  std::vector<double> durations_[static_cast<std::size_t>(Layer::kCount)];
};

/// Records one span for its lifetime; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer),
        layer_(layer),
        start_(tracer != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Add(layer_, Clock::now() - start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
  Clock::time_point start_;
};

/// What tracing added to a traced pass: the `spans` recorded in it, times
/// the cost of one empty span measured on a scratch tracer, over the
/// pass's wall time.
double TraceOverheadFrac(std::size_t spans, double wall_s);

// ---------------------------------------------------------------------------
// Inputs.

/// The telemetry a workload monitors: the group-A trace of seed 7 (the
/// serve runbook's), `train_days` days of history the monitor learns
/// from, then `live`, the day after it replayed `days` times with
/// advancing timestamps. `seed` sets the row of that day the replay
/// starts at, so every seed feeds the same values in a rotated order and
/// builds monitors of the same shape and size: the spread between seeds
/// is the system's, not the inputs'. The first live day is the warm-up:
/// it grows the grids to the day's range untimed, so the measured days
/// run at a steady cost per row.
struct FleetTelemetry {
  pmcorr::MeasurementFrame train;
  pmcorr::MeasurementFrame live;
};
FleetTelemetry MakeFleetTelemetry(std::uint64_t seed, std::size_t machines,
                                  int train_days, std::size_t days);

/// Rows of the live stream after the warm-up day, each also encoded as
/// the exact kFrameSample frame a client sends.
struct TenantInputs {
  std::vector<pmcorr::SampleRow> rows;
  std::vector<std::string> frames;
};
TenantInputs EncodeLiveRows(const pmcorr::MeasurementFrame& live);

/// Steps `monitor` through the live stream's warm-up day.
void WarmUp(pmcorr::SystemMonitor& monitor,
            const pmcorr::MeasurementFrame& live);

// ---------------------------------------------------------------------------
// Output checks and model figures.

/// Empty when the snapshots are bitwise equal, else the first difference.
std::string CompareSnapshots(const pmcorr::SystemSnapshot& want,
                             const pmcorr::SystemSnapshot& got);

/// The monitor's lifetime aggregates, copied out for a later comparison.
struct Aggregates {
  std::vector<pmcorr::ScoreAverager> measurements;
  pmcorr::ScoreAverager system;
  std::size_t steps = 0;
};
Aggregates CopyAggregates(const pmcorr::SystemMonitor& monitor);
/// Empty when equal bitwise, else what differs.
std::string CompareAggregates(const Aggregates& want, const Aggregates& got);

/// Snapshot counts summed over a run.
struct Outcomes {
  double scored = 0.0;  // engaged pair scores
  double outliers = 0.0;
  double extended = 0.0;
  void Add(const pmcorr::SystemSnapshot& snap);
};

/// Mean grid cells per pair and the dense matrix bytes they imply
/// (s^2 cells of prior, evidence and counts: 8 + 8 + 4 bytes).
struct Footprint {
  double cells_mean = 0.0;
  double model_mib = 0.0;
};
Footprint ModelFootprint(const pmcorr::SystemMonitor& monitor);

/// Mean PairModel::Learn time over the graph's first 64 pairs, learned
/// serially from `train`.
double LearnUsPerPair(const pmcorr::MeasurementFrame& train,
                      const pmcorr::MeasurementGraph& graph,
                      const pmcorr::ModelConfig& config, Tracer* tracer);

/// getrusage high-water mark of this process.
double PeakRssMib();

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadResult {
  bool correct = true;
  std::string failure;  // the first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  Record record;
  std::vector<std::string> notes;  // human-readable lines

  void Fail(const std::string& what) {
    if (correct) failure = what;
    correct = false;
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

WorkloadResult RunServeLive(const Options& options);
WorkloadResult RunServeCatchup(const Options& options);
WorkloadResult RunBatchFleet(const Options& options);

/// Sets `<layer>.share`, each layer's share of a traced pass's wall time,
/// plus driver.idle.share for the rest, and notes the dominant layer
/// against the one the workload predicts.
void ReportShares(const std::vector<std::pair<std::string, double>>& seconds,
                  double wall_s, const std::string& predicted,
                  WorkloadResult& result);

/// Notes the seconds of each set-up repeat, in the order they ran.
void NoteSetup(const std::vector<double>& setup_s, WorkloadResult& result);

}  // namespace perfbench
