// Shared helpers for the experiment benchmarks: scenario slicing,
// pair-model evaluation runs, and quarter-of-day aggregation matching the
// x-axes of the paper's Figures 12 and 16.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/model.h"
#include "engine/monitor.h"
#include "telemetry/scenarios.h"
#include "timeseries/frame.h"

namespace pmcorr::bench {

/// Default model configuration used by all experiment benches (kept in
/// one place so every figure runs the same model).
ModelConfig DefaultModelConfig();

/// Evaluation trace of one pair model over a test frame.
struct PairRun {
  /// Q^{a,b} per test sample (disengaged samples nullopt).
  std::vector<std::optional<double>> scores;
  /// Mean over engaged scores.
  double average = 0.0;
  std::size_t outliers = 0;
  std::size_t extensions = 0;
};

/// Learns a model for (x, y) on `train` and steps it through `test`.
PairRun RunPair(const MeasurementFrame& train, const MeasurementFrame& test,
                MeasurementId x, MeasurementId y, const ModelConfig& config);

/// The paper's four x-axis buckets in Figures 12/16.
extern const char* const kQuarterLabels[4];  // "12am-6am" ... "6pm-12am"

/// Index 0..3 of the quarter containing `tp`.
int QuarterOf(TimePoint tp);

/// Per-quarter mean and min of engaged scores; quarters with no engaged
/// samples report mean/min = -1.
struct QuarterStats {
  double mean[4] = {-1, -1, -1, -1};
  double min[4] = {-1, -1, -1, -1};
};
QuarterStats QuarterizeScores(const std::vector<std::optional<double>>& scores,
                              TimePoint start, Duration period);

/// "6.13" style label for a TimePoint's date.
std::string PaperDay(TimePoint tp);

/// --- Machine-readable benchmark results --------------------------------
///
/// The experiment binaries historically only printed tables; BenchJson
/// accumulates flat name -> value metrics and writes them as
/// `BENCH_<name>.json` so the perf trajectory is tracked across PRs
/// (CI uploads the files as artifacts). Keys keep insertion order.
/// Every file opens with `nproc`, the CPUs the process may run on (its
/// affinity mask, as the `nproc` tool reports it), so timings recorded
/// on machines of different width are not compared as like for like.
class BenchJson {
 public:
  /// Starts the record with its `nproc` field.
  explicit BenchJson(std::string name);

  void Set(const std::string& key, double value);
  void Set(const std::string& key, std::int64_t value);
  void Set(const std::string& key, const std::string& value);

  /// Writes `BENCH_<name>.json` into BenchJsonDir(). Returns the path
  /// written, or an empty string when the file could not be opened.
  std::string Write() const;

 private:
  std::string name_;
  // (key, pre-encoded JSON value) in insertion order.
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Heap bytes of the monitor's transition matrices, summed by component.
MatrixBytes MonitorMatrixBytes(const SystemMonitor& monitor);

/// Records `bytes` as flat MiB keys: model_mib (the total), then
/// stencil_mib, evidence_mib, counts_mib and row_caches_mib.
void SetMatrixBytes(BenchJson& json, const MatrixBytes& bytes);

/// Directory BENCH_*.json files land in: $PMCORR_BENCH_JSON_DIR when set,
/// otherwise the repository root baked in at configure time (benches are
/// usually run from the build tree, but the trajectory files belong next
/// to CHANGES.md).
std::string BenchJsonDir();

}  // namespace pmcorr::bench
