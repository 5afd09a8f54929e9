// Test-only reference stepper: the oracle the monitoring engine is
// proven against.
//
// SystemMonitor runs Step and Run through one pair-major core.
// ReferenceStepper is the per-sample loop of the paper's framework
// (Figure 6, Section 5) written the obvious way instead: filter the row
// through the ingest guard, step every pair in index order behind the
// quarantine breaker, then aggregate Q^{a,b} -> Q^a -> Q and fold the
// lifetime averages. It is built from public types only — the pair
// models, IngestGuard and PairQuarantine it copies out of a monitor that
// has not stepped, an optional EngineFaultPlan, AggregateScores and
// ScoreAverager — and calls no SystemMonitor stepping entry point, so
// agreement with it is evidence rather than a tautology. It scores with
// the full probability (ScoreMode::kFull) where the engine scores
// rank-only, which also pins that the rank-only shortcut changes no
// output. Serial, sample-major and unoptimized on purpose. Not covered:
// the retrain pool, whose adoption timing is asynchronous.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/fitness.h"
#include "core/model.h"
#include "engine/fault_plan.h"
#include "engine/health.h"
#include "engine/measurement_graph.h"
#include "engine/monitor.h"
#include "engine/quarantine.h"
#include "engine/snapshot.h"
#include "io/monitor_io.h"
#include "timeseries/frame.h"

namespace pmcorr {
namespace difftest {

class ReferenceStepper {
 public:
  /// Copies `start`'s state: graph, measurement infos, pair models,
  /// ingest guard, quarantine and lifetime aggregates.
  explicit ReferenceStepper(const SystemMonitor& start)
      : graph_(start.Graph()),
        infos_(start.Infos()),
        guard_(start.Health()),
        quarantine_(start.Quarantine()),
        measurement_avg_(start.MeasurementAverages()),
        system_avg_(start.SystemAverage()),
        steps_(start.StepCount()) {
    for (std::size_t i = 0; i < graph_.PairCount(); ++i) {
      models_.push_back(start.Model(i));
    }
  }

  /// The same scripted faults the monitor under test carries.
  void SetFaultPlan(const EngineFaultPlan* plan) { fault_plan_ = plan; }

  /// One arriving sample; the guard's stream clock carries over from
  /// the previous call.
  SystemSnapshot Step(std::span<const double> values, TimePoint tp) {
    std::vector<double> row(values.begin(), values.end());
    const SampleReport report = guard_.Filter(row, tp);
    // A gap, duplicate or out-of-order arrival breaks every pair's
    // transition chain, skipped pairs included.
    if (report.sequence_break) {
      for (PairModel& model : models_) model.ResetSequence();
    }

    SystemSnapshot snap;
    snap.sample = steps_;
    snap.time = tp;
    snap.pair_scores.assign(graph_.PairCount(), std::nullopt);
    snap.stream_event = report.event;
    snap.suppressed_values = report.suppressed;
    for (std::size_t i = 0; i < graph_.PairCount(); ++i) {
      const PairId& pair = graph_.Pair(i);
      switch (quarantine_.BeginStep(i, steps_)) {
        case PairQuarantine::Decision::kSkip:
          ++snap.quarantined_pairs;
          continue;
        case PairQuarantine::Decision::kRunAfterReset:
          models_[i].ResetSequence();
          break;
        case PairQuarantine::Decision::kRun:
          break;
      }
      try {
        if (fault_plan_ != nullptr) fault_plan_->CheckPairStep(i, steps_);
        const StepOutcome out =
            models_[i].Step(row[static_cast<std::size_t>(pair.a.value)],
                            row[static_cast<std::size_t>(pair.b.value)]);
        quarantine_.RecordSuccess(i);
        if (out.has_score) snap.pair_scores[i] = out.fitness;
        if (out.alarm) snap.alarmed_pairs.push_back(i);
        if (out.outlier) ++snap.outlier_pairs;
        if (out.extended_grid) ++snap.extended_pairs;
      } catch (const std::exception& e) {
        quarantine_.RecordFailure(i, steps_, e.what());
        ++snap.quarantined_pairs;
      }
    }
    snap.measurement_health = guard_.HealthStates();

    // Q^a: mean of the engaged pair scores on a's links; Q: mean of the
    // engaged Q^a.
    snap.measurement_scores.assign(infos_.size(), std::nullopt);
    for (std::size_t a = 0; a < infos_.size(); ++a) {
      double sum = 0.0;
      std::size_t n = 0;
      for (const std::size_t i :
           graph_.PairsOf(MeasurementId(static_cast<std::int32_t>(a)))) {
        if (snap.pair_scores[i]) {
          sum += *snap.pair_scores[i];
          ++n;
        }
      }
      if (n > 0) snap.measurement_scores[a] = sum / static_cast<double>(n);
    }
    snap.system_score = AggregateScores(snap.measurement_scores);

    for (std::size_t a = 0; a < infos_.size(); ++a) {
      if (snap.measurement_scores[a]) {
        measurement_avg_[a].Add(*snap.measurement_scores[a]);
      }
    }
    system_avg_.Add(snap.system_score);
    ++steps_;
    return snap;
  }

  /// A whole frame: its own guard segment (SystemMonitor::Run's
  /// contract), then one Step per row.
  std::vector<SystemSnapshot> Run(const MeasurementFrame& frame) {
    guard_.ResetTiming();
    std::vector<SystemSnapshot> snapshots;
    std::vector<double> row(frame.MeasurementCount());
    for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
      for (std::size_t a = 0; a < row.size(); ++a) {
        row[a] = frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
      }
      snapshots.push_back(Step(row, frame.TimeAt(t)));
    }
    return snapshots;
  }

  /// Segment boundary (SystemMonitor::ResetSequences).
  void ResetSequences() {
    for (PairModel& model : models_) model.ResetSequence();
    guard_.ResetTiming();
  }

  /// Administrative retirement (SystemMonitor::RetirePair).
  void RetirePair(std::size_t i) {
    quarantine_.Retire(i, "administratively retired");
  }

  std::size_t PairCount() const { return models_.size(); }
  const PairModel& Model(std::size_t i) const { return models_.at(i); }
  std::size_t StepCount() const { return steps_; }
  const std::vector<ScoreAverager>& MeasurementAverages() const {
    return measurement_avg_;
  }
  const ScoreAverager& SystemAverage() const { return system_avg_; }

  /// Checkpoint bytes of the reference state, written through a monitor
  /// restored from its parts (restoring steps nothing).
  std::string CheckpointString() const {
    MonitorConfig config;
    config.threads = 1;
    const SystemMonitor restored(config, graph_, infos_, models_,
                                 measurement_avg_, system_avg_, steps_);
    std::ostringstream out;
    SaveSystemMonitor(restored, out);
    return out.str();
  }

 private:
  MeasurementGraph graph_;
  std::vector<MeasurementInfo> infos_;
  std::vector<PairModel> models_;
  IngestGuard guard_;
  PairQuarantine quarantine_;
  std::vector<ScoreAverager> measurement_avg_;
  ScoreAverager system_avg_;
  std::size_t steps_ = 0;
  const EngineFaultPlan* fault_plan_ = nullptr;
};

}  // namespace difftest
}  // namespace pmcorr
