// Engine output forms: the full per-sample SystemSnapshot, and the
// incremental SystemDelta a shard-scale monitor emits instead.
//
// At 193 pairs a full snapshot per tick is cheap; at 100k+ pairs it is
// the dominant cost — every tick serializes every pair even though the
// rank-quantized fitness of a healthy pair repeats bitwise for long
// stretches. A SystemDelta carries only what changed since the previous
// tick (changed pair scores, newly disengaged pairs, changed Q^a and
// feed health) plus the per-tick scalars, so a quiet tick is a few
// hundred bytes regardless of pair count. Both directions of the format
// live here: DiffSnapshots encodes a snapshot as a delta against the one
// before it, and DeltaReconstructor folds a delta stream back into full
// snapshots — the differential suite proves the reconstruction
// bitwise-identical to SystemMonitor::Run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "engine/health.h"

namespace pmcorr {

/// The engine's view of one processed sample.
struct SystemSnapshot {
  std::size_t sample = 0;
  TimePoint time = 0;

  /// Q^{a,b} per graph pair; disengaged when the pair had no scorable
  /// transition (first sample, or source cell unknown after an outlier).
  std::vector<std::optional<double>> pair_scores;

  /// Q^a per measurement (mean over its engaged pair scores).
  std::vector<std::optional<double>> measurement_scores;

  /// Q for the entire system (mean over engaged measurement scores).
  std::optional<double> system_score;

  /// Pair indices that alarmed at this sample.
  std::vector<std::size_t> alarmed_pairs;

  /// Pairs whose observation fell outside the grid beyond the extension
  /// margin / pairs that grew their grid at this sample.
  std::size_t outlier_pairs = 0;
  std::size_t extended_pairs = 0;

  /// Degraded-mode telemetry (engine/health.h, engine/quarantine.h).
  /// On a clean stream: kNone, all-healthy, 0, 0. These fields are
  /// engine-side observability only — they are not part of the JSONL
  /// snapshot-stream format or the checkpoint format.
  StreamEvent stream_event = StreamEvent::kNone;
  /// Per-measurement feed health after this sample; empty when the
  /// ingest guard is disabled.
  std::vector<MeasurementHealth> measurement_health;
  /// Values the guard suppressed to NaN at this sample.
  std::size_t suppressed_values = 0;
  /// Pairs that were not stepped at this sample (quarantined, retired,
  /// or tripped mid-sample).
  std::size_t quarantined_pairs = 0;
};

/// One sparse (index, value) entry of a delta: the pair or measurement
/// at `index` now scores `score` (bitwise — change detection compares
/// bit patterns, so reconstruction is exact).
struct ScoreChange {
  std::uint32_t index = 0;
  double score = 0.0;
};

/// Feed `index` moved to `health` at this tick.
struct HealthChange {
  std::uint32_t index = 0;
  MeasurementHealth health = MeasurementHealth::kHealthy;
};

/// Incremental form of one SystemSnapshot. A `baseline` delta restates
/// the full engaged state (every engaged pair/measurement score, every
/// non-healthy feed) against an implicit all-disengaged/all-healthy
/// start; a non-baseline delta lists only what changed since the
/// previous tick. Per-tick scalars (time, Q, alarms, counters) are
/// always carried — they are O(1) and almost always change.
struct SystemDelta {
  std::size_t sample = 0;
  TimePoint time = 0;
  /// Restates full state: the first tick of a delta run, and every tick
  /// after dirty-pair tracking was invalidated (Step/Run interleave,
  /// AddPair/RetirePair, calibration).
  bool baseline = false;
  /// Widths the reconstruction must agree with (pair count may grow
  /// across a baseline after AddPair).
  std::uint32_t pair_count = 0;
  std::uint32_t measurement_count = 0;

  std::optional<double> system_score;

  /// Pairs whose Q^{a,b} is newly present or changed bits, ascending.
  std::vector<ScoreChange> pair_changes;
  /// Pairs engaged last tick but disengaged now, ascending. Empty on a
  /// baseline (disengaged is the implicit start state).
  std::vector<std::uint32_t> pair_disengaged;
  /// Same for Q^a per measurement.
  std::vector<ScoreChange> measurement_changes;
  std::vector<std::uint32_t> measurement_disengaged;

  std::vector<std::size_t> alarmed_pairs;
  std::size_t outlier_pairs = 0;
  std::size_t extended_pairs = 0;
  StreamEvent stream_event = StreamEvent::kNone;
  std::size_t suppressed_values = 0;
  std::size_t quarantined_pairs = 0;

  /// True when the ingest guard tracks feed health (reconstruction then
  /// materializes a full health vector; otherwise it stays empty).
  bool has_health = false;
  /// Feeds whose health changed (baseline: every non-kHealthy feed).
  std::vector<HealthChange> health_changes;
};

/// Encodes `cur` as the delta that turns `prev` into it, overwriting every
/// field of `delta` and reusing its vectors' capacity. A null `prev`
/// makes a baseline: the diff runs against the implicit all-disengaged,
/// all-healthy start. Scores compare bitwise (NaN payloads and signed
/// zeros count as changes), so DeltaReconstructor::Apply of the result on
/// top of `prev` gives `cur` exactly. `prev` must have `cur`'s widths.
void DiffSnapshots(const SystemSnapshot* prev, const SystemSnapshot& cur,
                   SystemDelta& delta);

/// Folds a SystemDelta stream back into full SystemSnapshots. Stateful:
/// feed deltas in emission order, starting at a baseline. Throws
/// std::runtime_error on a malformed stream (first delta not a
/// baseline, width mismatch, out-of-range or non-ascending indices).
class DeltaReconstructor {
 public:
  /// Applies one delta and returns the full snapshot it encodes. The
  /// reference stays valid (and is overwritten) until the next Apply.
  const SystemSnapshot& Apply(const SystemDelta& delta);

  /// Full state as of the last Apply — the "full snapshot on demand"
  /// view of a live delta stream.
  const SystemSnapshot& Current() const { return state_; }
  bool HasState() const { return has_state_; }

 private:
  SystemSnapshot state_;
  bool has_state_ = false;
};

/// Convenience: reconstructs every delta of a stream (e.g. for the
/// differential proof or for report code that wants full snapshots).
std::vector<SystemSnapshot> ReconstructSnapshots(
    std::span<const SystemDelta> deltas);

}  // namespace pmcorr
