// Alarm extraction over fitness-score streams.
//
// The paper reads problems off the fitness plot as "deep downward
// spikes" (Figure 12). These helpers turn a per-sample score series into
// discrete alarm windows, and keep a log of pair-level alarms for
// drill-down reports.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"

namespace pmcorr {

/// A maximal run of consecutive samples scoring below a threshold.
struct ScoreWindow {
  std::size_t first_sample = 0;
  std::size_t last_sample = 0;  // inclusive
  TimePoint start = 0;
  TimePoint end = 0;  // half-open: start of the sample after the window
  double min_score = 1.0;

  std::size_t Length() const { return last_sample - first_sample + 1; }
};

/// Finds all maximal windows of scores strictly below `threshold`.
/// Disengaged samples (nullopt) break windows without alarming. Windows
/// shorter than `min_length` samples are dropped (debounce).
std::vector<ScoreWindow> ExtractLowScoreWindows(
    std::span<const std::optional<double>> scores, TimePoint start,
    Duration period, double threshold, std::size_t min_length = 1);

/// Dense-series overload.
std::vector<ScoreWindow> ExtractLowScoreWindows(std::span<const double> scores,
                                                TimePoint start,
                                                Duration period,
                                                double threshold,
                                                std::size_t min_length = 1);

/// True if any window overlaps [from, to) — used by tests to check a
/// detection against a ground-truth fault window.
bool AnyWindowOverlaps(const std::vector<ScoreWindow>& windows,
                       TimePoint from, TimePoint to);

/// One recorded alarm from a pair model.
struct AlarmRecord {
  TimePoint time = 0;
  std::size_t pair_index = 0;
  double fitness = 0.0;
  bool outlier = false;
};

/// Append-only alarm log with simple per-pair accounting.
class AlarmLog {
 public:
  void Record(AlarmRecord record);

  /// Sorts this log's records by (time, pair index) — the order a
  /// sample-major loop records them in. A pair-major sweep calls
  /// this on its shard-local log (inside the worker, so the sort cost
  /// parallelizes) before handing it to AppendMerged.
  void SortForMerge();

  /// Merges per-shard logs — each already in (time, pair index) order,
  /// see SortForMerge — into this log via a deterministic k-way merge.
  /// Ties on time are broken by pair index, and a pair lives in exactly
  /// one shard, so the merged order is exactly the order a sample-major
  /// loop would have recorded. The shard logs are emptied but keep
  /// their capacity (`cursors` likewise — reusable scratch), so a
  /// steady-state caller re-merging every batch never reallocates them.
  void AppendMerged(std::span<AlarmLog> shards,
                    std::vector<std::size_t>& cursors);

  /// Convenience overload (owns its scratch; shards are consumed).
  void AppendMerged(std::vector<AlarmLog> shards);

  const std::vector<AlarmRecord>& Records() const { return records_; }
  std::size_t Count() const { return records_.size(); }

  /// Drops all records, keeping capacity (shard-log reuse across
  /// batches).
  void Clear() { records_.clear(); }

  /// Number of alarms recorded for `pair_index`.
  std::size_t CountForPair(std::size_t pair_index) const;

  /// Pair indices sorted by alarm count, descending (ties by index).
  std::vector<std::size_t> NoisiestPairs(std::size_t limit) const;

 private:
  std::vector<AlarmRecord> records_;
};

}  // namespace pmcorr
