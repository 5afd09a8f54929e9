// Uniformly-sampled time series — the representation of one measurement.
//
// The paper treats every measurement m^a as a time series sampled on a
// fixed period (6 minutes in its traces). A uniform grid keeps alignment
// between measurements trivial: sample index i of every series in a frame
// refers to the same wall-clock instant.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/time.h"

namespace pmcorr {

/// A uniformly-sampled sequence of doubles with an absolute start time.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Creates a series starting at `start`, one sample every `period`
  /// seconds. `period` must be positive.
  TimeSeries(TimePoint start, Duration period, std::vector<double> values);

  std::size_t Size() const { return values_.size(); }

  TimePoint Start() const { return start_; }
  Duration Period() const { return period_; }

  /// Timestamp of sample `index`.
  TimePoint TimeAt(std::size_t index) const;

  /// Timestamp one period past the final sample (half-open end).
  TimePoint End() const;

  /// Value of sample `index` (bounds-checked in debug builds).
  double At(std::size_t index) const;
  double operator[](std::size_t index) const { return At(index); }

  /// Index of the sample at or immediately after `tp`, clamped into
  /// [0, Size()]. Returns Size() when `tp` is past the end.
  std::size_t IndexAtOrAfter(TimePoint tp) const;

  /// Appends one sample (keeps the uniform grid: its timestamp is End()).
  void Append(double value);

  /// Read-only view of the raw values.
  std::span<const double> Values() const { return values_; }

  /// Copy of the samples in [from, to) by index, re-based in time.
  TimeSeries SliceByIndex(std::size_t from, std::size_t to) const;

  /// Copy of the samples whose timestamps fall in [from, to).
  TimeSeries SliceByTime(TimePoint from, TimePoint to) const;

 private:
  TimePoint start_ = 0;
  Duration period_ = kPaperSamplePeriod;
  std::vector<double> values_;
};

}  // namespace pmcorr
