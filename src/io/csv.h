// Trace persistence: MeasurementFrame <-> CSV.
//
// Format (one file per frame):
//   # pmcorr-trace v1 start=<unix-seconds> period=<seconds>
//   # measurement,<machine-id>,<kind-name>,<display-name>   (one per column)
//   time,<display-name-1>,<display-name-2>,...
//   <unix-seconds>,<v1>,<v2>,...
//
// Values round-trip through "%.17g" so reloads are bit-exact.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "timeseries/frame.h"

namespace pmcorr {

/// Writes the frame; throws std::runtime_error on I/O failure.
void WriteFrameCsv(const MeasurementFrame& frame, const std::string& path);

/// Reads a frame written by WriteFrameCsv; throws std::runtime_error on
/// malformed input or I/O failure. NaN cells are kept (the missing-sample
/// marker: a pair model skips the sample and restarts its transition
/// chain); infinities are rejected, as are start/period combinations
/// whose sample timestamps would overflow.
MeasurementFrame ReadFrameCsv(std::istream& in);
MeasurementFrame ReadFrameCsv(const std::string& path);

/// One arriving sample of a (possibly degraded) collector stream: the
/// row's own timestamp plus one value per measurement.
struct SampleRow {
  TimePoint time = 0;
  std::vector<double> values;
};

/// A trace CSV read row by row, timestamps taken verbatim.
struct SampleStream {
  TimePoint start = 0;
  Duration period = 0;
  std::vector<MeasurementInfo> infos;
  std::vector<SampleRow> rows;
};

/// Reads the same file format as ReadFrameCsv, but preserves each row's
/// time column instead of projecting rows onto the uniform grid —
/// ReadFrameCsv by design ignores the time column (rows index
/// sequentially onto start + i * period), which silently "repairs"
/// exactly the degradations the ingest guard exists to catch. Rows with
/// duplicate, out-of-order, or gapped timestamps are preserved verbatim
/// for the guard to judge. Value parsing matches ReadFrameCsv (NaN kept,
/// infinities rejected); timestamps may be any non-negative value.
SampleStream ReadSampleStreamCsv(std::istream& in);
SampleStream ReadSampleStreamCsv(const std::string& path);

}  // namespace pmcorr
