#include "io/model_io.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/check.h"
#include "io/atomic_file.h"

namespace pmcorr {
namespace {

constexpr std::string_view kContext = "LoadPairModel";

// Upper bounds on declared sizes. A corrupt or hostile file can claim any
// shape it likes; these caps reject it before the loader allocates. Real
// grids hold tens of intervals per dimension (the partitioner targets
// O(sqrt(history)) cells), so the caps leave two orders of magnitude of
// headroom while bounding the evidence block (cells^2 doubles) at 128 MiB.
constexpr std::size_t kMaxIntervalsPerDim = 1024;
constexpr std::size_t kMaxGridCells = 4096;

// Whether row `row` goes to the file as an evidence frame: an arena row
// that holds a bit other than +0.0. Only a 1x1 grid, whose one log
// weight is the center's 0, or a likelihood weight so small that every
// term underflows, leaves a written row at +0.0, so the test stops at
// the row's first or second entry everywhere else, on memory the frame
// copies next. Unwritten rows are not read at all.
bool EvidenceRowWritten(const TransitionMatrix& m, std::size_t row) {
  if (!m.RowWritten(row)) return false;
  for (const double v : m.EvidenceRow(row)) {
    if (std::bit_cast<std::uint64_t>(v) != 0) return true;
  }
  return false;
}

void WriteEdges(WireWriter& w, const IntervalList& list) {
  w.U32(static_cast<std::uint32_t>(list.Size()));
  for (std::size_t i = 0; i < list.Size(); ++i) w.F64(list.At(i).lo);
  w.F64(list.At(list.Size() - 1).hi);
}

IntervalList ReadEdges(WireReader& r) {
  const std::uint32_t n = r.U32();
  if (n == 0) r.Fail("empty interval list");
  if (n > kMaxIntervalsPerDim) {
    r.Fail("declared interval count " + std::to_string(n) +
           " exceeds limit");
  }
  std::vector<double> edges(n + 1);
  for (double& e : edges) {
    e = r.F64();
    if (!std::isfinite(e)) r.Fail("bad interval edge");
  }
  std::vector<Interval> intervals;
  intervals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // "!(b > a)" rather than "b <= a": NaN edges fail every comparison
    // and must not slip through (defense in depth behind the finiteness
    // check above).
    if (!(edges[i + 1] > edges[i])) r.Fail("non-increasing edges");
    intervals.push_back({edges[i], edges[i + 1]});
  }
  return IntervalList(std::move(intervals));
}

// Row index of an evidence or counts frame: inside the grid and above
// the section's previous row.
std::size_t ReadRow(WireReader& r, std::size_t cells, std::size_t next) {
  const std::uint32_t row = r.U32();
  if (row >= cells) r.Fail("row " + std::to_string(row) + " outside grid");
  if (row < next) r.Fail("rows not ascending");
  return row;
}

}  // namespace

void AppendPairModelFrames(const PairModel& model, std::string& out) {
  const ModelConfig& c = model.Config();
  const TransitionMatrix& m = model.Matrix();
  const std::size_t cells = m.CellCount();

  // The model frame declares how many rows each section writes before
  // the rows follow. It counts every arena row as an evidence row
  // without reading the arena; one that turns out to hold only +0.0 is
  // dropped below and the declared count patched.
  std::uint32_t evidence_rows = 0;
  std::uint32_t counts_rows = 0;
  for (std::size_t row = 0; row < cells; ++row) {
    evidence_rows += m.RowWritten(row) ? 1 : 0;
    counts_rows += m.CountRow(row).empty() ? 0 : 1;
  }

  WireWriter w(out);
  const std::size_t model_frame = BeginFrame(kModelFrame, out);
  w.U8(static_cast<std::uint8_t>(c.kernel.type));
  w.F64(c.kernel.w);
  w.U8(static_cast<std::uint8_t>(c.kernel.metric));
  w.F64(c.lambda1);
  w.F64(c.lambda2);
  w.F64(c.delta);
  w.F64(c.fitness_alarm_threshold);
  w.F64(c.forgetting);
  w.F64(c.likelihood_weight);
  w.U8(c.adaptive ? 1 : 0);
  w.F64(model.Grid().InitialAvgWidthDim1());
  w.F64(model.Grid().InitialAvgWidthDim2());
  WriteEdges(w, model.Grid().Dim1());
  WriteEdges(w, model.Grid().Dim2());
  w.U64(m.ObservedCount());
  const std::size_t evidence_rows_at = out.size();
  w.U32(evidence_rows);
  w.U32(counts_rows);
  EndFrame(model_frame, out);

  std::uint32_t written = 0;
  for (std::size_t row = 0; row < cells; ++row) {
    if (!EvidenceRowWritten(m, row)) continue;
    const std::size_t frame = BeginFrame(kEvidenceFrame, out);
    w.U32(static_cast<std::uint32_t>(row));
    w.F64s(m.EvidenceRow(row).data(), cells);
    EndFrame(frame, out);
    ++written;
  }
  if (written != evidence_rows) {
    for (std::size_t i = 0; i < 4; ++i) {
      out[evidence_rows_at + i] = static_cast<char>((written >> (8 * i)) & 0xff);
    }
    ResealFrame(model_frame, out);
  }
  for (std::size_t row = 0; row < cells; ++row) {
    const std::span<const CountEntry> counts = m.CountRow(row);
    if (counts.empty()) continue;
    const std::size_t frame = BeginFrame(kCountsFrame, out);
    w.U32(static_cast<std::uint32_t>(row));
    for (const CountEntry& e : counts) {
      w.U32(e.column);
      w.U32(e.count);
    }
    EndFrame(frame, out);
  }
}

PairModel ReadPairModelFrames(FrameReader& frames) {
  const Frame head = ExpectFrame(frames, kModelFrame, kContext);
  WireReader r(head.payload, kContext);

  ModelConfig config;
  const std::uint8_t kernel_type = r.U8();
  config.kernel.w = r.F64();
  const std::uint8_t metric = r.U8();
  if (kernel_type > static_cast<int>(KernelConfig::Type::kExponential)) {
    r.Fail("unknown kernel type");
  }
  if (metric > static_cast<int>(CellMetric::kEuclidean)) {
    r.Fail("unknown cell metric");
  }
  config.kernel.type = static_cast<KernelConfig::Type>(kernel_type);
  config.kernel.metric = static_cast<CellMetric>(metric);
  if (!std::isfinite(config.kernel.w)) r.Fail("bad kernel w");
  if (config.kernel.type == KernelConfig::Type::kExponential &&
      !(config.kernel.w > 1.0)) {
    r.Fail("exponential kernel needs w > 1");
  }

  config.lambda1 = r.F64();
  config.lambda2 = r.F64();
  config.delta = r.F64();
  config.fitness_alarm_threshold = r.F64();
  config.forgetting = r.F64();
  config.likelihood_weight = r.F64();
  const std::uint8_t adaptive = r.U8();
  if (adaptive > 1) r.Fail("bad adaptive flag");
  config.adaptive = adaptive != 0;
  // Mirror of PairModel::CheckInvariants's config clauses: written here
  // as load errors so hostile files fail in every build, not only under
  // PMCORR_AUDIT. All comparisons are NaN-rejecting.
  if (!(config.lambda1 >= 0.0 && config.lambda2 >= 0.0 &&
        std::isfinite(config.lambda1) && std::isfinite(config.lambda2) &&
        config.delta >= 0.0 && config.delta <= 1.0 &&
        config.fitness_alarm_threshold >= 0.0 &&
        config.fitness_alarm_threshold <= 1.0 && config.forgetting > 0.0 &&
        config.forgetting <= 1.0 && config.likelihood_weight > 0.0 &&
        std::isfinite(config.likelihood_weight))) {
    r.Fail("params out of range");
  }

  const double r1 = r.F64();
  const double r2 = r.F64();
  if (!(std::isfinite(r1) && r1 > 0.0) || !(std::isfinite(r2) && r2 > 0.0)) {
    r.Fail("bad r_avg");
  }

  IntervalList dim1 = ReadEdges(r);
  IntervalList dim2 = ReadEdges(r);
  if (dim1.Size() * dim2.Size() > kMaxGridCells) {
    r.Fail("declared grid shape " + std::to_string(dim1.Size()) + "x" +
           std::to_string(dim2.Size()) + " exceeds limit");
  }
  const std::uint64_t observed = r.U64();
  const std::uint32_t evidence_rows = r.U32();
  const std::uint32_t counts_rows = r.U32();
  r.ExpectEnd();
  Grid2D grid(std::move(dim1), std::move(dim2), r1, r2);
  const std::size_t cells = grid.CellCount();
  if (evidence_rows > cells || counts_rows > cells) {
    r.Fail("declared row count exceeds the grid's cells");
  }

  // Rows are restored straight into the matrix's sparse form: evidence
  // into arena slots reserved for the declared rows, counts into its
  // pool.
  const auto kernel = MakeKernel(config.kernel);
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, *kernel);
  matrix.ReserveRows(evidence_rows);
  std::size_t next_row = 0;
  for (std::uint32_t k = 0; k < evidence_rows; ++k) {
    const Frame frame = ExpectFrame(frames, kEvidenceFrame, kContext);
    WireReader e(frame.payload, "LoadPairModel: evidence");
    const std::size_t row = ReadRow(e, cells, next_row);
    next_row = row + 1;
    const std::span<double> values = matrix.RestoreEvidenceRow(row);
    e.F64s(values.data(), cells);
    bool any_bit = false;
    for (const double v : values) {
      // Every evidence term is a forgetting-discounted sum of weighted
      // log-probabilities, so legitimate checkpoints never hold positive
      // or non-finite entries.
      if (!(std::isfinite(v) && v <= 0.0)) e.Fail("bad evidence entry");
      any_bit |= std::bit_cast<std::uint64_t>(v) != 0;
    }
    e.ExpectEnd();
    if (!any_bit) e.Fail("all-zero row written");
  }

  std::vector<CountEntry> entries;
  next_row = 0;
  for (std::uint32_t k = 0; k < counts_rows; ++k) {
    const Frame frame = ExpectFrame(frames, kCountsFrame, kContext);
    WireReader c(frame.payload, "LoadPairModel: counts");
    const std::size_t row = ReadRow(c, cells, next_row);
    next_row = row + 1;
    if (c.AtEnd()) c.Fail("empty row");
    entries.clear();
    std::size_t next_column = 0;
    while (!c.AtEnd()) {
      const std::uint32_t column = c.U32();
      if (column >= cells || column < next_column) {
        c.Fail("columns not ascending inside the grid");
      }
      next_column = column + 1;
      const std::uint32_t count = c.U32();
      if (count == 0) c.Fail("zero count listed");
      entries.push_back(CountEntry{column, count});
    }
    matrix.RestoreCountRow(row, entries);
  }
  if (matrix.ObservedCount() != observed) {
    throw std::runtime_error(
        "LoadPairModel: counts sum to " +
        std::to_string(matrix.ObservedCount()) + ", header declares " +
        std::to_string(observed));
  }

  PairModel model =
      PairModel::FromParts(config, std::move(grid), std::move(matrix));
  PMCORR_AUDIT_ONLY(model.CheckInvariants();)
  return model;
}

void SavePairModel(const PairModel& model, std::ostream& out) {
  std::string bytes;
  AppendPairModelFrames(model, bytes);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("SavePairModel: write failed");
}

void SavePairModel(const PairModel& model, const std::string& path) {
  // Atomic replacement: a crash mid-save must not destroy the previous
  // model file (io/atomic_file.h).
  std::string bytes;
  AppendPairModelFrames(model, bytes);
  AtomicWriteFile(path, bytes);
}

PairModel LoadPairModel(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = std::move(buffer).str();
  if (bytes.starts_with("pmcorr-model v1")) {
    throw std::runtime_error(
        "LoadPairModel: a pmcorr-model v1 text file; this version reads "
        "framed binary model files only");
  }
  FrameReader frames;
  frames.Feed(bytes);
  PairModel model = ReadPairModelFrames(frames);
  if (frames.BufferedBytes() != 0) {
    throw std::runtime_error("LoadPairModel: bytes after the model's frames");
  }
  return model;
}

PairModel LoadPairModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("LoadPairModel: cannot open " + path);
  return LoadPairModel(in);
}

}  // namespace pmcorr
