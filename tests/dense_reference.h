// Test-only dense views of a TransitionMatrix and the dense reference
// encoder of a pair model's frames.
//
// TransitionMatrix stores evidence only for written rows and counts as
// sparse per-row lists. These helpers rebuild the s x s arrays a dense
// layout would hold, reading every entry through the public accessors,
// and encode a model from them exactly as the dense encoder did: an
// evidence row is written unless every one of its bytes is zero, a
// counts row unless every count is zero. The sparse encoder must produce
// the same bytes for every state, which is what the differential and
// model-io suites check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/transition_matrix.h"
#include "io/framing.h"
#include "io/model_io.h"

namespace pmcorr {
namespace difftest {

/// Row-major s x s evidence; unwritten rows read as +0.0.
inline std::vector<double> DenseEvidence(const TransitionMatrix& m) {
  const std::size_t s = m.CellCount();
  std::vector<double> dense(s * s);
  for (std::size_t i = 0; i < s; ++i) {
    const auto row = m.EvidenceRow(i);
    std::copy(row.begin(), row.end(), dense.begin() + i * s);
  }
  return dense;
}

/// Row-major s x s counts, read one entry at a time through CountOf.
inline std::vector<std::uint32_t> DenseCounts(const TransitionMatrix& m) {
  const std::size_t s = m.CellCount();
  std::vector<std::uint32_t> dense(s * s);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      dense[i * s + j] = static_cast<std::uint32_t>(m.CountOf(i, j));
    }
  }
  return dense;
}

/// Bitwise equality of two dense evidence arrays (-0.0 differs from
/// +0.0, as it does on disk).
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

inline bool AllZeroBytes(const void* p, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  return std::all_of(bytes, bytes + n, [](unsigned char b) { return b == 0; });
}

/// The model's frames as the dense encoder wrote them (io/model_io.h
/// documents the layout).
inline std::string DenseReferenceModelFrames(const PairModel& model) {
  const ModelConfig& c = model.Config();
  const TransitionMatrix& m = model.Matrix();
  const std::size_t cells = m.CellCount();
  const std::vector<double> evidence = DenseEvidence(m);
  const std::vector<std::uint32_t> counts = DenseCounts(m);
  std::vector<bool> evidence_written(cells);
  std::vector<bool> counts_written(cells);
  std::uint32_t evidence_rows = 0;
  std::uint32_t counts_rows = 0;
  for (std::size_t row = 0; row < cells; ++row) {
    evidence_written[row] =
        !AllZeroBytes(&evidence[row * cells], cells * sizeof(double));
    counts_written[row] =
        !AllZeroBytes(&counts[row * cells], cells * sizeof(std::uint32_t));
    evidence_rows += evidence_written[row] ? 1 : 0;
    counts_rows += counts_written[row] ? 1 : 0;
  }

  std::string out;
  WireWriter w(out);
  std::size_t frame = BeginFrame(kModelFrame, out);
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
  for (const IntervalList* list : {&model.Grid().Dim1(), &model.Grid().Dim2()}) {
    w.U32(static_cast<std::uint32_t>(list->Size()));
    for (std::size_t i = 0; i < list->Size(); ++i) w.F64(list->At(i).lo);
    w.F64(list->At(list->Size() - 1).hi);
  }
  w.U64(m.ObservedCount());
  w.U32(evidence_rows);
  w.U32(counts_rows);
  EndFrame(frame, out);
  for (std::size_t row = 0; row < cells; ++row) {
    if (!evidence_written[row]) continue;
    frame = BeginFrame(kEvidenceFrame, out);
    w.U32(static_cast<std::uint32_t>(row));
    for (std::size_t j = 0; j < cells; ++j) w.F64(evidence[row * cells + j]);
    EndFrame(frame, out);
  }
  for (std::size_t row = 0; row < cells; ++row) {
    if (!counts_written[row]) continue;
    frame = BeginFrame(kCountsFrame, out);
    w.U32(static_cast<std::uint32_t>(row));
    for (std::size_t j = 0; j < cells; ++j) {
      if (counts[row * cells + j] == 0) continue;
      w.U32(static_cast<std::uint32_t>(j));
      w.U32(counts[row * cells + j]);
    }
    EndFrame(frame, out);
  }
  return out;
}

/// The sparse encoder's frames for `model`.
inline std::string ModelFrames(const PairModel& model) {
  std::string out;
  AppendPairModelFrames(model, out);
  return out;
}

}  // namespace difftest
}  // namespace pmcorr
