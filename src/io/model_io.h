// PairModel persistence.
//
// A deployed monitor should survive restarts without relearning from
// history, so the full model state round-trips: config, both interval
// lists (with their initialization-time r_avg), the accumulated evidence,
// and the empirical counts. The encoding is framed binary (io/framing.h):
// each frame carries its own CRC-32 and doubles travel as IEEE-754 bit
// patterns, so a load restores the model bit for bit. A model file holds
// exactly one model's frames; a monitor checkpoint (io/monitor_io.h)
// embeds the same frames once per pair. `pmcorr inspect` renders a model
// file as text.
//
// The frames of one model, in order (payload fields little-endian):
//
//   kModelFrame     u8 kernel type | f64 kernel w | u8 cell metric |
//                   f64 lambda1 | f64 lambda2 | f64 delta |
//                   f64 fitness alarm threshold | f64 forgetting |
//                   f64 likelihood weight | u8 adaptive |
//                   f64 r_avg dim1 | f64 r_avg dim2 |
//                   u32 n1 | (n1 + 1) x f64 dim1 edges |
//                   u32 n2 | (n2 + 1) x f64 dim2 edges |
//                   u64 observed transitions |
//                   u32 evidence rows | u32 counts rows
//   kEvidenceFrame  u32 row | s x f64                      (one per row)
//   kCountsFrame    u32 row | n x (u32 column | u32 count),  n >= 1
//
// with s = n1 * n2 cells. An evidence row is written unless every entry
// in it is +0.0 bitwise (a row the model never updated); unwritten rows
// load as +0.0. A counts frame lists one row's nonzero counts by
// ascending column, as many as its payload holds. Rows ascend within
// each section, and the model frame declares how many frames each
// section holds, so a model is self-delimiting. With s capped at 4096
// cells the largest frame is an evidence row of 32 KiB, far below
// kMaxFramePayload, so a model larger than one frame's cap splits
// across frames instead.
//
// The loader accepts exactly what the encoder writes: declared sizes are
// capped before anything is allocated, every double is checked (finite
// edges, strictly increasing; finite, non-positive evidence; config
// values in range), counts are nonzero with ascending columns and must
// sum to the observed total, and each payload must end where its fields
// do.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/model.h"
#include "io/framing.h"

namespace pmcorr {

/// Frame types of a model's frames.
inline constexpr std::uint8_t kModelFrame = 'M';
inline constexpr std::uint8_t kEvidenceFrame = 'E';
inline constexpr std::uint8_t kCountsFrame = 'C';

/// Serializes the model; throws std::runtime_error on I/O failure.
void SavePairModel(const PairModel& model, std::ostream& out);
void SavePairModel(const PairModel& model, const std::string& path);

/// Restores a model saved by SavePairModel; throws std::runtime_error on
/// malformed input, including bytes after the model's last frame. The
/// restored model continues exactly where the saved one stopped (same
/// grid, posterior, counts; the transition sequence restarts, as after
/// ResetSequence()).
PairModel LoadPairModel(std::istream& in);
PairModel LoadPairModel(const std::string& path);

/// The codec under both, shared with the monitor checkpoint: appends the
/// model's frames to `out`, and reads one model's frames from `frames`
/// (throws std::runtime_error on malformed or missing frames).
void AppendPairModelFrames(const PairModel& model, std::string& out);
PairModel ReadPairModelFrames(FrameReader& frames);

}  // namespace pmcorr
